"""Analysis reports: typed issues and a canonical-JSON result envelope.

The static analyzer never *runs* anything, so everything it learns fits
in a plain data structure: a list of typed :class:`Issue` findings plus
the numeric bounds the analysis derived.  :class:`AnalysisReport`
serializes to canonical JSON (:mod:`repro.canonical`, the encoding every
path shares), so reports are byte-comparable in tests and cacheable by
content address.

Severity semantics match the pre-flight gates: ``ERROR`` findings make
a configuration statically invalid (the sweep executor and the serve
admission path refuse it before dispatch); ``WARNING`` findings are
advisory (the run proceeds, the report records the concern).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..canonical import canonical_bytes as canonical_dumps


class AnalysisError(Exception):
    """Raised when an analysis cannot be performed at all (bad inputs)."""


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    ERROR: the configuration cannot execute correctly — deadlock cycle,
    unsatisfiable wait, fault plan naming a nonexistent target.  Gates
    refuse the work.

    WARNING: the configuration executes but something is off — a fault
    scheduled past the estimated horizon, a degenerate partition.  Gates
    let the work through; the report keeps the note.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Issue:
    """One analysis finding.

    Attributes:
        code: stable machine-readable identifier (``"deadlock_cycle"``,
            ``"fault_unknown_worker"``, ...).
        severity: :class:`Severity` of the finding.
        message: human-readable detail, naming the offending subject
            (the cycle path, the worker index, the implement color).
        subject: the thing the finding is about — a process name, a
            resource name, a fault index — for programmatic grouping.
    """

    code: str
    severity: Severity
    message: str
    subject: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, stable field set."""
        return {"code": self.code, "severity": self.severity.value,
                "message": self.message, "subject": self.subject}


def error(code: str, message: str, subject: str = "") -> Issue:
    """Shorthand for an ERROR-severity :class:`Issue`."""
    return Issue(code=code, severity=Severity.ERROR, message=message,
                 subject=subject)


def warning(code: str, message: str, subject: str = "") -> Issue:
    """Shorthand for a WARNING-severity :class:`Issue`."""
    return Issue(code=code, severity=Severity.WARNING, message=message,
                 subject=subject)


#: Version stamp carried by every serialized report; bump on breaking
#: changes to the report's field structure.
ANALYSIS_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the static analyzer concluded about one configuration.

    Attributes:
        flag: catalog flag name.
        scenario: core scenario number (1-4).
        team_size: colorers on the team the configuration names.
        copies: duplicate implements issued per color.
        policy: acquisition policy name (``"HOLD_COLOR_RUN"`` ...).
        hoard: whether the analysis modeled hoarding students (acquire
            the next implement before releasing the current one).
        rotated: whether the analysis modeled the rotated color order
            (:func:`repro.schedule.pipeline.rotate_color_order`).
        n_active_workers: workers with a non-empty assignment.
        total_implements: implement instances available (colors x copies).
        speedup_bound: sound static ceiling on realized parallelism for
            this scenario run: ``min(n_active_workers, total_implements)``
            — at any instant a stroke occupies one worker and one
            implement, so busy-time/makespan can never exceed it.
        dag: work-span analysis of the flag's layer dependency graph:
            ``work``, ``span``, ``ideal_speedup_bound`` (work/span law),
            ``critical_path`` (task names), ``max_parallelism``.
        load: per-worker weighted loads, ``imbalance`` (max/mean) and
            ``makespan_lower_bound_weight`` (max worker load — no
            schedule finishes faster than its busiest worker, in stroke
            weight units).
        contention: per-implement demand: worker count, total demanded
            weight, copies, and ``serial_bound_weight`` (demand/copies —
            a lower bound on makespan contributed by that implement);
            ``bottleneck`` names the worst one.
        deadlock_cycle: alternating ``[p, via, p, ..., p]`` wait cycle
            (the :func:`repro.sim.find_wait_cycle` format) or ``[]``.
        issues: all findings, errors first, construction order otherwise.
    """

    flag: str
    scenario: int
    team_size: int
    copies: int
    policy: str
    hoard: bool
    rotated: bool
    n_active_workers: int
    total_implements: int
    speedup_bound: float
    dag: Dict[str, Any]
    load: Dict[str, Any]
    contention: Dict[str, Any]
    deadlock_cycle: List[str] = field(default_factory=list)
    issues: Tuple[Issue, ...] = ()

    @property
    def errors(self) -> List[Issue]:
        """Findings that make the configuration statically invalid."""
        return [i for i in self.issues if i.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Issue]:
        """Advisory findings."""
        return [i for i in self.issues if i.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether the configuration passed (no ERROR findings)."""
        return not self.errors

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form, stable field set, version-stamped."""
        return {
            "analysis_version": ANALYSIS_VERSION,
            "flag": self.flag,
            "scenario": self.scenario,
            "team_size": self.team_size,
            "copies": self.copies,
            "policy": self.policy,
            "hoard": self.hoard,
            "rotated": self.rotated,
            "n_active_workers": self.n_active_workers,
            "total_implements": self.total_implements,
            "speedup_bound": self.speedup_bound,
            "dag": self.dag,
            "load": self.load,
            "contention": self.contention,
            "deadlock_cycle": list(self.deadlock_cycle),
            "ok": self.ok,
            "issues": [i.to_dict() for i in self.issues],
        }

    def to_json(self) -> bytes:
        """Canonical JSON bytes of :meth:`to_dict` (byte-stable)."""
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "AnalysisReport":
        """Rebuild a report from :meth:`to_dict` output.

        Raises:
            AnalysisError: on a version mismatch or missing fields.
        """
        version = d.get("analysis_version")
        if version != ANALYSIS_VERSION:
            raise AnalysisError(
                f"report version {version!r} != {ANALYSIS_VERSION}")
        try:
            issues = tuple(
                Issue(code=i["code"], severity=Severity(i["severity"]),
                      message=i["message"], subject=i.get("subject", ""))
                for i in d["issues"]
            )
            return cls(
                flag=d["flag"], scenario=d["scenario"],
                team_size=d["team_size"], copies=d["copies"],
                policy=d["policy"], hoard=d["hoard"], rotated=d["rotated"],
                n_active_workers=d["n_active_workers"],
                total_implements=d["total_implements"],
                speedup_bound=d["speedup_bound"],
                dag=d["dag"], load=d["load"], contention=d["contention"],
                deadlock_cycle=list(d["deadlock_cycle"]), issues=issues,
            )
        except (KeyError, ValueError) as exc:
            raise AnalysisError(f"malformed report dict: {exc}") from exc

    def format(self) -> str:
        """Multi-line human-readable rendering (CLI text output)."""
        lines = [
            f"{self.flag} scenario {self.scenario}: "
            f"{'ok' if self.ok else 'INVALID'}",
            f"  workers        : {self.n_active_workers} active "
            f"(team of {self.team_size}), "
            f"{self.total_implements} implement(s)",
            f"  speedup bound  : {self.speedup_bound:.2f}x "
            f"(min of workers and implements)",
            f"  work-span      : work {self.dag['work']:.0f}, "
            f"span {self.dag['span']:.0f} -> "
            f"ideal {self.dag['ideal_speedup_bound']:.2f}x",
            f"  load imbalance : {self.load['imbalance']:.2f} "
            f"(makespan >= {self.load['makespan_lower_bound_weight']:.0f} "
            f"weight units)",
        ]
        bottleneck = self.contention.get("bottleneck")
        if bottleneck:
            per = {e["resource"]: e
                   for e in self.contention["per_implement"]}
            b = per[bottleneck]
            lines.append(
                f"  contention     : bottleneck {bottleneck} "
                f"({b['workers']} workers want {b['demand_weight']:.0f} "
                f"weight through {b['copies']} cop"
                f"{'y' if b['copies'] == 1 else 'ies'})")
        if self.deadlock_cycle:
            from ..sim.engine import format_wait_cycle
            lines.append(
                f"  deadlock       : "
                f"{format_wait_cycle(self.deadlock_cycle)}")
        else:
            lines.append("  deadlock       : none possible "
                         "(no hold-and-wait cycle)")
        for issue in self.issues:
            lines.append(f"  [{issue.severity.value}] "
                         f"{issue.code}: {issue.message}")
        return "\n".join(lines)


def issues_summary(issues: List[Issue]) -> str:
    """One-line roll-up of a finding list for gate error messages."""
    return "; ".join(f"{i.code}: {i.message}" for i in issues)
