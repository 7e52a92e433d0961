"""Declarative sweep specifications: the grid an experiment runs over.

A :class:`SweepSpec` names the axes every table and figure of the paper
aggregates over — flag, scenario (or the whole core activity), team
size, acquisition policy, fill style, duplicate-implement count, fault
plan — plus the trial count and batch seed.  :meth:`SweepSpec.cells`
expands the cross product into :class:`SweepCell` grid points, each
with a *canonical key*: a stable, human-readable string that both the
seeding policy (:mod:`repro.sweep.seeding`) and the result cache
(:mod:`repro.sweep.cache`) hash.  Two cells with the same key are the
same experiment; nothing about the key depends on grid ordering or on
which other cells the grid contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..agents.student import FillStyle
from ..canonical import canonical_json
from ..faults.plan import (
    FaultPlan,
    ImplementFailure,
    LateArrival,
    StudentDropout,
    TransientStall,
)
from ..grid.palette import Color
from ..schedule.runner import AcquirePolicy

#: Scenario-axis sentinel: run the whole four-scenario core activity
#: (with the scenario-1 repeat) as one trial instead of a single scenario.
ACTIVITY = 0

_VALID_SCENARIOS = (ACTIVITY, 1, 2, 3, 4)


class SweepError(Exception):
    """Raised for invalid sweep specifications."""


def fault_to_dict(fault) -> Dict[str, object]:
    """One fault as a JSON-safe dict (stable field order)."""
    if isinstance(fault, StudentDropout):
        return {"kind": "student_dropout", "at": fault.at,
                "worker": fault.worker}
    if isinstance(fault, ImplementFailure):
        return {"kind": "implement_failure", "at": fault.at,
                "color": fault.color.name}
    if isinstance(fault, TransientStall):
        return {"kind": "transient_stall", "at": fault.at,
                "worker": fault.worker, "duration": fault.duration}
    if isinstance(fault, LateArrival):
        return {"kind": "late_arrival", "worker": fault.worker,
                "delay": fault.delay}
    raise SweepError(f"unknown fault type {type(fault).__name__}")


def fault_from_dict(d: Dict[str, object]):
    """Rebuild one fault from its dict form.

    Raises:
        SweepError: on unknown kinds or missing fields.
    """
    try:
        kind = d["kind"]
        if kind == "student_dropout":
            return StudentDropout(at=float(d["at"]), worker=int(d["worker"]))
        if kind == "implement_failure":
            return ImplementFailure(at=float(d["at"]),
                                    color=Color[str(d["color"])])
        if kind == "transient_stall":
            return TransientStall(at=float(d["at"]), worker=int(d["worker"]),
                                  duration=float(d["duration"]))
        if kind == "late_arrival":
            return LateArrival(worker=int(d["worker"]),
                               delay=float(d["delay"]))
    except (KeyError, ValueError) as exc:
        raise SweepError(f"bad fault record {d!r}: {exc}") from exc
    raise SweepError(f"unknown fault kind {d.get('kind')!r}")


def fault_plan_to_dicts(plan: FaultPlan) -> List[Dict[str, object]]:
    """A whole plan as a JSON-safe list, in plan order."""
    return [fault_to_dict(f) for f in plan.faults]


def fault_plan_from_dicts(dicts: Sequence[Dict[str, object]]) -> FaultPlan:
    """Rebuild a plan from :func:`fault_plan_to_dicts` output."""
    return FaultPlan.of(fault_from_dict(d) for d in dicts)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a fully specified experiment configuration.

    ``scenario`` is 1-4 for a single core scenario or :data:`ACTIVITY`
    (0) for the whole activity.  ``fault_label`` names the plan in the
    spec's ``fault_plans`` mapping (``"clean"`` means no plan).
    """

    flag: str
    scenario: int
    team_size: int
    policy: AcquirePolicy
    style: FillStyle
    copies: int = 1
    fault_label: str = "clean"
    fault_plan: Optional[FaultPlan] = None
    rows: Optional[int] = None
    cols: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scenario not in _VALID_SCENARIOS:
            raise SweepError(
                f"scenario must be one of {_VALID_SCENARIOS} "
                f"(0 = full activity), got {self.scenario}"
            )
        if self.team_size < 1:
            raise SweepError(f"team_size must be >= 1, got {self.team_size}")
        if self.copies < 1:
            raise SweepError(f"copies must be >= 1, got {self.copies}")

    def key_dict(self) -> Dict[str, object]:
        """The cell's identity as a plain dict (stable, JSON-safe)."""
        return {
            "flag": self.flag,
            "scenario": self.scenario,
            "team_size": self.team_size,
            "policy": self.policy.name,
            "style": self.style.name,
            "copies": self.copies,
            "fault_label": self.fault_label,
            "faults": (None if self.fault_plan is None
                       else fault_plan_to_dicts(self.fault_plan)),
            "rows": self.rows,
            "cols": self.cols,
        }

    def key(self) -> str:
        """Canonical string identity: what seeding and caching hash."""
        return canonical_json(self.key_dict())

    def describe(self) -> str:
        """Short human-readable label for tables and logs."""
        what = ("activity" if self.scenario == ACTIVITY
                else f"s{self.scenario}")
        parts = [self.flag, what, f"n={self.team_size}",
                 self.policy.value, self.style.name.lower()]
        if self.copies != 1:
            parts.append(f"copies={self.copies}")
        if self.fault_label != "clean":
            parts.append(f"faults={self.fault_label}")
        return " ".join(parts)


def cell_from_key_dict(d: Dict[str, object]) -> SweepCell:
    """Rebuild a :class:`SweepCell` from its :meth:`~SweepCell.key_dict`.

    The inverse of ``key_dict()``: ``cell_from_key_dict(c.key_dict())``
    equals ``c`` for every valid cell, so a cell can round-trip through
    JSON — over the fabric's worker wire, through ``POST /task`` — and
    re-derive the *same* canonical key and cache address on the far
    side.  Nothing from the wire is trusted: every field is re-validated
    exactly as direct construction validates it.

    Raises:
        SweepError: on missing/extra fields, unknown policy/style/fault
            names, or any value direct construction would refuse.
    """
    expected = ("flag", "scenario", "team_size", "policy", "style",
                "copies", "fault_label", "faults", "rows", "cols")
    missing = [k for k in expected if k not in d]
    extra = sorted(set(d) - set(expected))
    if missing or extra:
        raise SweepError(
            f"bad cell dict: missing {missing or 'nothing'}, "
            f"unexpected {extra or 'nothing'}")
    try:
        policy = AcquirePolicy[str(d["policy"])]
        style = FillStyle[str(d["style"])]
    except KeyError as exc:
        raise SweepError(f"unknown policy/style name {exc}") from exc
    faults = d["faults"]
    if faults is not None and not isinstance(faults, (list, tuple)):
        raise SweepError(
            f"'faults' must be null or a list, got {type(faults).__name__}")
    for name in ("rows", "cols"):
        v = d[name]
        if v is not None and (isinstance(v, bool) or not isinstance(v, int)
                              or v < 1):
            raise SweepError(
                f"{name!r} must be null or a positive integer, got {v!r}")
    if not isinstance(d["flag"], str) or not d["flag"]:
        raise SweepError(f"'flag' must be a non-empty string, "
                         f"got {d['flag']!r}")
    try:
        return SweepCell(
            flag=d["flag"],
            scenario=int(d["scenario"]),  # type: ignore[arg-type]
            team_size=int(d["team_size"]),  # type: ignore[arg-type]
            policy=policy,
            style=style,
            copies=int(d["copies"]),  # type: ignore[arg-type]
            fault_label=str(d["fault_label"]),
            fault_plan=(None if faults is None
                        else fault_plan_from_dicts(faults)),
            rows=d["rows"], cols=d["cols"],  # type: ignore[arg-type]
        )
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad cell dict: {exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of experiment configurations.

    Axes multiply: ``flags x scenarios x team_sizes x policies x styles
    x copies x fault_plans``; each resulting cell runs ``n_trials``
    trials seeded from ``seed`` per the policy in
    :mod:`repro.sweep.seeding`.

    Attributes:
        flags: flag names from the catalog.
        scenarios: 1-4 and/or :data:`ACTIVITY` (0, the whole activity).
        team_sizes: colorers per team.
        policies: implement acquisition policies.
        styles: cell fill styles.
        copies: duplicate implements issued per color.
        fault_plans: label -> plan; ``None`` plans mean clean runs.
        n_trials: independent trials per cell.
        seed: the batch seed all trial streams derive from.
        rows / cols: flag raster override (``None`` = the flag default).
    """

    flags: Tuple[str, ...] = ("mauritius",)
    scenarios: Tuple[int, ...] = (3,)
    team_sizes: Tuple[int, ...] = (4,)
    policies: Tuple[AcquirePolicy, ...] = (AcquirePolicy.HOLD_COLOR_RUN,)
    styles: Tuple[FillStyle, ...] = (FillStyle.SCRIBBLE,)
    copies: Tuple[int, ...] = (1,)
    fault_plans: Tuple[Tuple[str, Optional[FaultPlan]], ...] = (
        ("clean", None),
    )
    n_trials: int = 1
    seed: int = 0
    rows: Optional[int] = None
    cols: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise SweepError(f"n_trials must be >= 1, got {self.n_trials}")
        for axis in ("flags", "scenarios", "team_sizes", "policies",
                     "styles", "copies", "fault_plans"):
            if not getattr(self, axis):
                raise SweepError(f"sweep axis {axis!r} is empty")
        labels = [label for label, _ in self.fault_plans]
        if len(set(labels)) != len(labels):
            raise SweepError(f"duplicate fault plan labels: {labels}")

    @classmethod
    def single(cls, flag: str, scenario: int, *, n_trials: int = 1,
               seed: int = 0, **kwargs) -> "SweepSpec":
        """A one-cell spec (the common CLI and notebook case)."""
        return cls(flags=(flag,), scenarios=(scenario,), n_trials=n_trials,
                   seed=seed, **kwargs)

    def cells(self) -> List[SweepCell]:
        """Expand the cross product, in deterministic axis order."""
        out: List[SweepCell] = []
        for flag in self.flags:
            for scenario in self.scenarios:
                for n in self.team_sizes:
                    for policy in self.policies:
                        for style in self.styles:
                            for cp in self.copies:
                                for label, plan in self.fault_plans:
                                    out.append(SweepCell(
                                        flag=flag, scenario=scenario,
                                        team_size=n, policy=policy,
                                        style=style, copies=cp,
                                        fault_label=label, fault_plan=plan,
                                        rows=self.rows, cols=self.cols,
                                    ))
        return out

    @property
    def n_cells(self) -> int:
        """Grid size without expanding it."""
        return (len(self.flags) * len(self.scenarios) * len(self.team_sizes)
                * len(self.policies) * len(self.styles) * len(self.copies)
                * len(self.fault_plans))

    @property
    def total_trials(self) -> int:
        """Trials the whole sweep runs when nothing is cached."""
        return self.n_cells * self.n_trials
