"""Pre-flight gates: vet sweep cells and serve requests before dispatch.

The executor and the service both accept fully-specified configurations
(:class:`~repro.sweep.spec.SweepCell`); this module answers "is this
cell statically valid?" without burning an executor slot.  A cell fails
the gate when :func:`~repro.analyze.scenarios.analyze_scenario` finds
an ERROR-severity issue — an undersized team, a provable deadlock, a
fault plan naming a nonexistent target — or when the configuration
cannot even be modeled (unknown flag, unsupported decomposition).

ACTIVITY cells (scenario 0) run all four core scenarios back to back,
so the gate checks each of the four; any scenario's error fails the
cell.
"""

from __future__ import annotations

from typing import List, Optional

from ..flags.decompose import DecompositionError
from ..sweep.spec import ACTIVITY, SweepCell
from .report import AnalysisError, AnalysisReport, Issue, Severity, \
    error, issues_summary
from .scenarios import analyze_scenario


def check_cell(cell: SweepCell) -> List[Issue]:
    """Statically validate one sweep cell.

    Returns:
        Every issue found (ERROR and WARNING).  Callers gating on the
        result should refuse the cell iff any issue has ERROR severity;
        warnings ride along for reporting.
    """
    issues: List[Issue] = []
    for report in cell_reports(cell, issues):
        issues.extend(report.issues)
    return issues


def preflight_errors(cell: SweepCell) -> Optional[str]:
    """The gate rule: a summary of the cell's ERROR findings, or ``None``.

    ``None`` means the cell may be dispatched; anything else is the
    text ``run_sweep``, the fabric and the service each put in their
    refusal.  Warnings never refuse a cell.
    """
    failed = [i for i in check_cell(cell) if i.severity is Severity.ERROR]
    return issues_summary(failed) if failed else None


def cell_reports(cell: SweepCell,
                 failures: Optional[List[Issue]] = None,
                 ) -> List[AnalysisReport]:
    """Analyze every scenario a cell implies (four for ACTIVITY cells).

    Args:
        cell: the configuration to analyze.
        failures: optional sink for modeling failures (unknown flag,
            unsupported decomposition) — each becomes an ERROR issue
            there instead of an exception, so gates can report them
            structurally.

    Returns:
        One report per analyzable scenario (possibly empty when the
        flag itself is unknown).
    """
    from ..flags import get_flag

    if failures is None:
        failures = []
    try:
        spec = get_flag(cell.flag)
    except KeyError as exc:
        failures.append(error("unknown_flag", str(exc.args[0]),
                              subject=cell.flag))
        return []

    scenarios = range(1, 5) if cell.scenario == ACTIVITY else [cell.scenario]
    reports: List[AnalysisReport] = []
    for n in scenarios:
        try:
            reports.append(analyze_scenario(
                spec, n,
                team_size=cell.team_size,
                copies=cell.copies,
                policy=cell.policy,
                rows=cell.rows,
                cols=cell.cols,
                fault_plan=cell.fault_plan,
            ))
        except (AnalysisError, DecompositionError) as exc:
            failures.append(error(
                "decomposition_failed",
                f"scenario {n}: {exc}",
                subject=f"scenario{n}"))
    return reports
