"""Static verification of scenarios before any simulation runs.

Two layers (see ``docs/analysis.md``):

* :mod:`repro.analyze.scenarios` — compile a flag + scenario + team
  into bounds the classroom can derive before anyone picks up a
  marker: deadlock cycles (same format as the runtime diagnostic),
  work/span speedup ceilings, load-imbalance floors, contention
  hotspots, and fault-plan validation.
* :mod:`repro.analyze.preflight` — the admission gates the sweep
  executor and the serve service call to refuse statically-invalid
  work before dispatch.

The codebase linter lives in ``tools/simlint.py`` (layer 2 of the
static-analysis subsystem); it shares the philosophy, not this package.
"""

from .report import (
    ANALYSIS_VERSION,
    AnalysisError,
    AnalysisReport,
    Issue,
    Severity,
    canonical_dumps,
    error,
    issues_summary,
    warning,
)
from .waitgraph import (
    AcquireStep,
    BarrierStep,
    HoldPair,
    ProcSpec,
    ReleaseStep,
    Step,
    WaitProgram,
    WorkStep,
    analyze_wait_program,
    execute_wait_program,
    hold_pairs,
)
from .scenarios import (
    HORIZON_SECONDS_PER_WEIGHT,
    analyze_scenario,
    wait_program_from_partition,
    worker_name,
)
from .faultcheck import check_fault_plan
from .preflight import cell_reports, check_cell, preflight_errors

__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisError",
    "AnalysisReport",
    "Issue",
    "Severity",
    "canonical_dumps",
    "error",
    "issues_summary",
    "warning",
    "AcquireStep",
    "BarrierStep",
    "HoldPair",
    "ProcSpec",
    "ReleaseStep",
    "Step",
    "WaitProgram",
    "WorkStep",
    "analyze_wait_program",
    "execute_wait_program",
    "hold_pairs",
    "HORIZON_SECONDS_PER_WEIGHT",
    "analyze_scenario",
    "wait_program_from_partition",
    "worker_name",
    "check_fault_plan",
    "cell_reports",
    "check_cell",
    "preflight_errors",
]
