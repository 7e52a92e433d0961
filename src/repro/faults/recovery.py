"""Recovery policies: what the team does when something breaks.

The classroom debrief question — "what does the team do when a colorer
leaves?" — has three honest answers, and each is a real fault-tolerance
strategy:

- :attr:`RecoveryPolicy.ABANDON` — graceful degradation.  Survivors
  finish their own work; the dropped student's cells stay blank and a
  permanently failed implement's cells are skipped.  The canvas comes
  back incomplete but the team *finishes*, and the coverage loss is the
  measured cost.
- :attr:`RecoveryPolicy.REDISTRIBUTE` — work redistribution.  A dropped
  student's remaining strokes go to the least-loaded survivor (who pays a
  pickup pause walking over).  Full coverage, longer makespan.
- :attr:`RecoveryPolicy.SPARE_WITH_DELAY` — retry with backoff.  A failed
  implement is replaced after a fetch delay (someone runs to the supply
  closet); acquires queue up and resume when the spare arrives.  Dropouts
  under this policy fall back to REDISTRIBUTE handling so every fault
  kind has a defined outcome.

Which policy handles which fault:

===================  =========  ============  ================
fault                ABANDON    REDISTRIBUTE  SPARE_WITH_DELAY
===================  =========  ============  ================
student dropout      ops lost   reassigned    reassigned
implement failure    ops lost   ops lost      repaired
transient stall      ride out   ride out      ride out
late arrival         start late start late    start late
===================  =========  ============  ================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List


class RecoveryError(Exception):
    """Raised for invalid recovery configurations."""


class RecoveryPolicy(enum.Enum):
    """How the team responds to permanent faults."""

    ABANDON = "abandon"
    REDISTRIBUTE = "redistribute"
    SPARE_WITH_DELAY = "spare_with_delay"


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunable recovery behavior for one run.

    Attributes:
        policy: the strategy (see module docstring for the fault matrix).
        spare_fetch_delay: seconds to fetch a replacement implement
            (SPARE_WITH_DELAY only).
        redistribute_overhead: one-time pause charged to the survivor who
            inherits a dropped student's strokes (walking over, reading
            the remaining cells).
    """

    policy: RecoveryPolicy = RecoveryPolicy.REDISTRIBUTE
    spare_fetch_delay: float = 12.0
    redistribute_overhead: float = 3.0

    def __post_init__(self) -> None:
        if self.spare_fetch_delay <= 0:
            raise RecoveryError(
                f"spare_fetch_delay must be > 0, got {self.spare_fetch_delay}"
            )
        if self.redistribute_overhead < 0:
            raise RecoveryError(
                f"redistribute_overhead must be >= 0, "
                f"got {self.redistribute_overhead}"
            )

    @property
    def reassigns_dropout_work(self) -> bool:
        """Whether a dropped worker's remaining ops find a new owner."""
        return self.policy in (RecoveryPolicy.REDISTRIBUTE,
                               RecoveryPolicy.SPARE_WITH_DELAY)

    @property
    def repairs_implements(self) -> bool:
        """Whether failed implements get a scheduled replacement."""
        return self.policy is RecoveryPolicy.SPARE_WITH_DELAY


@dataclass
class FaultAccounting:
    """What actually happened: faults fired and what recovery cost.

    Filled in by the injector and the workers during a run and
    attached to the :class:`~repro.schedule.runner.RunResult` as
    ``result.faults``.

    Attributes:
        faults_fired: injected faults that actually took effect.
        dropouts / implement_failures / stalls / late_arrivals: per-kind
            fired counts.
        ops_reassigned: strokes moved to a survivor after a dropout.
        ops_abandoned: strokes never painted (dropout under ABANDON, or
            any op needing a permanently failed implement).
        recovery_latencies: seconds each recovery action took (spare
            fetch delays, redistribution pickup pauses).
    """

    faults_fired: int = 0
    dropouts: int = 0
    implement_failures: int = 0
    stalls: int = 0
    late_arrivals: int = 0
    ops_reassigned: int = 0
    ops_abandoned: int = 0
    recovery_latencies: List[float] = field(default_factory=list)

    @property
    def mean_recovery_latency(self) -> float:
        """Average recovery action latency (0.0 when nothing recovered)."""
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    @property
    def max_recovery_latency(self) -> float:
        """Worst single recovery latency (0.0 when nothing recovered)."""
        return max(self.recovery_latencies, default=0.0)

    def summary(self) -> Dict[str, float]:
        """Flat numbers for reports and JSON export."""
        return {
            "faults_fired": self.faults_fired,
            "dropouts": self.dropouts,
            "implement_failures": self.implement_failures,
            "stalls": self.stalls,
            "late_arrivals": self.late_arrivals,
            "ops_reassigned": self.ops_reassigned,
            "ops_abandoned": self.ops_abandoned,
            "mean_recovery_latency": self.mean_recovery_latency,
            "max_recovery_latency": self.max_recovery_latency,
        }
