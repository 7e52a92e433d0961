"""Deterministic fault injection and recovery for classroom runs.

Declare what goes wrong (:class:`FaultPlan`), pick how the team responds
(:class:`RecoveryPolicy`), and the injector compiles the plan into engine
interrupts so the whole faulty run replays byte-for-byte from one seed.
"""

from .plan import (
    Fault,
    FaultError,
    FaultKind,
    FaultPlan,
    ImplementFailure,
    LateArrival,
    StudentDropout,
    TransientStall,
    sample_plan,
)
from .recovery import (
    FaultAccounting,
    RecoveryConfig,
    RecoveryError,
    RecoveryPolicy,
)
from .injector import FaultInjector

__all__ = [
    "Fault",
    "FaultError",
    "FaultKind",
    "FaultPlan",
    "ImplementFailure",
    "LateArrival",
    "StudentDropout",
    "TransientStall",
    "sample_plan",
    "FaultAccounting",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryPolicy",
    "FaultInjector",
]
