"""Two-layer concurrency race detection for the repo's threaded code.

The paper's core lesson — concurrent agents sharing implements need
explicit coordination or they corrupt the flag — applied to our own
runtime: the stream fan-out bus, the store's RLock-guarded connection,
the fabric coordinator's worker threads, and serve's background server
are hand-locked, and this package proves the discipline instead of
asserting it in comments.

* :mod:`repro.races.lockset` — **static** lockset analysis (AST): per
  class, infer which ``self._x`` attributes are guarded (every write
  outside ``__init__`` under ``with self._lock:``) and flag any access
  that skips the lock.  ``repro racecheck src/repro`` runs it repo-wide
  against the justified allowlist in ``tools/races_allow.txt``.
* :mod:`repro.races.sanitizer` — **dynamic** happens-before sanitizer:
  vector-clock shims for ``Lock``/``RLock``/``Condition``/``Thread``
  and deque hand-offs, flagging unordered conflicting accesses to
  registered shared state.  Deterministic by construction (findings
  depend on the synchronization structure, not the interleaving);
  gated into the concurrency tests by ``REPRO_SAN=1``.

Both layers emit the same canonical-JSON :class:`RaceReport` envelope
(the :class:`repro.analyze.report.AnalysisReport` house style).  The
static layer is the repo's one lock-discipline check; simlint keeps only
the thread-lifecycle rule LOCK002.  The dynamic layer earns its place
on races the static one cannot see, such as a guarded attribute
written from outside its class (``tests/test_races_regression.py``).
"""

from .report import RACES_VERSION, RaceError, RaceReport, sort_findings
from .lockset import (
    Access,
    ClassLockset,
    analyze_file,
    analyze_source,
    load_allowlist,
    lockset_report,
)
from .sanitizer import (
    ENV_FLAG,
    RaceSanitizer,
    SanDeque,
    SanLock,
    SanThread,
    SharedState,
    enabled,
    maybe_sanitized,
)

__all__ = [
    "RACES_VERSION",
    "RaceError",
    "RaceReport",
    "sort_findings",
    "Access",
    "ClassLockset",
    "analyze_file",
    "analyze_source",
    "load_allowlist",
    "lockset_report",
    "ENV_FLAG",
    "RaceSanitizer",
    "SanDeque",
    "SanLock",
    "SanThread",
    "SharedState",
    "enabled",
    "maybe_sanitized",
]
