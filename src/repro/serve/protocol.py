"""The serve wire protocol: versioned JSON schemas and their codec.

Every request and response body is a JSON object carrying a
``"protocol"`` version field.  This module owns the vocabulary —
:class:`RunRequest` / :class:`SweepRequest` parsing and validation,
response envelope builders, and the :class:`ProtocolError` hierarchy
that maps malformed input onto structured HTTP error bodies (a bad
request is *always* a typed JSON error with a 4xx status, never a 500
with a stack trace).

Determinism contract: :meth:`RunRequest.task` and
:meth:`RunRequest.address` are :func:`repro.sweep.executor.make_task`
and :func:`repro.sweep.executor.cell_address` for trial 0 of a
one-trial sweep of the same cell — the very functions
:func:`repro.sweep.executor.run_sweep` builds its tasks and cache keys
with.  A served trial is therefore byte-identical to the in-process
one, and the server's cache entries interoperate with ``repro sweep
--cache-dir`` entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..agents.student import FillStyle
from ..schedule.runner import AcquirePolicy
from ..sim.backend import BACKEND_CHOICES
from ..sweep.executor import cell_address, make_task
from ..sweep.spec import (
    ACTIVITY,
    SweepCell,
    SweepError,
    SweepSpec,
    cell_from_key_dict,
)

#: The wire-format version this server speaks.  Bump on breaking
#: changes to request/response shapes; requests carrying a different
#: version are rejected with 400 ``unsupported_protocol``.
PROTOCOL_VERSION = 1

#: Default cap on request body size (bytes); oversized bodies get 413.
DEFAULT_MAX_BODY_BYTES = 1 << 20


class ProtocolError(Exception):
    """A request the server refuses, mapped to an HTTP status.

    Attributes:
        status: the HTTP status code to respond with.
        code: a stable machine-readable error identifier.
        message: human-readable detail.
        retry_after: seconds to wait before retrying (429 responses).
    """

    def __init__(self, status: int, code: str, message: str, *,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


def dumps(body: Dict[str, Any]) -> bytes:
    """Canonical JSON encoding: sorted keys, compact separators.

    Canonical bytes make responses comparable in determinism tests —
    the same payload always serializes identically.
    """
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object.

    Raises:
        ProtocolError: 400 ``bad_json`` when the bytes are not valid
            JSON, or 400 ``bad_request`` when the top level is not an
            object; both carry the parser's detail message.
    """
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, "bad_json",
                            f"request body is not valid JSON: {exc}")
    if not isinstance(body, dict):
        raise ProtocolError(
            400, "bad_request",
            f"request body must be a JSON object, got "
            f"{type(body).__name__}")
    _check_version(body)
    return body


def _check_version(body: Dict[str, Any]) -> None:
    version = body.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            400, "unsupported_protocol",
            f"server speaks protocol {PROTOCOL_VERSION}, "
            f"request declared {version!r}")


def error_body(code: str, message: str) -> Dict[str, Any]:
    """The structured JSON body every error response carries."""
    return {"protocol": PROTOCOL_VERSION,
            "error": {"code": code, "message": message}}


def _reject_unknown(body: Dict[str, Any], allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(body) - set(allowed) - {"protocol"})
    if unknown:
        raise ProtocolError(
            400, "unknown_field",
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _as_int(body: Dict[str, Any], key: str, default: int, *,
            minimum: Optional[int] = None) -> int:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(400, "bad_field",
                            f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProtocolError(400, "bad_field",
                            f"{key!r} must be >= {minimum}, got {value}")
    return value


def _as_bool(body: Dict[str, Any], key: str, default: bool) -> bool:
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(400, "bad_field",
                            f"{key!r} must be a boolean, got {value!r}")
    return value


def _as_scenario(value: Any) -> int:
    if value == "activity":
        return ACTIVITY
    if isinstance(value, bool) or not isinstance(value, int) \
            or value not in (ACTIVITY, 1, 2, 3, 4):
        raise ProtocolError(
            400, "bad_field",
            f"scenario must be 1-4, 0, or 'activity', got {value!r}")
    return value


def _as_policy(value: Any) -> AcquirePolicy:
    try:
        return AcquirePolicy[str(value).upper()]
    except KeyError:
        raise ProtocolError(
            400, "bad_field",
            f"unknown policy {value!r}; one of "
            f"{sorted(p.name.lower() for p in AcquirePolicy)}") from None


def _as_style(value: Any) -> FillStyle:
    try:
        return FillStyle[str(value).upper()]
    except KeyError:
        raise ProtocolError(
            400, "bad_field",
            f"unknown style {value!r}; one of "
            f"{sorted(s.name.lower() for s in FillStyle)}") from None


def _as_backend(body: Dict[str, Any]) -> Optional[str]:
    value = body.get("backend")
    if value is None:
        return None
    if not isinstance(value, str) or value not in BACKEND_CHOICES:
        raise ProtocolError(
            400, "bad_field",
            f"'backend' must be one of {sorted(BACKEND_CHOICES)}, "
            f"got {value!r}")
    return value


def _as_timeout(body: Dict[str, Any]) -> Optional[float]:
    value = body.get("timeout_s")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise ProtocolError(
            400, "bad_field",
            f"'timeout_s' must be a positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RunRequest:
    """One validated ``POST /run`` body: a single (cell, seed) trial.

    Field defaults mirror :class:`~repro.sweep.spec.SweepSpec` so a
    bare ``{"flag": "mauritius"}`` request means the same experiment
    the CLI default sweep runs.
    """

    flag: str
    scenario: int = 3
    seed: int = 0
    team_size: int = 4
    policy: AcquirePolicy = AcquirePolicy.HOLD_COLOR_RUN
    style: FillStyle = FillStyle.SCRIBBLE
    copies: int = 1
    rows: Optional[int] = None
    cols: Optional[int] = None
    observe: bool = False
    backend: Optional[str] = None
    timeout_s: Optional[float] = None
    stream: bool = False

    _FIELDS = ("flag", "scenario", "seed", "team_size", "policy", "style",
               "copies", "rows", "cols", "observe", "backend", "timeout_s",
               "stream")

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "RunRequest":
        """Parse and validate a decoded request body.

        Raises:
            ProtocolError: 400 with a field-specific code and message
                on any invalid or unknown field.
        """
        _reject_unknown(body, cls._FIELDS)
        flag = body.get("flag")
        if not isinstance(flag, str) or not flag:
            raise ProtocolError(400, "bad_field",
                                f"'flag' must be a non-empty string, "
                                f"got {flag!r}")
        rows = body.get("rows")
        cols = body.get("cols")
        for name, value in (("rows", rows), ("cols", cols)):
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < 1):
                raise ProtocolError(
                    400, "bad_field",
                    f"{name!r} must be a positive integer, got {value!r}")
        try:
            return cls(
                flag=flag,
                scenario=_as_scenario(body.get("scenario", 3)),
                seed=_as_int(body, "seed", 0),
                team_size=_as_int(body, "team_size", 4, minimum=1),
                policy=_as_policy(body.get("policy", "hold_color_run")),
                style=_as_style(body.get("style", "scribble")),
                copies=_as_int(body, "copies", 1, minimum=1),
                rows=rows, cols=cols,
                observe=_as_bool(body, "observe", False),
                backend=_as_backend(body),
                timeout_s=_as_timeout(body),
                stream=_as_bool(body, "stream", False),
            )
        except SweepError as exc:
            raise ProtocolError(400, "bad_field", str(exc)) from exc

    def cell(self) -> SweepCell:
        """The sweep-grid point this request names."""
        return SweepCell(flag=self.flag, scenario=self.scenario,
                         team_size=self.team_size, policy=self.policy,
                         style=self.style, copies=self.copies,
                         rows=self.rows, cols=self.cols)

    def task(self, *, backend: str = "reference") -> Dict[str, Any]:
        """The executor task dict: trial 0 of a one-trial batch.

        ``backend`` is the *resolved* engine name (the handler applies
        the server default and ``auto`` fallback first).
        """
        return make_task(self.cell(), seed=self.seed, n_trials=1, trial=0,
                         observe=self.observe, backend=backend)

    def address(self, *, backend: str = "reference") -> str:
        """The cache address — identical to the sweep layer's.

        ``POST /run`` is defined as trial 0 of a one-trial sweep of
        this cell, so the server and ``repro sweep --cache-dir`` read
        and write the very same entries.
        """
        return cell_address(self.cell(), seed=self.seed, n_trials=1,
                            observe=self.observe, backend=backend)


@dataclass(frozen=True)
class TaskRequest:
    """One validated ``POST /task`` body: a raw executor task.

    The worker-facing sibling of :class:`RunRequest`: instead of
    friendly per-axis fields it takes a whole
    :meth:`~repro.sweep.spec.SweepCell.key_dict` plus the batch seed,
    the cell's trial count, and *which* trial to run — exactly the
    coordinates :func:`repro.sweep.executor.run_trial` seeds from.
    This lets :mod:`repro.fabric` lease any cell of any sweep (fault
    plans included, which ``/run`` cannot express) to a remote worker
    and get back the byte-identical trial payload.

    No cache read-through happens for tasks: the fabric coordinator
    owns cell-level caching, and a worker that is asked to compute
    should compute.
    """

    cell: SweepCell
    seed: int
    n_trials: int
    trial: int
    observe: bool = False
    backend: Optional[str] = None
    timeout_s: Optional[float] = None

    _FIELDS = ("cell", "seed", "n_trials", "trial", "observe", "backend",
               "timeout_s")

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "TaskRequest":
        """Parse and validate a decoded request body.

        Raises:
            ProtocolError: 400 with a field-specific code and message
                on any invalid or unknown field, including every way a
                cell dict can be malformed.
        """
        _reject_unknown(body, cls._FIELDS)
        raw_cell = body.get("cell")
        if not isinstance(raw_cell, dict):
            raise ProtocolError(
                400, "bad_field",
                f"'cell' must be a cell key_dict object, got {raw_cell!r}")
        try:
            cell = cell_from_key_dict(raw_cell)
        except SweepError as exc:
            raise ProtocolError(400, "bad_field",
                                f"'cell' is invalid: {exc}") from exc
        n_trials = _as_int(body, "n_trials", 1, minimum=1)
        trial = _as_int(body, "trial", 0, minimum=0)
        if trial >= n_trials:
            raise ProtocolError(
                400, "bad_field",
                f"'trial' must be < n_trials ({n_trials}), got {trial}")
        return cls(cell=cell,
                   seed=_as_int(body, "seed", 0),
                   n_trials=n_trials,
                   trial=trial,
                   observe=_as_bool(body, "observe", False),
                   backend=_as_backend(body),
                   timeout_s=_as_timeout(body))

    def task(self, *, backend: str = "reference") -> Dict[str, Any]:
        """The executor task dict, built by ``run_sweep``'s own builder.

        The cell dict is re-canonicalized through the parsed
        :class:`~repro.sweep.spec.SweepCell` (not echoed from the
        wire), so key order or JSON quirks in the request cannot change
        the trial's seed stream or cache identity.  ``backend`` is the
        resolved engine.
        """
        return make_task(self.cell, seed=self.seed, n_trials=self.n_trials,
                         trial=self.trial, observe=self.observe,
                         backend=backend)


def _as_tuple(body: Dict[str, Any], key: str, default: tuple,
              convert) -> tuple:
    value = body.get(key)
    if value is None:
        return default
    if not isinstance(value, list) or not value:
        raise ProtocolError(400, "bad_field",
                            f"{key!r} must be a non-empty list, "
                            f"got {value!r}")
    return tuple(convert(v) for v in value)


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /sweep`` body: a declarative cell grid."""

    spec: SweepSpec
    observe: bool = False
    backend: Optional[str] = None
    timeout_s: Optional[float] = None

    _FIELDS = ("flags", "scenarios", "team_sizes", "policies", "styles",
               "copies", "n_trials", "seed", "rows", "cols", "observe",
               "backend", "timeout_s")

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "SweepRequest":
        """Parse and validate a decoded request body.

        Raises:
            ProtocolError: 400 with a field-specific code and message
                on any invalid or unknown field.
        """
        _reject_unknown(body, cls._FIELDS)

        def _flag(v: Any) -> str:
            if not isinstance(v, str) or not v:
                raise ProtocolError(400, "bad_field",
                                    f"flag names must be non-empty "
                                    f"strings, got {v!r}")
            return v

        def _size(v: Any) -> int:
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ProtocolError(400, "bad_field",
                                    f"sizes must be positive integers, "
                                    f"got {v!r}")
            return v

        rows = body.get("rows")
        cols = body.get("cols")
        try:
            spec = SweepSpec(
                flags=_as_tuple(body, "flags", ("mauritius",), _flag),
                scenarios=_as_tuple(body, "scenarios", (3,), _as_scenario),
                team_sizes=_as_tuple(body, "team_sizes", (4,), _size),
                policies=_as_tuple(body, "policies",
                                   (AcquirePolicy.HOLD_COLOR_RUN,),
                                   _as_policy),
                styles=_as_tuple(body, "styles", (FillStyle.SCRIBBLE,),
                                 _as_style),
                copies=_as_tuple(body, "copies", (1,), _size),
                n_trials=_as_int(body, "n_trials", 1, minimum=1),
                seed=_as_int(body, "seed", 0),
                rows=rows, cols=cols,
            )
        except SweepError as exc:
            raise ProtocolError(400, "bad_field", str(exc)) from exc
        return cls(spec=spec,
                   observe=_as_bool(body, "observe", False),
                   backend=_as_backend(body),
                   timeout_s=_as_timeout(body))


def run_response(payload: Dict[str, Any], *, cached: bool,
                 batch_size: int) -> Dict[str, Any]:
    """The ``POST /run`` response envelope around one trial payload."""
    return {"protocol": PROTOCOL_VERSION, "cached": cached,
            "batch_size": batch_size, "trial": payload}


def stream_response(token: str, *, cached: bool,
                    runs: List[str]) -> Dict[str, Any]:
    """The ``POST /run`` (``stream=true``) envelope: a stream token.

    The token names a live feed on ``GET /stream?run=<token>``;
    ``runs`` lists the run labels the feed will carry, in order, and
    ``cached`` says whether the feed replays an archived payload
    (frame-identical to the live run it archives) or executes fresh.
    """
    return {"protocol": PROTOCOL_VERSION, "stream": token,
            "cached": cached, "runs": runs}


def task_response(payload: Dict[str, Any], *, trial: int,
                  batch_size: int) -> Dict[str, Any]:
    """The ``POST /task`` response envelope around one trial payload."""
    return {"protocol": PROTOCOL_VERSION, "trial_index": trial,
            "batch_size": batch_size, "trial": payload}


def sweep_response(rows: List[List[str]], *, computed_trials: int,
                   cached_trials: int, all_correct: bool,
                   wall_seconds: float) -> Dict[str, Any]:
    """The ``POST /sweep`` response envelope: per-cell summary rows."""
    return {"protocol": PROTOCOL_VERSION,
            "columns": ["cell", "run", "trials", "median",
                        "correct", "cache"],
            "rows": rows,
            "computed_trials": computed_trials,
            "cached_trials": cached_trials,
            "all_correct": all_correct,
            "wall_seconds": round(wall_seconds, 6)}
