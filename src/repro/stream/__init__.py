"""Event streaming: watch a simulation run's timeline unfold.

Where :mod:`repro.serve` made experiments *servable* and
:mod:`repro.store` made their results *durable*, this package makes a
run *watchable*: a trial's engine events flow, in simulated-time
order, over an async-safe bus onto SSE connections and terminal tutor
views — the infrastructure form of the paper's "watch the parallelism
happen" classroom moment.

- :mod:`~repro.stream.protocol` — the versioned wire schema: envelope
  frames (``seq`` / sim-time / kind / payload), SSE framing, and the
  reassembly helper that proves a feed byte-identical to the archived
  event log;
- :mod:`~repro.stream.bus` — a thread-safe fan-out bus that never
  blocks its publisher: every subscriber is a cursor into the feed's
  one history, so a late, lagging or resumed consumer reads every
  frame;
- :mod:`~repro.stream.runner` — publish one sweep trial's payload
  (freshly computed or read from a cache) through a stream;
- :mod:`~repro.stream.tutor` — guided lessons (speedup, warmup,
  contention, pipelining) narrating a feed with terminal Gantt and
  agents-waiting views, locally or against a remote server.

The headline invariant, pinned by tier-1 tests: for any seeded run,
the concatenated streamed feed — including one resumed mid-run from an
arbitrary cursor — reassembles to *exactly* the archived event log of
the same run.  A feed has one producer: the archived payload.
"""

from ..sim.export import event_line
from .bus import RunStream, StreamClosed, StreamHub, Subscription
from .protocol import (
    FRAME_KINDS,
    STREAM_PROTOCOL_VERSION,
    TERMINAL_KINDS,
    StreamEvent,
    StreamProtocolError,
    decode_sse_lines,
    dumps_frame,
    encode_sse,
    feed_makespans,
    heartbeat_comment,
    loads_frame,
    reassemble_feed,
    split_runs,
)
from .runner import (
    ACTIVITY_RUN_LABELS,
    StreamUnsupported,
    check_streamable,
    expected_run_labels,
    fail_stream,
    finish_stream,
    replay_payload,
)
from .tutor import (
    LESSONS,
    LessonReport,
    TutorError,
    TutorLesson,
    available_lessons,
    lesson_catalog,
    run_lesson,
)

__all__ = [
    "ACTIVITY_RUN_LABELS",
    "FRAME_KINDS",
    "LESSONS",
    "LessonReport",
    "RunStream",
    "STREAM_PROTOCOL_VERSION",
    "StreamClosed",
    "StreamEvent",
    "StreamHub",
    "StreamProtocolError",
    "StreamUnsupported",
    "Subscription",
    "TERMINAL_KINDS",
    "TutorError",
    "TutorLesson",
    "available_lessons",
    "check_streamable",
    "decode_sse_lines",
    "dumps_frame",
    "encode_sse",
    "event_line",
    "expected_run_labels",
    "fail_stream",
    "feed_makespans",
    "finish_stream",
    "heartbeat_comment",
    "lesson_catalog",
    "loads_frame",
    "reassemble_feed",
    "replay_payload",
    "run_lesson",
    "split_runs",
]
