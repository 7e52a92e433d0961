"""The stream bus: thread-safe fan-out over one shared feed history.

A feed has one producer: the archived payload.  Its publisher is the
thread replaying a trial's payload
(:func:`~repro.stream.runner.replay_payload`) — a serve executor
thread or the tutor; consumers are SSE connections on the serve event
loop, tutor renderers, or tests.  The contract, in priority order:

1. **Publishing never blocks and never fails.**  The publisher must
   not wait on its consumers.  Wakes are edge-triggered: a publish
   wakes only the subscribers that have caught up (popped to the end
   of the history) since their last wake, deciding under the stream
   lock and calling the wakers after releasing it.  So a subscriber costs the
   publisher one wake per catch-up, not one per frame, and a slow or
   stuck one costs it one wake in all.
2. **Every subscriber reads the one history, without gaps.**  The
   stream retains its full envelope history (runs are finite; a trial
   is a few thousand frames), and a :class:`Subscription` is nothing
   but a cursor into it.  ``subscribe(after=n)`` starts the cursor at
   ``n``, so a late or resumed consumer reads ``n+1..`` and then keeps
   reading as frames arrive; a consumer that falls behind reads the
   frames it missed, in order, whenever it next pops.

:class:`StreamHub` maps opaque stream tokens to their
:class:`RunStream`, keeping a bounded LRU of finished streams around
so late subscribers (and resumed ones) can still replay a completed
feed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from .protocol import StreamEvent


class StreamClosed(Exception):
    """Raised when publishing into a stream that already terminated."""


class Subscription:
    """One consumer's cursor into a :class:`RunStream`'s history.

    Use :meth:`pop_ready` to read everything published past the cursor
    and :meth:`wait` / :meth:`add_waker` to sleep until more arrives.
    ``wait`` works for plain threads; an asyncio consumer registers a
    waker that is safe to call from any thread (e.g. wrapping
    ``loop.call_soon_threadsafe``).
    """

    def __init__(self, stream: "RunStream", *, after: int) -> None:
        self._stream = stream
        self._cursor = after  # frames already read: the last seq seen
        self._event = threading.Event()
        self._wakers: List[Callable[[], None]] = []
        self._detached = False
        # Armed: woken and not yet caught up, so publish skips it.
        # Set by publish and cleared by pop_ready, under the stream lock.
        self._armed = after < stream.last_seq or stream.finished
        if self._armed:
            self._event.set()  # backlog (or the terminal) is waiting

    def _wake(self) -> None:
        self._event.set()
        for waker in self._wakers:
            waker()

    # -- consumer side -----------------------------------------------------
    def add_waker(self, waker: Callable[[], None]) -> None:
        """Register a thread-safe callback fired once per catch-up.

        It fires on the first publish after :meth:`pop_ready` reached
        the end of the history, not on every frame: a consumer must
        pop until it gets an empty (or short) batch before sleeping,
        and must pop once after registering, since frames published
        before that may already have spent the wake.
        """
        with self._stream._lock:
            self._wakers.append(waker)

    def pop_ready(self, max_frames: int = 1024) -> List[StreamEvent]:
        """The frames past the cursor, oldest first; advances it.

        At most ``max_frames`` are returned per call so one huge backlog
        cannot monopolize a writer loop.  Reaching the end of the
        history disarms the subscription: the next publish wakes it.
        """
        with self._stream._lock:
            history = self._stream._history
            out = history[self._cursor:self._cursor + max_frames]
            self._cursor += len(out)
            if self._cursor >= len(history):
                self._armed = False
                self._event.clear()
        return out

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block (thread-style) until frames may be ready."""
        return self._event.wait(timeout)

    def close(self) -> None:
        """Detach from the stream; idempotent."""
        self._stream._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RunStream:
    """The ordered envelope history one streamed run's subscribers read."""

    def __init__(self, token: str, *,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.token = token
        self._lock = threading.Lock()
        self._history: List[StreamEvent] = []
        self._subs: List[Subscription] = []
        self._finished = False
        self._published = None if registry is None else registry.counter(
            "stream_frames_published_total",
            "Envelope frames published across all streams")

    @property
    def last_seq(self) -> int:
        """The newest published cursor (0 before the first frame)."""
        return len(self._history)

    @property
    def finished(self) -> bool:
        """Whether a terminal frame has been published."""
        return self._finished

    def publish(self, kind: str, *, run: Optional[str], time: float,
                data: Optional[Dict[str, Any]] = None) -> StreamEvent:
        """Append one frame and wake the caught-up subscribers.

        Never blocks.

        Raises:
            StreamClosed: when the stream already carried a terminal
                frame — feeds are append-only and end exactly once.
        """
        wake: List[Subscription]
        with self._lock:
            if self._finished:
                raise StreamClosed(
                    f"stream {self.token!r} already ended")
            event = StreamEvent(seq=len(self._history) + 1, time=time,
                                kind=kind, run=run, data=data or {})
            self._history.append(event)
            if event.terminal:
                self._finished = True
            wake = [sub for sub in self._subs if not sub._armed]
            for sub in wake:
                sub._armed = True
        if self._published is not None:
            self._published.inc()
        for sub in wake:
            sub._wake()
        return event

    def subscribe(self, *, after: int = 0) -> Subscription:
        """Attach a consumer whose cursor starts after seq ``after``."""
        with self._lock:
            sub = Subscription(self, after=max(0, after))
            self._subs.append(sub)
            return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            if not sub._detached:
                sub._detached = True
                try:
                    self._subs.remove(sub)
                except ValueError:  # pragma: no cover - double close race
                    pass

    @property
    def subscriber_count(self) -> int:
        """How many subscriptions are currently attached."""
        with self._lock:
            return len(self._subs)

    def history(self) -> List[StreamEvent]:
        """A snapshot of every frame published so far."""
        with self._lock:
            return list(self._history)


class StreamHub:
    """Token → :class:`RunStream` registry with finished-stream LRU.

    Active (unfinished) streams are never evicted; finished ones are
    kept — newest last — up to ``keep_finished`` so resumed clients can
    still replay a completed feed, then dropped oldest-first.
    """

    def __init__(self, *, keep_finished: int = 64,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.keep_finished = keep_finished
        self._registry = registry
        self._lock = threading.Lock()
        self._streams: "OrderedDict[str, RunStream]" = OrderedDict()

    def create(self, token: str) -> RunStream:
        """Register a new stream under ``token``.

        Raises:
            ValueError: when the token is already registered.
        """
        with self._lock:
            if token in self._streams:
                raise ValueError(f"stream token {token!r} already exists")
            stream = RunStream(token, registry=self._registry)
            self._streams[token] = stream
            self._evict_locked()
            return stream

    def get(self, token: str) -> Optional[RunStream]:
        """The stream for ``token``, or None (expired or never issued)."""
        with self._lock:
            stream = self._streams.get(token)
            if stream is not None:
                self._streams.move_to_end(token)
            return stream

    def _evict_locked(self) -> None:
        finished = [t for t, s in self._streams.items() if s.finished]
        excess = len(finished) - self.keep_finished
        for token in finished[:max(0, excess)]:
            del self._streams[token]

    def __len__(self) -> int:
        with self._lock:
            return len(self._streams)
