"""Tests for repro.stream.bus and .runner — fan-out and feed identity.

The bus contract in priority order: publishing never blocks (bounded
work, bounded latency, even with stuck subscribers), per-subscriber
queues drop oldest with counted losses, and replay-from-seq reads a
gap-free history.  The runner contract: a streamed trial's payload is
byte-identical to an unstreamed one, and the reassembled feed *is* the
archived event log.
"""

import json
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.races import maybe_sanitized
from repro.stream import (
    ACTIVITY_RUN_LABELS,
    RunStream,
    StreamClosed,
    StreamHub,
    StreamUnsupported,
    check_streamable,
    expected_run_labels,
    fail_stream,
    finish_stream,
    reassemble_feed,
    replay_payload,
    run_streamed_trial,
)
from repro.sweep import ACTIVITY
from repro.sweep.executor import run_trial


def publish_n(stream, n, run="scenario3"):
    for i in range(n):
        stream.publish("event", run=run, time=float(i),
                       data={"line": json.dumps({"i": i})})


def task_for(scenario=3, seed=5, **extra):
    from repro.serve.protocol import RunRequest
    body = {"flag": "poland", "scenario": scenario, "seed": seed}
    body.update(extra)
    return RunRequest.from_body(body).task()


class TestPublishSubscribe:
    def test_seq_is_contiguous_and_one_based(self):
        stream = RunStream("t")
        publish_n(stream, 5)
        assert [ev.seq for ev in stream.history()] == [1, 2, 3, 4, 5]
        assert stream.last_seq == 5

    def test_subscriber_sees_frames_in_order(self):
        stream = RunStream("t")
        with stream.subscribe() as sub:
            publish_n(stream, 10)
            assert [ev.seq for ev in sub.pop_ready()] == list(range(1, 11))

    def test_terminal_frame_finishes_the_stream(self):
        stream = RunStream("t")
        publish_n(stream, 2)
        finish_stream(stream, cached=False, runs=["scenario3"])
        assert stream.finished
        with pytest.raises(StreamClosed):
            stream.publish("event", run="scenario3", time=0.0)

    def test_replay_from_cursor_has_no_gaps(self):
        stream = RunStream("t")
        publish_n(stream, 100)
        sub = stream.subscribe(after=40)
        assert [ev.seq for ev in sub.pop_ready()] == list(range(41, 101))

    def test_late_subscriber_replays_a_finished_feed(self):
        stream = RunStream("t")
        publish_n(stream, 3)
        finish_stream(stream, cached=True, runs=["scenario3"])
        sub = stream.subscribe()
        assert sub.wait(0.0)  # the backlog pre-arms the event
        frames = sub.pop_ready()
        assert [ev.seq for ev in frames] == [1, 2, 3, 4]
        assert frames[-1].terminal

    def test_waker_fires_on_publish(self):
        stream = RunStream("t")
        sub = stream.subscribe()
        calls = []
        sub.add_waker(lambda: calls.append(1))
        publish_n(stream, 3)
        assert len(calls) == 3


class TestOverflow:
    def test_slow_subscriber_drops_oldest_and_counts(self):
        registry = MetricsRegistry()
        stream = RunStream("t", max_queue=8, registry=registry)
        sub = stream.subscribe()   # never pops: the stuck client
        publish_n(stream, 50)
        assert len(sub._live) == 8           # bounded, not growing
        assert sub.dropped == 42
        assert stream.dropped == 42
        assert registry.counter(
            "stream_dropped_frames_total").value() == 42.0
        assert registry.counter(
            "stream_frames_published_total").value() == 50.0
        # drop-oldest: the live queue holds the *newest* frames.
        assert [ev.seq for ev in sub._live] == list(range(43, 51))

    def test_dropped_client_recovers_from_history(self):
        # The whole point of keeping the envelope history: a client
        # that overflowed resumes from its cursor and reads the missed
        # frames back out, gap-free.
        stream = RunStream("t", max_queue=4)
        sub = stream.subscribe()
        publish_n(stream, 20)
        survived = sub.pop_ready()
        # Drop-oldest left only the newest window in the live queue...
        assert [ev.seq for ev in survived] == [17, 18, 19, 20]
        assert sub.dropped == 16
        # ...so the client re-subscribes from its cursor and the
        # history serves the missed frames back, gap-free.
        sub.close()
        resumed = stream.subscribe(after=0)
        assert [ev.seq for ev in resumed.pop_ready()] == list(
            range(1, 21))

    def test_closed_subscribers_drops_stay_counted(self):
        stream = RunStream("t", max_queue=2)
        sub = stream.subscribe()
        publish_n(stream, 10)
        assert stream.dropped == 8
        sub.close()
        assert stream.subscriber_count == 0
        assert stream.dropped == 8           # history survives the close

    def test_publish_latency_is_bounded_by_stuck_subscribers(self):
        # Contract #1: the engine never notices observers.  With three
        # permanently-stuck subscribers, publishing stays O(1) per
        # frame — microseconds, not milliseconds.  The bound here is
        # generous (well under 1ms/frame on any host) but would fail
        # loudly if publish ever blocked on a full queue.
        stream = RunStream("t", max_queue=16)
        for _ in range(3):
            stream.subscribe()
        t0 = time.perf_counter()
        publish_n(stream, 5000)
        per_frame = (time.perf_counter() - t0) / 5000
        assert per_frame < 1e-3

    def test_concurrent_publish_and_drain_delivers_exactly_once(self):
        # Runs on happens-before shims when REPRO_SAN=1 (CI race-and-bench job).
        with maybe_sanitized():
            stream = RunStream("t", max_queue=2048)
            sub = stream.subscribe()
            seen = []

            def consume():
                while True:
                    sub.wait(1.0)
                    batch = sub.pop_ready()
                    seen.extend(batch)
                    if any(ev.terminal for ev in batch):
                        return

            consumer = threading.Thread(target=consume)
            consumer.start()
            publish_n(stream, 2000)
            finish_stream(stream, cached=False, runs=["scenario3"])
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
        assert [ev.seq for ev in seen] == list(range(1, 2002))


class TestStreamHub:
    def test_create_and_get(self):
        hub = StreamHub()
        stream = hub.create("tok")
        assert hub.get("tok") is stream
        assert hub.get("nope") is None
        with pytest.raises(ValueError, match="already exists"):
            hub.create("tok")

    def test_finished_streams_evict_lru_active_never(self):
        hub = StreamHub(keep_finished=2)
        live = hub.create("live")
        for i in range(4):
            done = hub.create(f"done{i}")
            finish_stream(done, cached=False, runs=[])
            hub.create(f"pad{i}")  # trigger eviction checks
        assert hub.get("live") is live        # active: never evicted
        assert hub.get("done0") is None       # oldest finished: gone
        assert hub.get("done1") is None
        assert hub.get("done3") is not None   # newest finished: kept

    def test_get_refreshes_lru_order(self):
        # A touched finished feed moves to the back of the eviction
        # queue: resumed clients keep their replay window alive.
        hub = StreamHub(keep_finished=2)
        for i in range(2):
            finish_stream(hub.create(f"done{i}"), cached=False, runs=[])
        assert hub.get("done0") is not None   # refresh: now newest
        finish_stream(hub.create("done2"), cached=False, runs=[])
        hub.create("pad")                     # trigger eviction
        assert hub.get("done1") is None       # stale one went instead
        assert hub.get("done0") is not None
        assert hub.get("done2") is not None

    def test_live_feed_pinned_under_eviction_pressure(self):
        # keep_finished=0 is maximum pressure: every finished feed is
        # dropped at the next create, the live one survives them all.
        hub = StreamHub(keep_finished=0)
        live = hub.create("live")
        publish_n(live, 3)
        for i in range(5):
            finish_stream(hub.create(f"done{i}"), cached=False, runs=[])
            hub.create(f"pad{i}")
            assert hub.get(f"done{i}") is None
        assert hub.get("live") is live
        assert len(live.history()) == 3       # feed intact, not reset
        finish_stream(live, cached=False, runs=["scenario3"])
        hub.create("after")                   # now it is evictable
        assert hub.get("live") is None

    def test_subscriber_attach_races_eviction(self):
        # A subscriber that attached through hub.get() keeps a working
        # handle even when eviction drops the hub's reference while
        # another thread is churning the registry.  Sanitized in CI.
        with maybe_sanitized():
            hub = StreamHub(keep_finished=1)
            feed = hub.create("feed")
            publish_n(feed, 4)
            finish_stream(feed, cached=False, runs=["scenario3"])

            def churn():
                for i in range(16):
                    finish_stream(hub.create(f"churn{i}"),
                                  cached=False, runs=[])

            stream = hub.get("feed")
            sub = stream.subscribe(after=0)
            churner = threading.Thread(target=churn)
            churner.start()
            churner.join(timeout=10.0)
            assert not churner.is_alive()
            assert hub.get("feed") is None    # evicted from the hub...
            events = sub.pop_ready()          # ...but the handle works
        assert [ev.seq for ev in events] == list(range(1, 6))
        assert events[-1].terminal


class TestRunner:
    def test_expected_run_labels(self):
        assert expected_run_labels({"scenario": ACTIVITY}) == list(
            ACTIVITY_RUN_LABELS)
        assert expected_run_labels({"scenario": 3}) == ["scenario3"]

    def test_vector_tasks_are_refused(self):
        with pytest.raises(StreamUnsupported, match="vector"):
            check_streamable({"backend": "vector"})
        check_streamable({"backend": "reference"})  # fine
        check_streamable({})                        # default: reference

    def test_streamed_payload_byte_identical_to_unstreamed(self):
        task = task_for(scenario=3, seed=9)
        stream = RunStream("t")
        streamed = run_streamed_trial(task, stream)
        plain = run_trial(task_for(scenario=3, seed=9))
        canon = lambda p: json.dumps(p, sort_keys=True)  # noqa: E731
        assert canon(streamed) == canon(plain)

    def test_feed_reassembles_to_the_archived_trace(self):
        # The headline invariant, in-process: concatenated event
        # frames == the payload's archived trace, byte for byte.
        task = task_for(scenario=3, seed=11)
        stream = RunStream("t")
        sub = stream.subscribe()
        payload = run_streamed_trial(task, stream)
        finish_stream(stream, cached=False, runs=list(payload["runs"]))
        feed = reassemble_feed(sub.pop_ready())
        assert set(feed) == set(payload["runs"])
        for label, text in feed.items():
            assert text == payload["runs"][label]["trace"]

    def test_replayed_feed_is_frame_identical_to_live(self):
        task = task_for(scenario=3, seed=13)
        live = RunStream("live")
        live_sub = live.subscribe()
        payload = run_streamed_trial(task, live)
        replayed = RunStream("replay")
        replay_sub = replayed.subscribe()
        replay_payload(payload, replayed)
        strip = lambda evs: [(e.kind, e.run, e.time, e.data)  # noqa: E731
                             for e in evs]
        assert strip(replay_sub.pop_ready()) == strip(
            live_sub.pop_ready())

    def test_activity_feed_carries_all_five_runs(self):
        # A whole-activity feed outgrows the default live queue, so
        # this subscriber asks for headroom (a real client would drain
        # concurrently or resume from its cursor instead).
        task = task_for(scenario=0, seed=7)
        stream = RunStream("t", max_queue=65536)
        sub = stream.subscribe()
        payload = run_streamed_trial(task, stream)
        finish_stream(stream, cached=False, runs=list(payload["runs"]))
        frames = []
        while True:
            batch = sub.pop_ready()
            if not batch:
                break
            frames.extend(batch)
        assert sub.dropped == 0
        feed = reassemble_feed(frames)
        assert list(feed) == list(ACTIVITY_RUN_LABELS)
        for label in ACTIVITY_RUN_LABELS:
            assert feed[label] == payload["runs"][label]["trace"]

    def test_fail_stream_ends_with_an_error_frame(self):
        stream = RunStream("t")
        sub = stream.subscribe()
        fail_stream(stream, "ValueError: boom")
        (frame,) = sub.pop_ready()
        assert frame.kind == "error" and frame.terminal
        assert frame.data["message"] == "ValueError: boom"
