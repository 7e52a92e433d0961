"""End-to-end tests for live streaming over repro.serve (SSE).

The headline invariant, pinned here at the HTTP boundary: the
concatenated streamed feed of a seeded run is **byte-identical** to
the archived event log of that same run — cold, cache-hit-replayed,
or resumed from a mid-feed disconnect at an arbitrary cursor.  Plus
the protocol edges: 422 for backends with nothing to stream, 404 for
unknown tokens, heartbeat comments on idle feeds, counted drops for
slow subscribers, and graceful drain delivering a terminal frame to
every attached subscriber.
"""

import http.client
import socket
import threading
import urllib.parse

import pytest

from repro.serve import BackgroundServer, ServeConfig, ServeError
from repro.serve.protocol import RunRequest
from repro.stream import (
    StreamEvent,
    decode_sse_lines,
    feed_makespans,
    reassemble_feed,
)
from repro.sweep.executor import run_trial


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live streaming-enabled server shared across this module."""
    cache_dir = tmp_path_factory.mktemp("stream-cache")
    config = ServeConfig(cache_dir=str(cache_dir), batch_window_s=0.005)
    with BackgroundServer(config) as bg:
        yield bg


def archived_runs(body):
    """The in-process archived event logs for a request body."""
    payload = run_trial(RunRequest.from_body(dict(body)).task())
    return {label: run["trace"] for label, run in payload["runs"].items()}


def raw_sse(server, token, *, after=None, max_bytes=65536, timeout=5.0):
    """One raw SSE connection's bytes (headers checked, body returned)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=timeout)
    try:
        headers = {"Accept": "text/event-stream"}
        if after is not None:
            headers["Last-Event-ID"] = str(after)
        conn.request("GET", "/stream?" + urllib.parse.urlencode(
            {"run": token}), headers=headers)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        chunks = []
        total = 0
        while total < max_bytes:
            chunk = response.read1(4096)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
        return b"".join(chunks)
    finally:
        conn.close()


class TestStreamedRun:
    BODY = {"flag": "poland", "scenario": 3, "seed": 61}

    def test_cold_stream_byte_identical_to_archive(self, server):
        client = server.client()
        reply = client.run(stream=True, **self.BODY)
        assert reply["cached"] is False
        assert reply["runs"] == ["scenario3"]
        frames = list(client.stream(reply["stream"]))
        assert frames[-1].kind == "end"
        assert frames[-1].data["status"] == "ok"
        assert reassemble_feed(frames) == archived_runs(self.BODY)

    def test_warm_stream_replays_identical_event_frames(self, server):
        client = server.client()
        cold = client.run(stream=True, flag="poland", scenario=3,
                          seed=62)
        cold_frames = list(client.stream(cold["stream"]))
        warm = client.run(stream=True, flag="poland", scenario=3,
                          seed=62)
        assert warm["cached"] is True
        warm_frames = list(client.stream(warm["stream"]))
        strip = lambda evs: [(e.kind, e.run, e.time, e.data)  # noqa: E731
                             for e in evs if e.kind == "event"]
        assert strip(warm_frames) == strip(cold_frames)
        assert warm_frames[-1].data["cached"] is True
        assert reassemble_feed(warm_frames) == archived_runs(
            {"flag": "poland", "scenario": 3, "seed": 62})

    def test_resume_from_mid_feed_disconnect(self, server):
        # Read part of the feed, drop the connection at an arbitrary
        # cursor, reconnect with Last-Event-ID — the stitched feed
        # must still be byte-identical to the archive.
        body = {"flag": "poland", "scenario": 4, "seed": 63}
        client = server.client()
        reply = client.run(stream=True, **body)
        head = []
        for event in client.stream(reply["stream"]):
            head.append(event)
            if len(head) == 137:  # an arbitrary mid-run cursor
                break
        cursor = head[-1].seq
        tail = list(client.stream(reply["stream"], after=cursor))
        assert tail[0].seq == cursor + 1   # no gap, no overlap
        assert tail[-1].terminal
        assert reassemble_feed(head + tail) == archived_runs(body)

    def test_resume_replays_overlap_and_client_dedupes(self, server):
        body = {"flag": "poland", "scenario": 3, "seed": 64}
        client = server.client()
        reply = client.run(stream=True, **body)
        full = list(client.stream(reply["stream"]))
        # Raw reconnect from an earlier cursor replays frames with
        # their original seq; reassembly dedupes on it.
        raw = raw_sse(server, reply["stream"], after=5,
                      max_bytes=1 << 22)
        replayed = list(decode_sse_lines(
            raw.decode("utf-8").split("\n")))
        assert replayed[0].seq == 6
        assert reassemble_feed(full + replayed) == archived_runs(body)

    def test_whole_activity_streams_all_five_runs(self, server):
        body = {"flag": "mauritius", "scenario": 0, "seed": 65}
        client = server.client()
        reply = client.run(stream=True, **body)
        assert reply["runs"] == ["scenario1", "scenario1_repeat",
                                 "scenario2", "scenario3", "scenario4"]
        frames = list(client.stream(reply["stream"]))
        feed = reassemble_feed(frames)
        assert feed == archived_runs(body)
        makespans = feed_makespans(frames)
        assert set(makespans) == set(reply["runs"])
        assert makespans["scenario3"] < makespans["scenario1"]

    def test_streamed_run_still_persists_to_the_cache(self, server):
        body = {"flag": "poland", "scenario": 3, "seed": 66}
        client = server.client()
        reply = client.run(stream=True, **body)
        list(client.stream(reply["stream"]))
        plain = client.run(**body)
        assert plain["cached"] is True
        assert {label: run["trace"]
                for label, run in plain["trial"]["runs"].items()
                } == archived_runs(body)


class TestStreamProtocolEdges:
    def test_explicit_vector_backend_is_422_stream_unsupported(
            self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="poland", scenario=3, seed=67,
                                stream=True, backend="vector")
        assert (err.value.status, err.value.code) == (
            422, "stream_unsupported")

    def test_unknown_token_is_404_stream_not_found(self, server):
        with pytest.raises(ServeError) as err:
            list(server.client().stream("feedcafe" * 4))
        assert (err.value.status, err.value.code) == (
            404, "stream_not_found")

    def test_missing_run_param_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=5.0)
        try:
            conn.request("GET", "/stream")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_bad_cursor_is_400(self, server):
        reply = server.client().run(flag="poland", scenario=3, seed=68,
                                    stream=True)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=5.0)
        try:
            conn.request("GET", "/stream?" + urllib.parse.urlencode(
                {"run": reply["stream"], "after": "minus-one"}))
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_stream_metrics_are_exposed(self, server):
        server.client().run(flag="poland", scenario=3, seed=69,
                            stream=True)
        text = server.client().metrics()
        assert "serve_streams_total" in text
        assert "stream_frames_published_total" in text


class TestHeartbeatAndDrain:
    def test_idle_feed_carries_keepalive_comments(self, tmp_path):
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             stream_heartbeat_s=0.05)
        with BackgroundServer(config) as bg:
            # A hub stream nothing publishes into: the SSE writer has
            # only heartbeats to send.
            bg.server.handlers.hub.create("idletok")
            raw = raw_sse(bg, "idletok", max_bytes=64, timeout=5.0)
            assert b": keepalive" in raw

    def test_drain_with_inflight_stream_delivers_terminal_end(
            self, tmp_path):
        # Satellite guarantee: shutdown mid-run waits for streamed
        # compute, and the attached subscriber's feed still closes
        # with its terminal frame.
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             batch_window_s=0.005)
        frames = []
        attached = threading.Event()
        with BackgroundServer(config) as bg:
            client = bg.client()
            reply = client.run(flag="mauritius", scenario=0, seed=70,
                               stream=True)

            def collect():
                for event in client.stream(reply["stream"]):
                    frames.append(event)
                    attached.set()

            collector = threading.Thread(target=collect)
            collector.start()
            assert attached.wait(10.0)
            # Exit the context (SIGTERM-equivalent drain) while the
            # activity run is still streaming.
        collector.join(timeout=15.0)
        assert not collector.is_alive()
        assert frames[-1].kind == "end"
        assert reassemble_feed(frames) == archived_runs(
            {"flag": "mauritius", "scenario": 0, "seed": 70})

    def test_drain_sends_bye_on_a_feed_that_never_ends(self, tmp_path):
        # Defense in depth: a subscriber on a feed with no terminal
        # frame is released with a synthetic contiguous `bye`.
        config = ServeConfig(cache_dir=str(tmp_path / "cache"))
        got = {}

        with BackgroundServer(config) as bg:
            stream = bg.server.handlers.hub.create("forevertok")
            stream.publish("run_start", run="scenario3", time=0.0)

            def read():
                raw = raw_sse(bg, "forevertok", max_bytes=1 << 16,
                              timeout=10.0)
                got["frames"] = list(decode_sse_lines(
                    raw.decode("utf-8").split("\n")))

            reader = threading.Thread(target=read)
            reader.start()
            # Give the SSE writer a beat to attach before draining.
            import time
            for _ in range(100):
                if stream.subscriber_count:
                    break
                time.sleep(0.01)
        reader.join(timeout=15.0)
        assert not reader.is_alive()
        kinds = [f.kind for f in got["frames"]]
        assert kinds == ["run_start", "bye"]
        assert got["frames"][1].seq == got["frames"][0].seq + 1


class TestSigtermDrain:
    def test_sigterm_with_attached_subscriber_exits_0(self, tmp_path):
        """A real SIGTERM mid-stream: the feed ends with a terminal
        frame, the server drains, and the process exits 0."""
        import os
        import pathlib
        import re
        import signal
        import subprocess
        import sys as _sys

        from repro.serve.client import ServeClient

        repo = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd=repo)
        frames = []
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, line
            client = ServeClient(match.group(1), int(match.group(2)))
            reply = client.run(flag="mauritius", scenario=0, seed=81,
                               stream=True)
            attached = threading.Event()

            def collect():
                for event in client.stream(reply["stream"]):
                    frames.append(event)
                    attached.set()

            collector = threading.Thread(target=collect)
            collector.start()
            assert attached.wait(10.0)
            proc.send_signal(signal.SIGTERM)
            out = proc.communicate(timeout=30)[0]
            collector.join(timeout=15.0)
            assert not collector.is_alive()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "SIGTERM received" in out
        assert "drained, bye" in out
        assert "Traceback" not in out
        assert frames and frames[-1].terminal
        assert frames[-1].kind == "end"  # compute drained, not cut
        assert reassemble_feed(frames) == archived_runs(
            {"flag": "mauritius", "scenario": 0, "seed": 81})


class TestSlowSubscriber:
    def test_slow_subscriber_drops_are_counted_not_blocking(
            self, tmp_path):
        # A tiny per-subscriber queue plus a reader that never drains:
        # the run must still finish promptly (publish never blocks)
        # and the drops must be surfaced on /metrics.
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             stream_queue=16, batch_window_s=0.005)
        with BackgroundServer(config) as bg:
            # The raw socket below may never fill: the kernel's socket
            # buffers can swallow a whole feed.  A bus subscription that
            # attaches when the feed is created and never drains sees
            # every frame live, so its queue overflows on any host.
            hub = bg.server.handlers.hub
            create = hub.create
            never_drained = []

            def create_with_stuck_subscriber(token):
                stream = create(token)
                never_drained.append(stream.subscribe())
                return stream

            hub.create = create_with_stuck_subscriber
            client = bg.client()
            reply = client.run(flag="poland", scenario=0, seed=71,
                               stream=True)
            # Attach a raw socket subscriber that reads nothing.
            stuck = socket.create_connection(
                ("127.0.0.1", bg.port), timeout=10.0)
            stuck.sendall(
                b"GET /stream?run=" + reply["stream"].encode()
                + b" HTTP/1.1\r\nHost: x\r\n\r\n")
            # A healthy client still gets the complete feed by
            # resuming from its cursor when it falls behind.
            frames = list(client.stream(reply["stream"]))
            assert frames[-1].kind == "end"
            assert reassemble_feed(frames) == archived_runs(
                {"flag": "poland", "scenario": 0, "seed": 71})
            text = client.metrics()
            stuck.close()
        dropped = [line for line in text.splitlines()
                   if line.startswith("stream_dropped_frames_total ")]
        assert dropped and float(dropped[0].split()[1]) > 0


class TestStreamedAdmission:
    def test_streamed_compute_holds_an_admission_slot(self, tmp_path):
        # max_queue=1: with a streamed run in flight, a second request
        # must bounce with 429 until the drive task releases the slot.
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             max_pending=1, batch_window_s=0.005)
        with BackgroundServer(config) as bg:
            # Hold the streamed compute at its first publish until the
            # second request has been answered, so the slot is still
            # taken however fast the host runs the trial.
            hub = bg.server.handlers.hub
            create = hub.create
            gate = threading.Event()

            def create_gated(token):
                stream = create(token)
                publish = stream.publish

                def gated_publish(*args, **kwargs):
                    gate.wait(10.0)
                    return publish(*args, **kwargs)

                stream.publish = gated_publish
                return stream

            hub.create = create_gated
            client = bg.client()
            reply = client.run(flag="mauritius", scenario=0, seed=72,
                               stream=True)
            saw_429 = False
            try:
                client.run(flag="poland", scenario=3, seed=73)
            except ServeError as err:
                saw_429 = err.status == 429
            finally:
                gate.set()
            frames = list(client.stream(reply["stream"]))
            assert frames[-1].kind == "end"
            # The slot frees once the feed ends; now the request fits.
            after = client.run(flag="poland", scenario=3, seed=73)
            assert "scenario3" in after["trial"]["runs"]
        assert saw_429
