"""End-to-end tests for repro.serve — a live server on a thread.

Covers the serving acceptance criteria: determinism (a served trial is
byte-identical to the in-process one — cold, concurrent, or cached),
backpressure (429 + Retry-After at capacity), deadlines (504), the
structured protocol error paths, metrics exposure, graceful drain, and
the compute executor (buffered and streamed trials at ``workers=0``
run one at a time).  Tests that need a trial in flight hold it on a
``threading.Event`` gate around ``run_trial``, never on a sleep.
"""

import asyncio
import concurrent.futures
import http.client
import json
import shutil
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    BackgroundServer,
    PROTOCOL_VERSION,
    ServeConfig,
    ServeError,
)
from repro.sweep import ResultCache, SweepSpec, TrialRecord, run_sweep
from repro.sweep.executor import run_trial
import repro.sweep.executor as executor_module
from repro.serve.admission import AdmissionQueue
from repro.serve.handlers import ServeHandlers
from repro.serve.protocol import RunRequest
from repro.stream import reassemble_feed


def canon(obj):
    """Canonical JSON for byte-identity comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server (with cache) shared across this module."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    config = ServeConfig(cache_dir=str(cache_dir))
    with BackgroundServer(config) as bg:
        yield bg


class GatedTrial:
    """A ``run_trial`` stand-in that holds each call until released.

    Every call records its thread and the number of calls running at
    once, sets ``entered``, waits for ``release``, then computes the
    real trial.  ``fail_next`` makes the next call raise instead.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail_next = False
        self.peak = 0
        self.threads = set()
        self._running = 0
        self._lock = threading.Lock()

    def __call__(self, task):
        with self._lock:
            self._running += 1
            self.peak = max(self.peak, self._running)
            self.threads.add(threading.get_ident())
            fail, self.fail_next = self.fail_next, False
        try:
            self.entered.set()
            assert self.release.wait(timeout=30), "gate never released"
            if fail:
                raise RuntimeError("engine blew up")
            return run_trial(task)
        finally:
            with self._lock:
                self._running -= 1


@pytest.fixture
def gate(monkeypatch):
    """Route the server's buffered trials through a :class:`GatedTrial`."""
    gated = GatedTrial()
    monkeypatch.setattr(executor_module, "run_trial", gated)
    yield gated
    gated.release.set()  # never leave a compute thread parked


def wait_until(predicate, what, timeout=10.0):
    """Poll ``predicate`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


class TestEndpoints:
    def test_healthz(self, server):
        health = server.client().healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["queue_depth"] == 0

    def test_flags_lists_catalog(self, server):
        flags = server.client().flags()["flags"]
        assert "mauritius" in flags and "jordan" in flags
        assert flags["mauritius"]["rows"] > 0
        assert isinstance(flags["great_britain"]["layered"], bool)

    def test_metrics_exposition(self, server):
        server.client().run(flag="poland", scenario=3, seed=1)
        text = server.client().metrics()
        for series in ("serve_queue_depth",
                       "serve_cache_hit_ratio", "serve_cache_hits_total",
                       "serve_request_latency_seconds_bucket",
                       "serve_requests_total"):
            assert series in text, series

    def test_sweep_endpoint(self, server):
        reply = server.client().sweep(flags=["poland"], scenarios=[3],
                                      n_trials=2, seed=123)
        assert reply["computed_trials"] == 2
        assert reply["all_correct"] is True
        assert reply["columns"][0] == "cell"
        warm = server.client().sweep(flags=["poland"], scenarios=[3],
                                     n_trials=2, seed=123)
        assert warm["computed_trials"] == 0
        assert warm["cached_trials"] == 2


class TestRunDeterminism:
    def test_cold_run_byte_identical_to_in_process(self, server):
        body = {"flag": "poland", "scenario": 4, "seed": 21}
        reply = server.client().run(**body)
        assert reply["cached"] is False
        in_process = run_trial(RunRequest.from_body(body).task())
        assert canon(reply["trial"]) == canon(in_process)

    def test_warm_repeat_is_cache_hit_with_identical_bytes(self, server):
        body = {"flag": "mauritius", "scenario": 3, "seed": 22}
        cold = server.client().run(**body)
        warm = server.client().run(**body)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canon(cold["trial"]) == canon(warm["trial"])

    def test_served_trial_equals_run_sweep_records(self, server):
        reply = server.client().run(flag="poland", scenario=3, seed=23)
        spec = SweepSpec(flags=("poland",), scenarios=(3,),
                         n_trials=1, seed=23)
        expected = run_sweep(spec).cells[0].trials[0]
        assert TrialRecord.from_payload(reply["trial"]) == expected

    def test_concurrent_requests_identical_to_solo_runs(self):
        """Trials requested at the same time match in-process runs."""
        with BackgroundServer() as bg:
            replies = {}

            def issue(seed):
                replies[seed] = bg.client().run(flag="poland",
                                                scenario=3, seed=seed)

            threads = [threading.Thread(target=issue, args=(seed,))
                       for seed in (31, 32)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for seed, reply in replies.items():
                solo = run_trial(RunRequest.from_body(
                    {"flag": "poland", "scenario": 3,
                     "seed": seed}).task())
                assert canon(reply["trial"]) == canon(solo)

    def test_server_cache_interoperates_with_sweep_cache(self, tmp_path):
        """run_sweep warms the cache; the server reads the entry back."""
        spec = SweepSpec(flags=("poland",), scenarios=(3,),
                         n_trials=1, seed=41)
        cache = ResultCache(tmp_path / "shared")
        run_sweep(spec, cache=cache)
        config = ServeConfig(cache_dir=str(tmp_path / "shared"))
        with BackgroundServer(config) as bg:
            reply = bg.client().run(flag="poland", scenario=3, seed=41)
        assert reply["cached"] is True


class TestBackpressure:
    def test_429_with_retry_after_when_queue_full(self, gate):
        config = ServeConfig(max_pending=1, retry_after_s=2.0)
        with BackgroundServer(config) as bg:
            outcome = {}

            def occupant():
                outcome["first"] = bg.client().run(
                    flag="mauritius", scenario=1, seed=91,
                    rows=24, cols=36)

            t = threading.Thread(target=occupant)
            t.start()
            try:
                # The occupant holds the only slot while its trial is
                # parked on the gate.
                assert gate.entered.wait(10.0)
                with pytest.raises(ServeError) as err:
                    bg.client().run(flag="poland", scenario=3, seed=92)
            finally:
                gate.release.set()
                t.join()
            assert err.value.status == 429
            assert err.value.code == "too_many_requests"
            assert err.value.retry_after == 2.0
            assert "runs" in outcome["first"]["trial"]  # occupant finished
            metrics = bg.client().metrics()
            assert "serve_admission_rejects_total 1" in metrics

    def test_healthz_still_answers_under_load(self, gate):
        # The occupant's trial blocks until released, so it holds the
        # only admission slot for as long as the test needs it.
        config = ServeConfig(max_pending=1)
        with BackgroundServer(config) as bg:
            t = threading.Thread(
                target=lambda: bg.client().run(flag="poland",
                                               scenario=3, seed=93))
            t.start()
            try:
                assert gate.entered.wait(10.0), \
                    "the occupant never reached its trial"
                health = bg.client().healthz()  # bypasses admission
            finally:
                gate.release.set()
                t.join()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 1


class SubmitSpy:
    """Wraps an executor and counts the tasks submitted to it."""

    def __init__(self, inner, *, expect):
        self.inner = inner
        self.submitted = 0
        self.all_submitted = threading.Event()
        self._expect = expect
        self._lock = threading.Lock()

    def submit(self, fn, *args):
        future = self.inner.submit(fn, *args)
        with self._lock:
            self.submitted += 1
            if self.submitted >= self._expect:
                self.all_submitted.set()
        return future


class TestComputeExecutor:
    def test_buffered_trials_run_one_at_a_time(self, monkeypatch):
        # The first trial parks until the second has been handed to the
        # executor.  A pool with a spare thread would start the second
        # on that thread at once; one compute thread must queue it.
        gated = GatedTrial()
        monkeypatch.setattr(executor_module, "run_trial", gated)
        with BackgroundServer() as bg:
            spy = SubmitSpy(bg.server.handlers.executor, expect=2)
            bg.server.handlers.executor = spy
            replies = {}

            def issue(seed):
                replies[seed] = bg.client().run(flag="poland",
                                                scenario=3, seed=seed)

            threads = [threading.Thread(target=issue, args=(seed,))
                       for seed in (61, 62)]
            for t in threads:
                t.start()
            try:
                assert spy.all_submitted.wait(10.0)
                assert gated.entered.wait(10.0)
            finally:
                gated.release.set()
                for t in threads:
                    t.join()
        assert gated.peak == 1
        assert len(gated.threads) == 1
        assert sorted(replies) == [61, 62]
        assert all("runs" in r["trial"] for r in replies.values())

    def test_failed_trial_is_structured_500_and_frees_its_slot(self, gate):
        gate.fail_next = True
        gate.release.set()
        with BackgroundServer(ServeConfig(max_pending=1)) as bg:
            with pytest.raises(ServeError) as err:
                bg.client().run(flag="poland", scenario=3, seed=95)
            assert err.value.status == 500
            assert err.value.code == "internal"
            assert "engine blew up" in str(err.value)
            assert "Traceback" not in str(err.value)
            assert bg.server.admission.depth == 0
            reply = bg.client().run(flag="poland", scenario=3, seed=95)
        assert reply["cached"] is False
        assert "runs" in reply["trial"]

    def test_drain_waits_for_an_inflight_buffered_run(self, gate):
        bg = BackgroundServer().__enter__()
        outcome = {}

        def occupant():
            outcome["reply"] = bg.client().run(flag="poland", scenario=3,
                                               seed=96)

        t = threading.Thread(target=occupant)
        t.start()
        assert gate.entered.wait(10.0)
        drain = threading.Thread(target=bg.__exit__,
                                 args=(None, None, None))
        drain.start()
        try:
            # Read the listener's state rather than probe it: a connect
            # racing the close can be accepted after the server is shut.
            wait_until(lambda: not bg.server._server.is_serving(),
                       "the drain never closed the listener")
            assert t.is_alive() and drain.is_alive()
        finally:
            gate.release.set()
            t.join(timeout=15.0)
            drain.join(timeout=15.0)
        assert not drain.is_alive()
        assert outcome["reply"]["cached"] is False
        assert "runs" in outcome["reply"]["trial"]

    def test_process_pool_trials_identical_to_in_process(self):
        # workers > 0 computes buffered /run and /task trials on the
        # process pool; the bytes must not depend on where they ran.
        body = {"flag": "poland", "scenario": 3, "seed": 97}
        task = RunRequest.from_body(body).task()
        with BackgroundServer(ServeConfig(workers=1)) as bg:
            run = bg.client().run(**body)
            served_task = bg.client().task(task["cell"], seed=97,
                                           n_trials=1, trial=0)
        assert run["cached"] is False
        assert canon(run["trial"]) == canon(run_trial(task))
        assert canon(served_task["trial"]) == canon(run_trial(task))



class TestStreamedRouting:
    """A streamed miss computes on the compute executor, like a buffered
    one; a streamed hit only replays its stored payload."""

    def test_streamed_and_buffered_trials_share_the_compute_thread(
            self, tmp_path, gate):
        streamed = {"flag": "poland", "scenario": 3, "seed": 66,
                    "stream": True}
        buffered = {"flag": "poland", "scenario": 3, "seed": 67}

        async def drive(handlers, spy):
            loop = asyncio.get_running_loop()

            def wait(event):
                return loop.run_in_executor(None, event.wait, 10.0)

            async def post(body):
                return await handlers.dispatch(
                    "POST", "/run", json.dumps(body).encode())

            async def feed(token):
                await asyncio.gather(*list(handlers._drives))
                return handlers.hub.get(token).history()

            status, cold, _ = await post(streamed)
            assert (status, cold["cached"]) == (200, False)
            # The streamed trial holds the one compute thread at the gate.
            assert await wait(gate.entered)
            assert spy.submitted == 1
            second = loop.create_task(post(buffered))
            assert await wait(spy.all_submitted)
            gate.release.set()
            status, reply, _ = await second
            assert (status, reply["cached"]) == (200, False)
            cold_feed = await feed(cold["stream"])

            status, warm, _ = await post(streamed)
            assert (status, warm["cached"]) == (200, True)
            warm_feed = await feed(warm["stream"])
            assert spy.submitted == 2  # the hit submitted nothing
            return cold_feed, warm_feed

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            spy = SubmitSpy(pool, expect=2)
            handlers = ServeHandlers(
                executor=spy, admission=AdmissionQueue(4),
                registry=MetricsRegistry(),
                cache=ResultCache(tmp_path / "cache"))
            cold_feed, warm_feed = asyncio.run(drive(handlers, spy))
        # The buffered miss queued behind the streamed one: never two
        # trials at once, all on one thread.
        assert gate.peak == 1
        assert len(gate.threads) == 1
        assert cold_feed[-1].data["cached"] is False
        assert warm_feed[-1].data["cached"] is True
        archived = run_trial(RunRequest.from_body(
            {"flag": "poland", "scenario": 3, "seed": 66}).task())
        for frames in (cold_feed, warm_feed):
            assert frames[-1].kind == "end"
            assert reassemble_feed(frames) == {
                "scenario3": archived["runs"]["scenario3"]["trace"]}


class TestDeadlines:
    def test_504_when_deadline_passes(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="mauritius", scenario=1, seed=94,
                                rows=24, cols=36, timeout_s=0.0005)
        assert err.value.status == 504
        assert err.value.code == "deadline_exceeded"
        metrics = server.client().metrics()
        assert "serve_deadline_timeouts_total" in metrics


class TestProtocolErrorPaths:
    """Every client mistake maps to a typed JSON error — never a 500."""

    def _raw_post(self, server, path, body, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_malformed_json_is_400(self, server):
        status, body = self._raw_post(server, "/run", b"{not json")
        assert status == 400
        assert body["error"]["code"] == "bad_json"
        assert "Traceback" not in body["error"]["message"]

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.client()._json("GET", "/simulate")
        assert err.value.status == 404
        assert err.value.code == "unknown_endpoint"

    def test_wrong_method_is_405(self, server):
        with pytest.raises(ServeError) as err:
            server.client()._json("GET", "/run")
        assert err.value.status == 405
        assert err.value.code == "method_not_allowed"

    def test_flag_not_in_catalog_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="atlantis")
        assert err.value.status == 404
        assert err.value.code == "flag_not_found"
        assert "mauritius" in str(err.value)  # lists the catalog

    def test_sweep_with_unknown_flag_is_404(self, server):
        with pytest.raises(ServeError) as err:
            server.client().sweep(flags=["atlantis"])
        assert err.value.code == "flag_not_found"

    def test_oversized_payload_is_413(self):
        config = ServeConfig(max_body_bytes=256)
        with BackgroundServer(config) as bg:
            status, body = TestProtocolErrorPaths._raw_post(
                self, bg, "/run", b"x" * 1000)
            assert status == 413
            assert body["error"]["code"] == "payload_too_large"

    def test_post_without_length_is_411(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/run", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 411
        assert body["error"]["code"] == "length_required"

    def test_unknown_field_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="mauritius", banana=1)
        assert err.value.status == 400
        assert err.value.code == "unknown_field"

    def test_wrong_protocol_version_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.client()._json("POST", "/run",
                                  {"flag": "mauritius", "protocol": 99})
        assert err.value.code == "unsupported_protocol"


class TestLifecycle:
    def test_graceful_drain_closes_the_socket(self):
        with BackgroundServer() as bg:
            port = bg.port
            assert bg.client().healthz()["status"] == "ok"
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=2)
            conn.request("GET", "/healthz")
            conn.getresponse()

    def test_external_registry_sees_server_metrics(self):
        registry = MetricsRegistry()
        with BackgroundServer(registry=registry) as bg:
            bg.client().healthz()
        assert registry.counter("serve_requests_total").value(
            endpoint="/healthz", status="200") == 1


class TestCacheDirectory:
    """The cache directory is expendable while a server runs, and every
    entry format it has ever held serves the same bytes."""

    BODY = {"protocol": PROTOCOL_VERSION, "flag": "mauritius",
            "scenario": 3, "seed": 41}

    def test_cold_run_after_cache_dir_deleted(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with BackgroundServer(ServeConfig(cache_dir=str(cache_dir))) as bg:
            shutil.rmtree(cache_dir)
            cold = bg.client().run(flag="mauritius", scenario=3, seed=42)
            warm = bg.client().run(flag="mauritius", scenario=3, seed=42)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canon(cold["trial"]) == canon(warm["trial"])

    def test_old_format_entry_serves_identical_bytes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with BackgroundServer(ServeConfig(cache_dir=str(cache_dir))) as bg:
            status, _, _ = bg.client().request("POST", "/run", self.BODY)
            assert status == 200
            [entry] = cache_dir.glob("*.json")
            status, _, fresh = bg.client().request("POST", "/run",
                                                   self.BODY)
            payload = json.loads(entry.read_bytes())
            with open(entry, "w") as fp:
                json.dump(payload, fp, sort_keys=True)
            assert b", " in entry.read_bytes()  # the old spaced form
            status, _, old = bg.client().request("POST", "/run", self.BODY)
        assert status == 200
        assert json.loads(old)["cached"] is True
        assert old == fresh
