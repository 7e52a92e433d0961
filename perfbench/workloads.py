"""One measured window of one workload, in a fresh process.

``perfbench/run.py`` starts this script once per window and reads the
JSON object on the last line of its standard output::

    python3 perfbench/workloads.py --workload serve_warm --seed 1 \\
        --seconds 20 --trace 0 --setups 3 --src src --tmp .perfbench-tmp

The window sets up (``--setups`` times; the last set-up is kept),
measures for ``--seconds``, then re-checks a seeded sample of the
outputs in process.  The serve workloads run the server here, in
process, and their closed-loop clients in one load-generator process
(``perfbench/loadgen.py``), as remote clients would be: client-side
decoding then does not compete with the server for the interpreter
lock.  Every input comes from ``--seed``.  A failed operation or check
is counted, never raised.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import install, layer_metrics
from tracer import Tracer

HERE = pathlib.Path(__file__).resolve().parent

FLAGS = ("poland", "mauritius", "italy", "germany", "japan", "canada")
SCENARIOS = (1, 2, 3, 4)
TEAM_SIZES = (4, 6)
CLIENTS = 2
CLIENT_TIMEOUT_S = 20.0
WARM_SEEDS_PER_CELL = 3       # 6 flags x 4 scenarios x 3 seeds = 72 keys
STORE_ROWS = 128              # real trial payloads in the store at start
STORE_TENANT = "bench"
SWEEP_TRIALS = 128
SAMPLES = 4                   # outputs of each kind re-checked in process
FIXTURE_SEED = 1_000_000_000  # prefill and warm-up seeds; requests stay below


class Tally:
    """Operations and correctness checks attempted, and those failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def check(self, what: str, verify: Callable[[], bool]) -> None:
        """Run one correctness check; a mismatch or an error fails it."""
        with self._lock:
            self.checks += 1
        try:
            passed = verify()
        except Exception as exc:
            self.fail(f"check {what}: {type(exc).__name__}: {exc}")
            return
        if passed:
            self.ok()
        else:
            self.fail(f"check {what}: mismatch")

    def as_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "checks": self.checks, "errors": self.errors}

    def merge(self, other: Dict[str, Any]) -> None:
        with self._lock:
            self.attempted += other["attempted"]
            self.failed += other["failed"]
            self.checks += other["checks"]
            self.errors.extend(other["errors"][:5 - len(self.errors)])


def percentile(values: List[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def warm_keys(seed: int) -> Tuple[List[Dict[str, Any]], List[int]]:
    """serve_warm's fixed key set and the keys whose payloads are checked."""
    import numpy as np
    rng = np.random.default_rng(seed)
    keys = [dict(flag=f, scenario=s, team_size=TEAM_SIZES[k % 2],
                 seed=int(trial_seed))
            for f in FLAGS for s in SCENARIOS
            for k, trial_seed in enumerate(rng.choice(
                FIXTURE_SEED, WARM_SEEDS_PER_CELL, replace=False))]
    sampled = sorted(int(j) for j in
                     rng.choice(len(keys), SAMPLES, replace=False))
    return keys, sampled


def repeated_setup(n: int, make: Callable[[contextlib.ExitStack], Any]
                   ) -> Tuple[Any, List[float], contextlib.ExitStack]:
    """Set up ``n`` times; tear down all but the last.

    Returns the last set-up's state, every set-up's seconds, and the
    stack that tears the last one down.
    """
    times: List[float] = []
    for k in range(n):
        stack = contextlib.ExitStack()
        try:
            t0 = time.perf_counter()
            state = make(stack)
            times.append(time.perf_counter() - t0)
        except BaseException:
            stack.close()
            raise
        if k == n - 1:
            return state, times, stack
        stack.close()
    raise ValueError("need at least one set-up")


def scratch_dir(stack: contextlib.ExitStack, tmp: str) -> str:
    """A fresh directory removed when ``stack`` closes."""
    path = tempfile.mkdtemp(dir=tmp)
    stack.callback(shutil.rmtree, path, ignore_errors=True)
    return path


def load(args, *, port: int, token: Optional[str] = None,
         archive: Optional[str] = None) -> Dict[str, Any]:
    """Drive the server from the load-generator process; its report."""
    cmd = [sys.executable, str(HERE / "loadgen.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--src", args.src, "--port", str(port)]
    if token is not None:
        cmd += ["--token", token]
    if archive is not None:
        cmd += ["--archive", archive]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 6 * CLIENT_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"load generator exited {proc.returncode}")
    return json.loads(lines[-1])


# -- serve_warm ----------------------------------------------------------

def serve_warm(args, tracer: Optional[Tracer], tally: Tally
               ) -> Dict[str, Any]:
    """Cache hits over a closed loop: protocol, pre-flight, cache get,
    response encoding.  Uses only serve API that predates the store."""
    from repro.serve import BackgroundServer, ServeClient, ServeConfig

    keys, _ = warm_keys(args.seed)

    def make(stack):
        scratch = scratch_dir(stack, args.tmp)
        bg = stack.enter_context(BackgroundServer(
            ServeConfig(cache_dir=os.path.join(scratch, "cache"))))
        client = ServeClient("127.0.0.1", bg.port, timeout_s=CLIENT_TIMEOUT_S)
        for key in keys:
            client.run(**key)
        return bg

    bg, setups, stack = repeated_setup(args.setups, make)
    with stack:
        if tracer is not None:
            install(tracer)
        report = load(args, port=bg.port)
        if tracer is not None:
            tracer.uninstall()
    tally.merge(report)
    return window_result(report["run_latency_s"], report["elapsed_s"],
                         setups, tail=95, done=len(report["run_latency_s"]),
                         tracer=tracer, extra_layers=report.get("layers"))


# -- serve_cold ----------------------------------------------------------

def serve_cold(args, tracer: Optional[Tracer], tally: Tally
               ) -> Dict[str, Any]:
    """Every request computes: engine, trace export, store and cache
    writes, behind Bearer auth; half of the requests stream over SSE."""
    from repro.serve import BackgroundServer, ServeClient, ServeConfig
    from repro.serve.protocol import RunRequest
    from repro.store import ResultStore
    from repro.sweep.executor import run_trial

    fixtures = []
    for j in range(STORE_ROWS):
        request = RunRequest(flag=FLAGS[j % 2], scenario=SCENARIOS[j % 4],
                             seed=FIXTURE_SEED + j)
        fixtures.append((request.address(),
                         {"cell": request.cell().key_dict(),
                          "trials": [run_trial(request.task())]}))
    warmup = [dict(flag=f, scenario=4, seed=FIXTURE_SEED - 1 - k)
              for k, f in enumerate(FLAGS[:3])]

    with contextlib.ExitStack() as outer:
        # Each set-up copies one pre-filled store, so set-up time does not
        # swing with the disk's latency for 128 separate commits.
        template = os.path.join(scratch_dir(outer, args.tmp), "store.db")
        with ResultStore(template) as store:
            store.ensure_tenant(STORE_TENANT)
            store.set_quota(STORE_TENANT, max_results=10 ** 9,
                            max_bytes=1 << 50)
            token = store.issue_token(STORE_TENANT)
            for address, doc in fixtures:
                store.put_result(address, doc, tenant=STORE_TENANT)

        def make(stack):
            scratch = scratch_dir(stack, args.tmp)
            store_path = os.path.join(scratch, "store.db")
            cache_dir = os.path.join(scratch, "cache")
            shutil.copyfile(template, store_path)
            bg = stack.enter_context(BackgroundServer(ServeConfig(
                cache_dir=cache_dir, store_path=store_path,
                require_token=True, store_tenant=STORE_TENANT)))
            client = ServeClient("127.0.0.1", bg.port,
                                 timeout_s=CLIENT_TIMEOUT_S, token=token)
            client.run(**warmup[0])
            client.run(**warmup[1])
            reply = client.run(stream=True, **warmup[2])
            list(client.stream(reply["stream"]))
            return bg, cache_dir

        (bg, cache_dir), setups, stack = repeated_setup(args.setups, make)
        with stack:
            if tracer is not None:
                install(tracer)
            report = load(args, port=bg.port, token=token, archive=cache_dir)
            layers = dict(report.get("layers") or {})
            if tracer is not None:
                tracer.uninstall()
                client = ServeClient("127.0.0.1", bg.port,
                                     timeout_s=CLIENT_TIMEOUT_S)
                layers["stream.dropped"] = dropped_frames(client.metrics())
    tally.merge(report)
    return window_result(report["run_latency_s"], report["elapsed_s"],
                         setups, tail=95, done=len(report["run_latency_s"]),
                         tracer=tracer, feeds=report["feed_latency_s"],
                         extra_layers=layers)


def dropped_frames(exposition: str) -> float:
    """``stream_dropped_frames_total`` from a Prometheus text dump."""
    for line in exposition.splitlines():
        if line.startswith("stream_dropped_frames_total"):
            return float(line.split()[-1])
    return 0.0


# -- sweep_vector --------------------------------------------------------

def sweep_vector(args, tracer: Optional[Tracer], tally: Tally
                 ) -> Dict[str, Any]:
    """Whole passes over a 48-cell grid on the vector backend, one
    ``run_sweep`` per cell; serve, cache and store are bypassed."""
    import numpy as np
    import repro.sweep as sweep
    from repro.sweep import SweepSpec
    from repro.sweep.executor import run_trial

    rng = np.random.default_rng(args.seed)
    grid = [(f, s, t) for f in FLAGS for s in SCENARIOS for t in TEAM_SIZES]

    def make(stack):
        sweep.run_sweep(SweepSpec(flags=FLAGS, scenarios=SCENARIOS,
                                  team_sizes=(TEAM_SIZES[0],), n_trials=4,
                                  seed=FIXTURE_SEED),
                        workers=1, backend="vector")

    _, setups, stack = repeated_setup(args.setups, make)
    with stack:
        lat: List[float] = []
        trials = 0
        kept = []
        if tracer is not None:
            install(tracer)
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            check_at = int(rng.integers(len(grid)))
            for pos, g in enumerate(rng.permutation(len(grid))):
                flag, scenario, team = grid[int(g)]
                spec = SweepSpec(flags=(flag,), scenarios=(scenario,),
                                 team_sizes=(team,), n_trials=SWEEP_TRIALS,
                                 seed=int(rng.integers(2 ** 31)))
                pick = int(rng.integers(SWEEP_TRIALS))
                t0 = time.perf_counter()
                try:
                    result = sweep.run_sweep(spec, workers=1,
                                             backend="vector")
                except Exception as exc:
                    tally.fail(f"sweep {grid[int(g)]}: "
                               f"{type(exc).__name__}: {exc}")
                    continue
                lat.append(time.perf_counter() - t0)
                if result.computed_trials != SWEEP_TRIALS:
                    tally.fail(f"sweep {grid[int(g)]}: computed "
                               f"{result.computed_trials} trials")
                    continue
                trials += result.computed_trials
                tally.ok()
                if pos == check_at and len(kept) < SAMPLES:
                    kept.append((spec, result.cells[0], pick))
            if time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

        for spec, cell_result, t in kept:
            def same_metrics(spec=spec, cell_result=cell_result, t=t):
                cell = cell_result.cell
                reference = run_trial({
                    "cell": cell.key_dict(), "cell_key": cell.key(),
                    "seed": spec.seed, "n_trials": spec.n_trials,
                    "trial": t, "observe": False})
                vector = cell_result.trials[t].runs
                return list(vector) == list(reference["runs"]) and all(
                    run_metrics(vector[label]) == run_metrics(ref)
                    for label, ref in reference["runs"].items())
            tally.check(f"cell {cell_result.cell.describe()} trial {t}",
                        same_metrics)
    return window_result(lat, elapsed, setups, tail=90, done=trials,
                         tracer=tracer)


def run_metrics(run: Any) -> Tuple:
    """A run's metrics, floats as exact hex, from a record or payload."""
    get = run.get if isinstance(run, dict) else \
        (lambda name: getattr(run, name))
    return (get("label"), get("strategy"), int(get("n_workers")),
            float(get("true_makespan")).hex(),
            float(get("measured_time")).hex(), bool(get("correct")))


# -- reporting -----------------------------------------------------------

def window_result(latencies: List[float], elapsed: float,
                  setups: List[float], *, tail: int, done: int,
                  tracer: Optional[Tracer],
                  feeds: Optional[List[float]] = None,
                  extra_layers: Optional[Dict[str, float]] = None
                  ) -> Dict[str, Any]:
    """The window's measurements; the caller adds the tally.

    ``done`` counts the workload's unit of work completed in
    ``elapsed``: buffered ``/run`` replies, or sweep trials.
    """
    import numpy as np
    out: Dict[str, Any] = {
        "throughput_per_s": done / elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "setup_s": statistics.median(setups),
        "numpy": np.__version__,
    }
    if feeds is not None:
        out["feed_p50_ms"] = percentile(feeds, 50) * 1e3
        out["feed_p95_ms"] = percentile(feeds, 95) * 1e3
        out["feed_samples"] = len(feeds)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, latencies)
        out["layers"].update(extra_layers or {})
        out["patched"] = tracer.installed
    return out


WORKLOADS = {"serve_warm": serve_warm, "serve_cold": serve_cold,
             "sweep_vector": sweep_vector}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    tracer = Tracer() if args.trace else None
    tally = Tally()
    out = WORKLOADS[args.workload](args, tracer, tally)
    out.update(tally.as_dict())
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
