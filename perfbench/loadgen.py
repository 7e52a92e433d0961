"""The closed-loop clients of the serve workloads, in their own process.

``perfbench/workloads.py`` starts this once per serve window, against
the server it runs in process, and reads the JSON report on the last
line of standard output: client-side latencies, the tally, and the
outcome of the correctness checks made here after the window.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

from layers import install_client
from tracer import Tracer, mean
from workloads import (CLIENT_TIMEOUT_S, CLIENTS, FIXTURE_SEED, FLAGS,
                       SAMPLES, SCENARIOS, TEAM_SIZES, Tally, warm_keys)


def canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def closed_loop(seconds: float, op: Callable[[int, int], None]) -> float:
    """Run ``op(client, i)`` from each client until the window ends.

    Each client sends its next request only after the previous one
    completed.  Returns the seconds from the start to the last
    completion.
    """
    start = time.perf_counter()
    deadline = start + seconds
    ends = [start] * CLIENTS

    def client(c: int) -> None:
        i = 0
        while time.perf_counter() < deadline:
            op(c, i)
            i += 1
        ends[c] = time.perf_counter()

    threads = [threading.Thread(target=client, args=(c,), daemon=True,
                                name=f"perfbench-client{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 4 * CLIENT_TIMEOUT_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client did not finish within its timeouts")
    return max(ends) - start


def shuffled_cycle(items: List[Any], rng) -> Iterator[Any]:
    """Every item once per cycle, in a fresh seeded order each cycle.

    Any window then sees nearly the same mix, whatever the seed.
    """
    while True:
        for k in rng.permutation(len(items)):
            yield items[int(k)]


def client_rngs(seed: int):
    import numpy as np
    return [np.random.default_rng([seed, c]) for c in range(CLIENTS)]


def serve_warm(args, tally: Tally) -> Dict[str, Any]:
    """Cycle over the pre-filled keys; every reply must be a cache hit."""
    from repro.serve import ServeClient
    from repro.serve.protocol import RunRequest
    from repro.sweep.executor import run_trial

    keys, sampled = warm_keys(args.seed)
    clients = [ServeClient("127.0.0.1", args.port, timeout_s=CLIENT_TIMEOUT_S)
               for _ in range(CLIENTS)]
    mix = [shuffled_cycle(list(range(len(keys))), r)
           for r in client_rngs(args.seed)]
    lat: List[List[float]] = [[] for _ in range(CLIENTS)]
    kept: Dict[int, Dict[str, Any]] = {}

    def op(c: int, i: int) -> None:
        j = next(mix[c])
        t0 = time.perf_counter()
        try:
            reply = clients[c].run(**keys[j])
        except Exception as exc:
            tally.fail(f"/run {keys[j]}: {type(exc).__name__}: {exc}")
            return
        lat[c].append(time.perf_counter() - t0)
        if reply.get("cached") is not True:
            tally.fail(f"/run {keys[j]}: served uncached")
            return
        tally.ok()
        if j in sampled:
            kept.setdefault(j, reply["trial"])

    elapsed = closed_loop(args.seconds, op)
    for j, trial in sorted(kept.items()):
        tally.check(f"payload {keys[j]}", lambda j=j, trial=trial: (
            canonical(trial)
            == canonical(run_trial(RunRequest(**keys[j]).task()))))
    return {"run_latency_s": [x for per in lat for x in per],
            "elapsed_s": elapsed}


def serve_cold(args, tally: Tally) -> Dict[str, Any]:
    """A new seed per request; half the requests follow their SSE feed
    to the terminal frame before the client sends its next request."""
    from repro.serve import ServeClient
    from repro.serve.protocol import RunRequest
    from repro.stream import reassemble_feed
    from repro.sweep.cache import ResultCache
    from repro.sweep.executor import run_trial

    rngs = client_rngs(args.seed)
    clients = [ServeClient("127.0.0.1", args.port, timeout_s=CLIENT_TIMEOUT_S,
                           token=args.token) for _ in range(CLIENTS)]
    mix = [shuffled_cycle([(f, s, streamed) for f in FLAGS for s in SCENARIOS
                           for streamed in (False, True)], r) for r in rngs]
    first_seed = int(rngs[0].integers(FIXTURE_SEED // 2))
    lat: List[List[float]] = [[] for _ in range(CLIENTS)]
    feed: List[List[float]] = [[] for _ in range(CLIENTS)]
    kept_runs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    kept_feeds: List[Tuple[Dict[str, Any], list]] = []

    def op(c: int, i: int) -> None:
        flag, scenario, streamed = next(mix[c])
        key = dict(flag=flag, scenario=scenario,
                   team_size=int(rngs[c].choice(TEAM_SIZES)),
                   seed=first_seed + CLIENTS * i + c)
        t0 = time.perf_counter()
        try:
            if streamed:
                reply = clients[c].run(stream=True, **key)
                events = list(clients[c].stream(reply["stream"]))
            else:
                reply = clients[c].run(**key)
        except Exception as exc:
            tally.fail(f"/run {key}: {type(exc).__name__}: {exc}")
            return
        (feed if streamed else lat)[c].append(time.perf_counter() - t0)
        if reply.get("cached") is not False:
            tally.fail(f"/run {key}: served from cache")
            return
        if streamed and (not events or events[-1].kind != "end"):
            tally.fail(f"/run {key}: feed ended without an end frame")
            return
        tally.ok()
        if i % 5 == 0 and streamed and len(kept_feeds) < SAMPLES:
            kept_feeds.append((key, events))
        elif i % 5 == 0 and not streamed and len(kept_runs) < SAMPLES:
            kept_runs.append((key, reply["trial"]))

    elapsed = closed_loop(args.seconds, op)
    archive = ResultCache(args.archive)
    for key, trial in kept_runs:
        tally.check(f"payload {key}", lambda key=key, trial=trial: (
            canonical(trial)
            == canonical(run_trial(RunRequest(**key).task()))))
    for key, events in kept_feeds:
        def same_feed(key=key, events=events) -> bool:
            stored = archive.get(RunRequest(**key).address())
            runs = stored["trials"][0]["runs"]
            return reassemble_feed(events) == {
                label: run["trace"] for label, run in runs.items()}
        tally.check(f"feed {key}", same_feed)
    return {"run_latency_s": [x for per in lat for x in per],
            "feed_latency_s": [x for per in feed for x in per],
            "elapsed_s": elapsed}


LOADS = {"serve_warm": serve_warm, "serve_cold": serve_cold}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=LOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--token")
    parser.add_argument("--archive", help="the server's cache directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_client(tracer)
    tally = Tally()
    out = LOADS[args.workload](args, tally)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {
            "serve.response_kib": mean(tracer.values["serve.response_kib"])}
    out.update(tally.as_dict())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
