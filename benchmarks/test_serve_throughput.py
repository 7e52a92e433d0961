"""Serving throughput: closed-loop load against a live repro.serve.

N client threads each run a closed loop (issue a request, wait for the
reply, repeat) against a :class:`~repro.serve.BackgroundServer` — first a
*cold* phase where every (flag, seed) pair is new, then a *warm* phase
replaying the same pairs so every reply comes from the cache.  The bench
prints requests/sec and client-side latency percentiles for both phases
(the repeated, spread-reporting serve numbers live in
``perfbench/RESULTS.md``), and asserts the one shape that holds on any
hardware — including the 1-core container this repo grows
on: warm-cache throughput is strictly above cold, because a cache hit
skips the simulation entirely.  No ``cpu_count`` gate.
"""

import threading
import time

from repro.serve import BackgroundServer, ServeConfig

from conftest import print_comparison

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 6


def percentile(latencies, q):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def closed_loop(server, phase_seed_base):
    """Drive N closed-loop clients; return (wall_s, latencies, replies)."""
    latencies = []
    replies = []
    lock = threading.Lock()

    def client(client_id):
        handle = server.client()
        for i in range(REQUESTS_PER_CLIENT):
            seed = phase_seed_base + client_id * REQUESTS_PER_CLIENT + i
            t0 = time.perf_counter()
            reply = handle.run(flag="poland", scenario=3, seed=seed)
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                replies.append(reply)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(N_CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, latencies, replies


def phase_stats(wall_s, latencies):
    n = len(latencies)
    return {
        "requests": n,
        "wall_s": round(wall_s, 4),
        "requests_per_s": round(n / wall_s, 2),
        "latency_p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
        "latency_p90_ms": round(percentile(latencies, 0.90) * 1e3, 2),
        "latency_p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
    }


def test_warm_cache_throughput_beats_cold(tmp_path, benchmark):
    config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                         batch_window_s=0.002, max_pending=64)
    with BackgroundServer(config) as server:
        cold_wall, cold_lat, cold_replies = closed_loop(server, 1000)
        (warm_wall, warm_lat, warm_replies) = benchmark.pedantic(
            lambda: closed_loop(server, 1000), rounds=1, iterations=1)
        metrics = server.client().metrics()

    assert all(not r["cached"] for r in cold_replies)
    assert all(r["cached"] for r in warm_replies)

    cold = phase_stats(cold_wall, cold_lat)
    warm = phase_stats(warm_wall, warm_lat)
    report = {
        "bench": "serve_throughput",
        "clients": N_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "cold": cold,
        "warm": warm,
        "warm_over_cold_throughput": round(
            warm["requests_per_s"] / cold["requests_per_s"], 2),
    }
    print_comparison(
        f"serve throughput: {N_CLIENTS} closed-loop clients x "
        f"{REQUESTS_PER_CLIENT} requests", [
            ["cold req/s", "-", f"{cold['requests_per_s']:.1f}"],
            ["warm req/s", "more than cold", f"{warm['requests_per_s']:.1f}"],
            ["cold p50", "-", f"{cold['latency_p50_ms']:.1f}ms"],
            ["warm p50", "less than cold", f"{warm['latency_p50_ms']:.1f}ms"],
        ])
    benchmark.extra_info.update(report)

    assert "serve_cache_hits_total" in metrics
    assert warm["requests_per_s"] > cold["requests_per_s"], (
        f"warm ({warm['requests_per_s']} req/s) not above cold "
        f"({cold['requests_per_s']} req/s)")
