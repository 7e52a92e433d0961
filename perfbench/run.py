"""flagsim's benchmark: serving, streaming and vector sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``serve_warm``, ``serve_cold`` and ``sweep_vector``.  Each window runs
in a fresh child process (``perfbench/workloads.py``) with fresh
temporary cache and store directories under ``.perfbench-tmp/``.

``--trace 0`` runs one untraced window and reports the end-to-end
metrics.  ``--trace 1`` runs an untraced and then a traced window of
the same length and reports the per-layer metrics, including the
tracing overhead between the two.  The last line of standard output is
the result object; the line before it holds the host facts.

``--src`` points the benchmark at another ``src/`` tree, to measure
older code with the same benchmark file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Set-ups per untraced window; setup_s is their median.
SETUPS = {"serve_warm": 3, "serve_cold": 5, "sweep_vector": 5}
BUDGET_S = 170.0         # every child must have ended by then


def git_revision(src: pathlib.Path) -> str:
    """The short commit of the tree holding ``src``, if it is a clone."""
    repo = src.parent
    if not (repo / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(repo), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_ticks() -> List[int]:
    """The host's aggregate CPU counters (user, nice, system, ..., steal)."""
    try:
        with open("/proc/stat") as fp:
            return [int(x) for x in fp.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of this machine's CPU demand that the hypervisor took back."""
    d = [b - a for a, b in zip(before, after)]
    busy, steal = d[0] + d[1] + d[2], d[7]
    return steal / (busy + steal) if busy + steal else 0.0


def window(args, src: pathlib.Path, tmp: pathlib.Path, *, seconds: float,
           trace: int, setups: int, deadline: float) -> Optional[Dict]:
    """Run one child window; its result dict, or ``None`` if it failed."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--setups", str(setups), "--src", str(src), "--tmp", str(tmp)]
    # A session of its own, so a timeout also stops the load generator.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {args.workload} window timed out",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} window exited "
              f"{proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: unreadable window result {lines[-1][:200]!r}",
              file=sys.stderr)
        return None


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SETUPS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src",
                        help="src/ tree to measure (default: %(default)s)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    src = (ROOT / args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no flagsim sources at {src}", file=sys.stderr)
        return 2
    facts = {"workload": args.workload, "seed": args.seed,
             "cpu_count": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
             "python": platform.python_version(),
             "git_revision": git_revision(src)}

    ticks = cpu_ticks()
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = window(args, src, tmp, seconds=args.seconds, trace=0,
                           setups=1, deadline=deadline)
            traced = plain and window(args, src, tmp, seconds=args.seconds,
                                      trace=1, setups=1, deadline=deadline)
            windows = [plain, traced]
        else:
            windows = [window(args, src, tmp, seconds=args.seconds, trace=0,
                              setups=SETUPS[args.workload],
                              deadline=deadline)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    if not all(windows):
        return 1

    first = windows[0]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    checks = sum(w["checks"] for w in windows)
    facts.update(steal_share=steal_share(ticks, cpu_ticks()),
                 numpy=first["numpy"], latency_samples=first["latency_samples"],
                 tail_percentile=first["tail_percentile"],
                 feed_samples=first.get("feed_samples"),
                 checks=checks, errors=[e for w in windows for e in w["errors"]])
    if args.trace:
        plain, traced = windows
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update(traced["layers"])
        layers["stream.feed_p50_ms"] = plain.get("feed_p50_ms", 0.0)
        layers["stream.feed_p95_ms"] = plain.get("feed_p95_ms", 0.0)
        if plain["throughput_per_s"]:
            layers["trace.overhead_share"] = (
                1.0 - traced["throughput_per_s"] / plain["throughput_per_s"])
        layers["failed_share"] = failed / attempted if attempted else 0.0
        facts["patched"] = traced["patched"]
        metrics = {name: metric(layers[name], unit)
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: metric(first[name], unit)
                   for name, unit in END_TO_END}
    print(json.dumps({"host": facts}))
    print(json.dumps({"correct": failed == 0 and checks > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
