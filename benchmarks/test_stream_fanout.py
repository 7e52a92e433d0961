"""Stream fan-out: publish rate of the bus as subscribers multiply.

One publisher pushes a fixed batch of event frames into a
:class:`~repro.stream.RunStream` while 1, then 32, subscribers drain
concurrently — the bench prints events/sec for both fan-outs (one
unrepeated round: a shape check, not a measurement).  A third phase
wedges a subscriber that never drains and asserts the two shapes that
hold on any hardware, including the 1-core container this repo grows on: the
publisher's per-frame cost stays bounded (drop-oldest, never
backpressure), and every shed frame is counted.  No ``cpu_count``
gate.
"""

import threading
import time

from repro.stream import RunStream

from conftest import print_comparison

FRAMES = 4000
WIDE_FANOUT = 32


def drain(sub, stop):
    while not stop.is_set():
        if not sub.pop_ready(max_frames=256):
            sub.wait(0.05)
    sub.pop_ready(max_frames=FRAMES + 8)


def publish_fanout(n_subscribers):
    """Publish FRAMES frames against n draining subscribers."""
    stream = RunStream(f"bench-{n_subscribers}", max_queue=FRAMES + 8)
    stop = threading.Event()
    subs = [stream.subscribe() for _ in range(n_subscribers)]
    threads = [threading.Thread(target=drain, args=(s, stop)) for s in subs]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    for i in range(FRAMES):
        stream.publish("event", run="scenario3", time=float(i),
                       data={"line": f"t={i}"})
    wall = time.perf_counter() - t0
    stop.set()
    for t in threads:
        t.join()
    dropped = stream.dropped
    for s in subs:
        s.close()
    return wall, dropped


def test_fanout_and_overflow(benchmark):
    solo_wall, solo_dropped = publish_fanout(1)
    (wide_wall, wide_dropped) = benchmark.pedantic(
        lambda: publish_fanout(WIDE_FANOUT), rounds=1, iterations=1)

    # Overflow phase: a wedged subscriber with a tiny queue sheds
    # frames instead of slowing the publisher.
    stream = RunStream("bench-wedged", max_queue=16)
    wedged = stream.subscribe()
    t0 = time.perf_counter()
    for i in range(FRAMES):
        stream.publish("event", run="scenario3", time=float(i),
                       data={"line": f"t={i}"})
    wedged_wall = time.perf_counter() - t0
    shed = stream.dropped
    survivors = wedged.pop_ready(max_frames=FRAMES)
    wedged.close()

    report = {
        "bench": "stream_fanout",
        "frames": FRAMES,
        "solo": {"subscribers": 1,
                 "events_per_s": round(FRAMES / solo_wall, 1),
                 "dropped": solo_dropped},
        "wide": {"subscribers": WIDE_FANOUT,
                 "events_per_s": round(FRAMES / wide_wall, 1),
                 "dropped": wide_dropped},
        "wedged": {"queue": 16,
                   "events_per_s": round(FRAMES / wedged_wall, 1),
                   "dropped": shed,
                   "per_frame_us": round(wedged_wall / FRAMES * 1e6, 2)},
    }
    print_comparison(
        f"stream fan-out: {FRAMES} frames published", [
            ["1 sub ev/s", "-", f"{report['solo']['events_per_s']:.0f}"],
            [f"{WIDE_FANOUT} subs ev/s", "-",
             f"{report['wide']['events_per_s']:.0f}"],
            ["wedged drops", "counted", f"{shed}"],
            ["wedged us/frame", "bounded", f"{report['wedged']['per_frame_us']:.1f}"],
        ])
    benchmark.extra_info.update(report)

    # Shape 1: the wedged subscriber shed exactly the frames beyond its
    # queue, and every shed frame is on the counter.
    assert len(survivors) == 16
    assert shed == FRAMES - 16
    assert [e.seq for e in survivors] == list(range(FRAMES - 15, FRAMES + 1))
    # Shape 2: publishing past a wedged subscriber stays bounded — far
    # under a millisecond per frame even on a loaded 1-core box.
    assert wedged_wall / FRAMES < 1e-3, (
        f"publish stalled at {wedged_wall / FRAMES * 1e6:.0f}us/frame "
        "behind a wedged subscriber")
