"""Pinned feed digests: a streamed ``/run`` publishes the same frames
whichever code path produces them.

Each case opens ``POST /run {"stream": true}`` on a cache-less server
(every feed is a cold miss), reads the feed the way any SSE subscriber
does, and hashes the canonical frame list ``(seq, kind, run, time,
data)``.  The digests are committed, so a change to how the server
produces a feed must reproduce every frame, its order and its
``seq``, not merely the reassembled event log.
"""

import hashlib

import pytest

from repro.canonical import canonical_bytes
from repro.serve import BackgroundServer, ServeConfig

#: (request body, SHA-256 of its canonical frame list).
CASES = {
    "mauritius-s3-seed13": (
        {"flag": "mauritius", "scenario": 3, "seed": 13},
        "bba838837ac66db2c60ed82202b47da0f10ebd8499aeda5ab54d039c9512cf1f"),
    "mauritius-activity-seed7": (
        {"flag": "mauritius", "scenario": 0, "seed": 7},
        "f08afb879c8bd98892f83414c282f5e6a83329c7fa3a6274e114a6e7aadaa7a5"),
    "mauritius-s4-seed13-observe": (
        {"flag": "mauritius", "scenario": 4, "seed": 13, "observe": True},
        "075ab66f73a0683346508eddac1e601468e39979c51eff2a1ae1a9987d487d6b"),
    "mauritius-s4-seed13-hold": (
        {"flag": "mauritius", "scenario": 4, "seed": 13,
         "policy": "hold_color_run"},
        "075ab66f73a0683346508eddac1e601468e39979c51eff2a1ae1a9987d487d6b"),
    "mauritius-s4-seed13-release": (
        {"flag": "mauritius", "scenario": 4, "seed": 13,
         "policy": "release_per_stroke"},
        "d766a04dee3f3f81c0bdbcc21e601e4a605ff2ffb21f2afea9e444ce5ac13e3d"),
}


@pytest.fixture(scope="module")
def server():
    """A server without a cache: every streamed ``/run`` computes."""
    with BackgroundServer(ServeConfig()) as bg:
        yield bg


def feed_digest(frames):
    """SHA-256 of the canonical ``(seq, kind, run, time, data)`` list."""
    rows = [[f.seq, f.kind, f.run, f.time, f.data] for f in frames]
    return hashlib.sha256(canonical_bytes(rows)).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_feed_matches_its_pinned_digest(server, case):
    body, digest = CASES[case]
    client = server.client()
    reply = client.run(stream=True, **body)
    assert reply["cached"] is False
    frames = list(client.stream(reply["stream"]))
    assert frames[-1].kind == "end"
    assert frames[-1].data == {"status": "ok", "cached": False,
                               "runs": reply["runs"]}
    assert feed_digest(frames) == digest
