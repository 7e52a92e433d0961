"""The planted-race acceptance test for the race detector.

One known bug — a counter incremented outside the lock that guards the
rest of the class — must be caught by *both* layers: statically by the
lockset analysis, and dynamically by the happens-before sanitizer, with
byte-identical reports across repeated runs.  A second bug — a guarded
attribute written from *outside* its class — is one only the sanitizer
can see, which is why the dynamic layer is kept.  The repo itself
must come out clean through the same pipeline.
"""

import pathlib
import threading

from repro.cli import main
from repro.races import RaceSanitizer, analyze_source

REPO = pathlib.Path(__file__).resolve().parent.parent

# The planted bug: _published has a locked write (reset) *and* a bare
# increment in publish() — the classic lost-update beside the very lock
# that should cover it.  Modeled on the stream bus's counter shape.
LEAKY_BUS = (
    "import threading\n"
    "class LeakyBus:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._events = []\n"
    "        self._published = 0\n"
    "    def publish(self, event):\n"
    "        with self._lock:\n"
    "            self._events.append(event)\n"
    "        self._published += 1\n"
    "    def reset(self):\n"
    "        with self._lock:\n"
    "            self._events.clear()\n"
    "            self._published = 0\n")


class TestStaticLayer:
    def test_lockset_catches_the_planted_race(self):
        (cls,) = analyze_source(LEAKY_BUS)
        assert cls.guarded == {"_events": ("_lock",)}
        codes = sorted(i.code for i in cls.findings)
        assert codes == ["mixed_guard"]
        issue = cls.findings[0]
        assert issue.subject == "<snippet>::LeakyBus._published"
        assert "publish" in issue.message

    def test_fixed_twin_is_clean(self):
        fixed = LEAKY_BUS.replace(
            "        self._published += 1\n",
            "        with self._lock:\n"
            "            self._published += 1\n")
        (cls,) = analyze_source(fixed)
        assert cls.findings == ()
        assert cls.guarded == {"_events": ("_lock",),
                               "_published": ("_lock",)}


def run_leaky_bus(locked):
    """Runtime twin of LEAKY_BUS under the sanitizer; returns JSON."""
    san = RaceSanitizer()
    with san.patched():
        published = san.state("LeakyBus._published")
        published.write(0)
        lock = threading.Lock()

        def publish():
            with lock:
                pass  # the guarded _events mutation
            if locked:
                with lock:
                    published.write(published.read() + 1)
            else:
                published.write(published.read() + 1)

        threads = [threading.Thread(target=publish) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return san.report().to_json()


class TestDynamicLayer:
    def test_sanitizer_catches_it_deterministically(self):
        reports = {run_leaky_bus(locked=False) for _ in range(3)}
        assert len(reports) == 1  # byte-identical across runs
        body = reports.pop().decode("utf-8")
        assert '"ok":false' in body
        assert "LeakyBus._published" in body
        assert "read/write" in body or "write/write" in body

    def test_locked_twin_is_clean_deterministically(self):
        reports = {run_leaky_bus(locked=True) for _ in range(3)}
        assert len(reports) == 1
        assert '"ok":true' in reports.pop().decode("utf-8")


# A class whose every in-class access to _count holds the lock, plus a
# module-level helper that writes the attribute bare.  Lockset analysis
# reasons per class about ``self._x``, so the outside writer is out of
# its sight; the sanitizer watches the attribute itself.
OUTSIDE_WRITER = (
    "import threading\n"
    "class Tally:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self._count += 1\n"
    "def reset_all(tallies):\n"
    "    for tally in tallies:\n"
    "        tally._count = 0\n")


def run_outside_writer():
    """The real OUTSIDE_WRITER code on two threads; returns the report."""
    namespace = {}
    exec(compile(OUTSIDE_WRITER, "<tally>", "exec"), namespace)
    san = RaceSanitizer()
    with san.patched():
        tally = san.audited_class(namespace["Tally"], "_count")()
        threads = [threading.Thread(target=tally.bump),
                   threading.Thread(target=namespace["reset_all"],
                                    args=([tally],))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return san.report()


class TestOnlyTheSanitizerSeesIt:
    def test_lockset_calls_the_class_clean(self):
        (cls,) = analyze_source(OUTSIDE_WRITER)
        assert cls.guarded == {"_count": ("_lock",)}
        assert cls.findings == ()

    def test_sanitizer_flags_the_outside_write(self):
        reports = {run_outside_writer().to_json() for _ in range(3)}
        assert len(reports) == 1  # byte-identical across runs
        body = reports.pop().decode("utf-8")
        assert '"ok":false' in body
        assert "Tally#0._count" in body


class TestRepoIsClean:
    def test_racecheck_src_repro_exits_zero(self, monkeypatch, capsys):
        # The repo's race lint, run in-process through the CLI entry
        # point: no finding and no stale allowlist entry.
        monkeypatch.chdir(REPO)
        assert main(["racecheck", "src/repro", "--strict-unused"]) == 0
        out = capsys.readouterr()
        assert "clean" in out.out
        assert out.err == ""
