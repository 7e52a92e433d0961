"""Tests for ``repro.races.lockset`` — static guarded-attribute analysis.

Inference runs on source snippets (no filesystem); the allowlist, the
report envelope, and the repo-wide clean guarantee run through the real
CLI — including the ``repro racecheck src/repro`` exit-0 check that is
the repo's one lock-discipline lint.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.races import (
    RaceError,
    RaceReport,
    analyze_source,
    load_allowlist,
    lockset_report,
)
from repro.races.report import RACES_VERSION

REPO = pathlib.Path(__file__).resolve().parent.parent


def one_class(source):
    classes = analyze_source(source)
    assert len(classes) == 1
    return classes[0]


def codes(cls):
    return sorted(i.code for i in cls.findings)


class TestGuardInference:
    def test_all_writes_locked_means_guarded(self):
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def read(self):\n"
            "        with self._lock:\n"
            "            return self._n\n")
        assert cls.locks == ("_lock",)
        assert cls.guarded == {"_n": ("_lock",)}
        assert cls.findings == ()

    def test_init_writes_do_not_break_the_guard(self):
        # Construction happens-before publication: the bare __init__
        # write must not turn a guarded attribute into mixed_guard.
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n")
        assert cls.guarded == {"_items": ("_lock",)}
        assert cls.findings == ()

    def test_unguarded_read_of_guarded_attr_is_flagged(self):
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        assert codes(cls) == ["unguarded_read"]
        issue = cls.findings[0]
        assert issue.subject == "<snippet>::C._n"
        assert "peek" in issue.message

    def test_mixed_guard_is_flagged(self):
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def locked_bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def bare_bump(self):\n"
            "        self._n += 1\n")
        assert codes(cls) == ["mixed_guard"]
        assert "bare_bump" in cls.findings[0].message

    def test_mutator_call_counts_as_write(self):
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._q = []\n"
            "    def locked_add(self, x):\n"
            "        with self._lock:\n"
            "            self._q.append(x)\n"
            "    def bare_add(self, x):\n"
            "        self._q.append(x)\n")
        assert codes(cls) == ["mixed_guard"]

    def test_locked_suffix_methods_are_trusted(self):
        # The house convention: *_locked methods run with the lock
        # already held by the caller, so their accesses are exempt.
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "            self._n += 1\n"
            "    def _bump_locked(self):\n"
            "        self._n += 1\n")
        assert cls.findings == ()

    def test_borrowed_lock_chain_guards(self):
        # `with self._owner._lock:` — borrowing another object's lock
        # (the Subscription pattern in repro.stream.bus).
        cls = one_class(
            "class Cursor:\n"
            "    def __init__(self, owner):\n"
            "        self._owner = owner\n"
            "        self._pos = 0\n"
            "    def advance(self):\n"
            "        with self._owner._lock:\n"
            "            self._pos += 1\n"
            "    def bare(self):\n"
            "        return self._pos\n")
        assert cls.guarded == {"_pos": ("_owner._lock",)}
        assert codes(cls) == ["unguarded_read"]

    def test_sync_primitives_are_not_shared_state(self):
        # Event.set()/.clear() are internally synchronized; "clear"
        # being a container mutator must not make _event guarded.
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._event = threading.Event()\n"
            "    def arm(self):\n"
            "        with self._lock:\n"
            "            self._event.clear()\n"
            "    def fire(self):\n"
            "        self._event.set()\n")
        assert cls.guarded == {}
        assert cls.findings == ()

    def test_unlocked_only_attr_owes_no_discipline(self):
        cls = one_class(
            "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1\n")
        assert cls.guarded == {}
        assert cls.findings == ()

    def test_nested_function_is_conservatively_lock_free(self):
        # A closure runs later, with unknown locks: a write inside it
        # must not count as guarded even when defined under the lock.
        cls = one_class(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def locked_set(self):\n"
            "        with self._lock:\n"
            "            self._n = 1\n"
            "    def deferred(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self._n = 2\n"
            "            return later\n")
        assert codes(cls) == ["mixed_guard"]


class TestAllowlist:
    def test_load_parses_entries(self, tmp_path):
        f = tmp_path / "allow.txt"
        f.write_text("# comment\n\n"
                     "unguarded_read src/x.py::C._n -- benign\n")
        assert load_allowlist(f) == {
            "unguarded_read src/x.py::C._n": "benign"}

    def test_missing_justification_raises(self, tmp_path):
        f = tmp_path / "allow.txt"
        f.write_text("unguarded_read src/x.py::C._n\n")
        with pytest.raises(RaceError, match="justification"):
            load_allowlist(f)

    def test_report_suppresses_and_reports_stale(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        relpath = str(bad)
        allow = {f"unguarded_read {relpath}::C._n": "test waiver",
                 "mixed_guard gone.py::D._x": "stale"}
        report, unused = lockset_report([str(bad)], allow)
        assert report.ok
        assert report.findings == ()
        assert [s["key"] for s in report.suppressed] == [
            f"unguarded_read {relpath}::C._n"]
        assert unused == ["mixed_guard gone.py::D._x"]

    def test_without_allowlist_the_finding_survives(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        report, _ = lockset_report([str(bad)])
        assert not report.ok
        assert [i.code for i in report.findings] == ["unguarded_read"]


class TestReportEnvelope:
    def test_roundtrip_is_byte_stable(self):
        cls_src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        report, _ = lockset_report([])
        assert report.layer == "lockset"
        rebuilt = RaceReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.to_json() == report.to_json()
        assert analyze_source(cls_src)  # snippet parses

    def test_version_mismatch_raises(self):
        report, _ = lockset_report([])
        d = json.loads(report.to_json())
        d["races_version"] = RACES_VERSION + 1
        with pytest.raises(RaceError, match="version"):
            RaceReport.from_dict(d)

    def test_format_names_findings_and_waivers(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        report, _ = lockset_report([str(bad)])
        text = report.format()
        assert "RACY" in text and "unguarded_read" in text


class TestCli:
    def run_cli(self, *argv, cwd=REPO):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "racecheck", *argv],
            cwd=cwd, env=env, capture_output=True, text=True)

    def test_repo_is_clean(self):
        # The acceptance guarantee and the repo's race lint: the shipped
        # tree passes racecheck with the shipped allowlist, and no
        # allowlist entry is stale.
        proc = self.run_cli("src/repro", "--strict-unused")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_repo_allowlist_has_no_stale_entries(self, monkeypatch):
        # The library side of the same gate: every shipped allowlist
        # entry waives a finding that really occurs in the shipped tree.
        monkeypatch.chdir(REPO)
        allow = load_allowlist(pathlib.Path("tools/races_allow.txt"))
        report, unused = lockset_report(["src/repro"], allow)
        assert unused == []
        assert report.ok, report.format()
        assert sorted(s["key"] for s in report.suppressed) == sorted(allow)

    def test_json_report_is_canonical(self):
        proc = self.run_cli("src/repro", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        body = json.loads(proc.stdout)
        assert body["ok"] and body["layer"] == "lockset"
        assert body["races_version"] == RACES_VERSION

    def test_finding_fails_and_allowlist_waives(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n")
        proc = self.run_cli("racy.py", cwd=tmp_path)
        assert proc.returncode == 1
        assert "unguarded_read" in proc.stdout

        allow = tmp_path / "allow.txt"
        allow.write_text(
            "unguarded_read racy.py::C._n -- test waiver\n")
        proc = self.run_cli("racy.py", "--allowlist", str(allow),
                            cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_strict_unused_fails_on_stale_entry(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("unguarded_read gone.py::C._n -- obsolete\n")
        proc = self.run_cli("clean.py", "--allowlist", str(allow),
                            cwd=tmp_path)
        assert proc.returncode == 0
        assert "unused allowlist entry" in proc.stderr
        proc = self.run_cli("clean.py", "--allowlist", str(allow),
                            "--strict-unused", cwd=tmp_path)
        assert proc.returncode == 1

    def test_malformed_allowlist_is_usage_error(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("unguarded_read x.py::C._n\n")
        proc = self.run_cli("clean.py", "--allowlist", str(allow),
                            cwd=tmp_path)
        assert proc.returncode == 2
