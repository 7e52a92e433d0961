"""Tests for tools/simlint.py — the repo's one AST lint pass.

Rule checks run directly on parsed snippets (scoping is tested through
``Rule.applies`` separately, since the path scopes reference real repo
layout).  The CLI and the repo-wide clean guarantee run as subprocesses,
which makes this file the repo's lint pass.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import simlint  # noqa: E402


def scoped_tree(source):
    tree = ast.parse(source)
    return tree, list(simlint.iter_scoped(tree))


def run_rule(rule, source):
    tree, scoped = scoped_tree(source)
    return rule.check(pathlib.Path("snippet.py"), tree, scoped)


def run_cli(*argv):
    return subprocess.run([sys.executable, "tools/simlint.py", *argv],
                          cwd=REPO, env=dict(os.environ),
                          capture_output=True, text=True)


class TestScopedWalk:
    def test_symbols_are_dotted(self):
        _, scoped = scoped_tree(
            "class C:\n"
            "    def m(self):\n"
            "        x = 1\n")
        symbols = {s for _, s, _ in scoped}
        assert "C" in symbols and "C.m" in symbols

    def test_async_flag_stops_at_sync_helper(self):
        # A sync def nested in a coroutine runs off the await chain:
        # its body must not count as "inside async".
        _, scoped = scoped_tree(
            "async def outer():\n"
            "    def helper():\n"
            "        y = 2\n"
            "    z = 3\n")
        flags = {}
        for node, symbol, in_async in scoped:
            if isinstance(node, ast.Assign):
                flags[symbol] = in_async
        assert flags == {"outer.helper": False, "outer": True}

    def test_dotted_name(self):
        expr = ast.parse("a.b.c").body[0].value
        assert simlint.dotted_name(expr) == "a.b.c"
        call = ast.parse("f()[0]").body[0].value
        assert simlint.dotted_name(call) is None


class TestRuleScoping:
    def test_det_rules_scope_to_sim_paths(self):
        rule = simlint.WallClockRule()
        assert rule.applies("src/repro/sim/engine.py")
        assert rule.applies("src/repro/sweep/executor.py")
        assert not rule.applies("src/repro/serve/handlers.py")
        assert not rule.applies("tools/simlint.py")

    def test_det003_excludes_the_seeding_module(self):
        rule = simlint.UnseededRngRule()
        assert rule.applies("src/repro/sim/engine.py")
        assert rule.applies("src/repro/serve/handlers.py")
        assert not rule.applies("src/repro/sweep/seeding.py")

    def test_hygiene_rules_apply_everywhere(self):
        for rule in (simlint.MutableDefaultRule(),
                     simlint.BareExceptRule()):
            assert rule.applies("tools/anything.py")
            assert rule.applies("src/repro/grid/canvas.py")

    def test_lock_rules_scope_to_threaded_paths(self):
        rule = simlint.ThreadLifecycleRule()
        assert rule.applies("src/repro/stream/bus.py")
        assert rule.applies("src/repro/store/core.py")
        assert rule.applies("src/repro/fabric/coordinator.py")
        assert rule.applies("src/repro/serve/server.py")
        assert not rule.applies("src/repro/sim/engine.py")
        assert not rule.applies("tools/simlint.py")

    def test_docstring_rule_scopes_to_src_and_tools(self):
        rule = simlint.DocstringRule()
        assert rule.applies("src/repro/sim/engine.py")
        assert rule.applies("tools/simlint.py")
        assert not rule.applies("benchmarks/test_stream_fanout.py")

    def test_det001_covers_benchmarks(self):
        rule = simlint.WallClockRule()
        assert rule.applies("benchmarks/test_stream_fanout.py")


class TestDeterminismRules:
    @pytest.mark.parametrize("call", ["time.time()", "time.perf_counter()",
                                      "datetime.datetime.now()",
                                      "datetime.date.today()"])
    def test_det001_flags_wall_clock(self, call):
        out = run_rule(simlint.WallClockRule(), f"t = {call}\n")
        assert [v[2] for v in out] == ["DET001"]

    def test_det001_ignores_sim_clock(self):
        assert run_rule(simlint.WallClockRule(), "t = sim.now\n") == []

    def test_det002_flags_global_streams(self):
        out = run_rule(simlint.GlobalRandomRule(),
                       "a = random.random()\n"
                       "b = np.random.shuffle(x)\n")
        assert [v[2] for v in out] == ["DET002", "DET002"]

    def test_det002_allows_generator_construction(self):
        out = run_rule(simlint.GlobalRandomRule(),
                       "rng = np.random.default_rng(7)\n"
                       "ss = np.random.SeedSequence(3)\n"
                       "x = rng.random()\n")
        assert out == []

    def test_det003_flags_unseeded_construction(self):
        out = run_rule(simlint.UnseededRngRule(),
                       "a = np.random.default_rng()\n"
                       "b = np.random.default_rng(None)\n"
                       "c = random.Random()\n")
        assert [v[2] for v in out] == ["DET003"] * 3

    def test_det003_allows_seeded_construction(self):
        out = run_rule(simlint.UnseededRngRule(),
                       "a = np.random.default_rng(42)\n"
                       "b = np.random.default_rng(seed)\n"
                       "c = random.Random(7)\n")
        assert out == []


class TestAsyncRules:
    def test_async001_flags_blocking_sleep(self):
        out = run_rule(simlint.AsyncSleepRule(),
                       "async def h():\n    time.sleep(1)\n")
        assert [v[2] for v in out] == ["ASYNC001"]
        assert "asyncio.sleep" in out[0][4]

    def test_async001_ignores_sync_and_awaited(self):
        assert run_rule(simlint.AsyncSleepRule(),
                        "def h():\n    time.sleep(1)\n") == []
        assert run_rule(simlint.AsyncSleepRule(),
                        "async def h():\n"
                        "    await asyncio.sleep(1)\n") == []

    def test_async002_flags_sync_io(self):
        out = run_rule(simlint.AsyncFileIoRule(),
                       "async def h(p):\n"
                       "    with open(p) as f:\n"
                       "        pass\n"
                       "    t = p.read_text()\n")
        assert [v[2] for v in out] == ["ASYNC002", "ASYNC002"]

    def test_async002_sync_helper_inside_coroutine_is_fine(self):
        out = run_rule(simlint.AsyncFileIoRule(),
                       "async def h(p):\n"
                       "    def load():\n"
                       "        return p.read_text()\n"
                       "    return load\n")
        assert out == []

    def test_async003_flags_awaited_queue_put(self):
        out = run_rule(simlint.AsyncQueuePutRule(),
                       "async def h(q, item):\n"
                       "    await q.put(item)\n")
        assert [v[2] for v in out] == ["ASYNC003"]
        assert "drop-oldest" in out[0][4]

    def test_async003_ignores_sync_puts_and_other_awaits(self):
        # put_nowait on a bounded deque path and unrelated awaits are
        # exactly the sanctioned alternatives.
        assert run_rule(simlint.AsyncQueuePutRule(),
                        "def h(q, item):\n"
                        "    q.put(item)\n") == []
        assert run_rule(simlint.AsyncQueuePutRule(),
                        "async def h(q, item):\n"
                        "    q.put_nowait(item)\n"
                        "    await q.get()\n") == []

    def test_async003_scopes_to_serve_and_stream(self):
        rule = simlint.AsyncQueuePutRule()
        assert rule.applies("src/repro/serve/handlers.py")
        assert rule.applies("src/repro/stream/bus.py")
        assert not rule.applies("src/repro/sim/engine.py")


class TestHygieneRules:
    def test_hyg001_flags_mutable_defaults(self):
        out = run_rule(simlint.MutableDefaultRule(),
                       "def f(a=[], b={}, c=set(), *, d=[1]):\n    pass\n")
        assert [v[2] for v in out] == ["HYG001"] * 4

    def test_hyg001_allows_none_and_tuples(self):
        assert run_rule(simlint.MutableDefaultRule(),
                        "def f(a=None, b=(), c=0):\n    pass\n") == []

    def test_hyg002_flags_bare_except(self):
        out = run_rule(simlint.BareExceptRule(),
                       "try:\n    x()\nexcept:\n    pass\n")
        assert [v[2] for v in out] == ["HYG002"]

    def test_hyg002_allows_typed_except(self):
        assert run_rule(simlint.BareExceptRule(),
                        "try:\n    x()\nexcept ValueError:\n"
                        "    pass\n") == []


class TestLockRules:
    def test_lock002_flags_unmanaged_thread(self):
        violations = run_rule(
            simlint.ThreadLifecycleRule(),
            "import threading\n"
            "def spawn():\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n")
        assert [v[2] for v in violations] == ["LOCK002"]

    def test_lock002_daemon_or_join_is_fine(self):
        violations = run_rule(
            simlint.ThreadLifecycleRule(),
            "import threading\n"
            "def daemonized():\n"
            "    threading.Thread(target=work, daemon=True).start()\n"
            "def joined():\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n"
            "    t.join()\n")
        assert violations == []

    def test_lock002_join_elsewhere_in_module_counts(self):
        # The join lives in another function (start/stop pairs): the
        # handle name is what ties them together.
        violations = run_rule(
            simlint.ThreadLifecycleRule(),
            "import threading\n"
            "class Server:\n"
            "    def start(self):\n"
            "        self._thread = threading.Thread(target=self.run)\n"
            "        self._thread.start()\n"
            "    def stop(self):\n"
            "        self._thread.join()\n")
        assert violations == []


def run_docstring_rule(source, filename="mod.py"):
    tree, scoped = scoped_tree(source)
    return [(v[2], v[3]) for v in simlint.DocstringRule().check(
        pathlib.Path(filename), tree, scoped)]


class TestDocstringRule:
    def test_missing_docstrings_are_reported(self):
        assert run_docstring_rule(
            "def exposed(x):\n    return x\n\n"
            "class Thing:\n"
            "    def method(self):\n        return 1\n") == [
            ("D100", "<module>"), ("D103", "exposed"), ("D101", "Thing"),
            ("D102", "Thing.method")]

    def test_documented_tree_is_clean(self):
        assert run_docstring_rule(
            '"""Module doc."""\n\n'
            "def exposed(x):\n    '''Doc.'''\n    return x\n\n"
            "class Thing:\n"
            "    '''Doc.'''\n"
            "    async def method(self):\n        '''Doc.'''\n") == []

    def test_private_and_dunder_names_are_exempt(self):
        assert run_docstring_rule(
            '"""Module doc."""\n\n'
            "def _helper():\n    return 1\n\n"
            "class _Hidden:\n"
            "    def anything(self):\n        return 1\n\n"
            "class Shown:\n"
            '    """Doc."""\n'
            "    def __init__(self):\n        self.x = 1\n") == []

    def test_private_module_needs_no_module_docstring(self):
        assert run_docstring_rule("x = 1\n", "_private.py") == []
        assert run_docstring_rule("x = 1\n", "__init__.py") == [
            ("D100", "<module>")]

    def test_stubs_and_nested_defs_are_exempt(self):
        assert run_docstring_rule(
            '"""Module doc."""\n\n'
            "class Proto:\n"
            "    '''Doc.'''\n"
            "    def member(self): ...\n\n"
            "def outer():\n"
            "    '''Doc.'''\n"
            "    def inner():\n        return 1\n"
            "    class Local:\n        pass\n") == []


class TestAllowlist:
    def test_load_parses_entries(self, tmp_path):
        f = tmp_path / "allow.txt"
        f.write_text("# comment\n\n"
                     "DET001 src/x.py::f -- because reasons\n")
        assert simlint.load_allowlist(f) == {
            "DET001 src/x.py::f": "because reasons"}

    def test_missing_justification_is_an_error(self, tmp_path):
        f = tmp_path / "allow.txt"
        f.write_text("DET001 src/x.py::f\n")
        with pytest.raises(simlint.AllowlistError, match="justification"):
            simlint.load_allowlist(f)

    def test_apply_drops_matches_and_reports_stale(self):
        violations = [
            (pathlib.Path("src/x.py"), 3, "DET001", "f", "msg"),
            (pathlib.Path("src/y.py"), 4, "HYG002", "g", "msg"),
        ]
        allow = {"DET001 src/x.py::f": "fine",
                 "DET003 src/gone.py::h": "stale"}
        kept, unused = simlint.apply_allowlist(violations, allow)
        assert [v[2] for v in kept] == ["HYG002"]
        assert unused == ["DET003 src/gone.py::h"]


class TestCli:
    def test_repo_is_clean(self):
        # The shipped tree (benchmarks included) lints clean — every
        # rule family, docstrings too — with the shipped allowlist and
        # no stale entries.
        proc = run_cli("--strict-unused", "src", "tools", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_missing_docstring_is_reported_by_the_cli(self, tmp_path):
        mod = tmp_path / "tools" / "undocumented.py"
        mod.parent.mkdir()
        mod.write_text('"""Module doc."""\n\n'
                       "def exposed(x):\n    return x\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "simlint.py"),
             "--allowlist", str(tmp_path / "none.txt"), "tools"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 1
        assert ("tools/undocumented.py:3: D103 [exposed] missing "
                "docstring in public function") in proc.stdout

    def test_violation_found_and_allowlisted(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('"""A module that reads the host clock."""\n\n'
                       "import time\n\n"
                       "def tick():\n"
                       '    """The current wall time."""\n'
                       "    return time.time()\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "simlint.py"),
             "--allowlist", str(tmp_path / "none.txt"), "src"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "DET001" in proc.stdout and "[tick]" in proc.stdout

        allow = tmp_path / "allow.txt"
        allow.write_text("DET001 src/repro/sim/bad.py::tick -- test\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "simlint.py"),
             "--allowlist", str(allow), "src"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stale_allowlist_entry_warns_but_passes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("DET001 nowhere.py::f -- obsolete\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "simlint.py"),
             "--allowlist", str(allow), str(clean)],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "unused allowlist entry" in proc.stderr

    def test_strict_unused_makes_stale_entries_fatal(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("DET001 nowhere.py::f -- obsolete\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "simlint.py"),
             "--strict-unused", "--allowlist", str(allow), str(clean)],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "error: unused allowlist entry" in proc.stderr

    def test_malformed_allowlist_is_usage_error(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("DET001 x.py::f\n")
        proc = run_cli("--allowlist", str(allow), "src")
        assert proc.returncode == 2

    def test_no_paths_is_usage_error(self):
        assert run_cli().returncode == 2
