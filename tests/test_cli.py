"""Tests for repro.cli — the command-line interface."""

import json
import os
import pathlib
import shutil

import pytest

from repro.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("flags", "render", "scenario", "activity", "session",
                    "depgraph", "analyze", "racecheck", "dryrun", "grade",
                    "tables", "animate", "slides", "debrief", "report",
                    "chaos", "sweep", "fabric", "trace", "serve", "tutor"):
            # Minimal arg sets per command.
            argv = {
                "flags": ["flags"],
                "render": ["render", "mauritius"],
                "scenario": ["scenario", "mauritius", "1"],
                "activity": ["activity"],
                "session": ["session", "USI"],
                "depgraph": ["depgraph", "jordan"],
                "analyze": ["analyze", "mauritius"],
                "racecheck": ["racecheck", "src/repro"],
                "dryrun": ["dryrun", "mauritius"],
                "grade": ["grade"],
                "tables": ["tables"],
                "animate": ["animate", "mauritius", "1"],
                "slides": ["slides", "mauritius", "1"],
                "debrief": ["debrief", "USI"],
                "report": ["report", "USI"],
                "chaos": ["chaos", "mauritius"],
                "sweep": ["sweep"],
                "fabric": ["fabric"],
                "trace": ["trace", "mauritius"],
                "serve": ["serve", "--port", "0"],
                "tutor": ["tutor", "--lesson", "speedup"],
            }[cmd]
            args = parser.parse_args(argv)
            assert args.command == cmd

    def test_sweep_and_fabric_parse_the_same_grid(self):
        from repro.cli import _grid_spec
        grid = ["--flag", "poland", "--flag", "jordan", "--scenario", "4",
                "--scenario", "activity", "--team-size", "5", "--policy",
                "release_per_stroke", "--style", "full", "--copies", "2",
                "--trials", "3", "--seed", "9"]
        parser = build_parser()
        sweep = _grid_spec(parser.parse_args(["sweep", *grid]))
        fabric = _grid_spec(parser.parse_args(["fabric", *grid]))
        assert sweep == fabric
        assert sweep.flags == ("poland", "jordan")
        assert (sweep.team_sizes, sweep.copies) == ((5,), (2,))
        assert (sweep.n_trials, sweep.seed) == (3, 9)

    def test_grid_defaults(self):
        from repro.cli import _grid_spec
        spec = _grid_spec(build_parser().parse_args(["sweep"]))
        assert spec.flags == ("mauritius",)
        assert spec.scenarios == (3,)
        assert spec.team_sizes == (4,)

    @pytest.mark.parametrize("cmd", ["sweep", "fabric", "serve"])
    def test_result_flags_are_shared(self, cmd):
        args = build_parser().parse_args(
            [cmd, "--cache-dir", "c", "--store", "s.db", "--store-tenant",
             "usi/cs1", "--backend", "vector"])
        assert (args.cache_dir, args.store, args.store_tenant,
                args.backend) == ("c", "s.db", "usi/cs1", "vector")


class TestCommands:
    def test_flags(self, capsys):
        assert main(["flags"]) == 0
        out = capsys.readouterr().out
        assert "mauritius" in out and "jordan" in out

    def test_render_ascii(self, capsys):
        assert main(["render", "mauritius", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "R" * 12

    def test_render_svg(self, capsys):
        assert main(["render", "poland", "--format", "svg"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_render_custom_size(self, capsys):
        assert main(["render", "mauritius", "--format", "ascii",
                     "--rows", "4", "--cols", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 and len(lines[0]) == 8

    def test_scenario(self, capsys):
        assert main(["scenario", "mauritius", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "four_by_stripe" in out
        assert "correct flag  : yes" in out

    def test_scenario4_shows_waiting(self, capsys):
        assert main(["scenario", "mauritius", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "waiting share" in out

    def test_activity(self, capsys):
        assert main(["activity", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "scenario1_repeat" in out
        assert "scenario4" in out

    def test_session(self, capsys):
        assert main(["session", "USI", "--seed", "1", "--teams", "2"]) == 0
        out = capsys.readouterr().out
        assert "University of Southern Indiana" in out
        assert "debrief:" in out

    def test_depgraph_text(self, capsys):
        assert main(["depgraph", "jordan", "--processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "list schedule on P=2" in out

    def test_depgraph_dot(self, capsys):
        assert main(["depgraph", "jordan", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_analyze_all_scenarios(self, capsys):
        assert main(["analyze", "mauritius"]) == 0
        out = capsys.readouterr().out
        assert "scenario 1: ok" in out and "scenario 4: ok" in out
        assert "speedup bound" in out

    def test_analyze_deadlock_exits_nonzero(self, capsys):
        assert main(["analyze", "mauritius", "--scenario", "4",
                     "--hoard", "--rotate"]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "-[blue_marker]->" in out

    def test_analyze_json(self, capsys):
        assert main(["analyze", "mauritius", "--scenario", "3",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["speedup_bound"] == 4.0

    def test_racecheck_repo_is_clean(self, capsys, monkeypatch):
        # The ISSUE acceptance gate, in-process: the shipped tree plus
        # the shipped allowlist come out clean.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["racecheck", "src/repro"]) == 0
        assert "racecheck [lockset]: clean" in capsys.readouterr().out

    def test_racecheck_json(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["racecheck", "src/repro", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["layer"] == "lockset"
        assert report["stats"]["guarded_attrs"] >= 1

    def test_racecheck_planted_race_exits_nonzero(
            self, capsys, monkeypatch, tmp_path):
        (tmp_path / "racy.py").write_text(
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
        monkeypatch.chdir(tmp_path)
        assert main(["racecheck", "racy.py"]) == 1
        out = capsys.readouterr().out
        assert "RACY" in out and "unguarded_read" in out

    def test_racecheck_bad_allowlist_is_usage_error(
            self, capsys, monkeypatch, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "allow.txt").write_text("code x.py::C._n\n")
        monkeypatch.chdir(tmp_path)
        assert main(["racecheck", "clean.py",
                     "--allowlist", "allow.txt"]) == 2
        assert "repro racecheck:" in capsys.readouterr().err

    def test_dryrun_ok(self, capsys):
        assert main(["dryrun", "mauritius"]) == 0
        assert "ready to run" in capsys.readouterr().out

    def test_dryrun_unknown_implement_raises(self):
        with pytest.raises(KeyError):
            main(["dryrun", "mauritius", "--implement", "chalk"])

    def test_grade(self, capsys):
        assert main(["grade", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "perfect" in out
        assert "at least mostly correct: 59%" in out

    def test_tables(self, capsys):
        assert main(["tables", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Table I:" in out and "Table III:" in out
        assert out.count("vs paper: exact") == 3

    def test_report(self, capsys):
        assert main(["report", "USI", "--teams", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Activity report")
        assert "## Whiteboard" in out

    def test_unknown_flag_raises(self):
        with pytest.raises(KeyError):
            main(["render", "atlantis"])

    def test_chaos_redistribute(self, capsys):
        assert main(["chaos", "mauritius", "--scenario", "4",
                     "--policy", "redistribute", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "makespan inflation" in out or "faulted makespan" in out
        assert "ops reassigned" in out

    def test_chaos_abandon_reports_coverage_loss(self, capsys):
        assert main(["chaos", "mauritius", "--scenario", "4",
                     "--policy", "abandon", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "abandon" in out

    @pytest.mark.parametrize("policy", ["abandon", "redistribute", "spare"])
    def test_chaos_is_deterministic(self, capsys, policy):
        argv = ["chaos", "mauritius", "--scenario", "4",
                "--policy", policy, "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_runs_grid(self, capsys):
        assert main(["sweep", "--flag", "mauritius", "--scenario", "3",
                     "--scenario", "4", "--trials", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "scenario3" in out and "scenario4" in out
        assert "computed 4, cached 0" in out

    def test_sweep_warm_cache_recomputes_nothing(self, capsys, tmp_path):
        argv = ["sweep", "--trials", "2", "--seed", "5",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "computed 2, cached 0" in cold
        assert "cold" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "computed 0, cached 2" in warm
        assert "warm" in warm

    def test_sweep_observe_prints_rollup(self, capsys):
        assert main(["sweep", "--trials", "1", "--observe"]) == 0
        out = capsys.readouterr().out
        assert "events=" in out

    def test_sweep_activity_axis(self, capsys):
        assert main(["sweep", "--scenario", "activity",
                     "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario1_repeat" in out

    def test_fabric_runs_grid(self, capsys):
        assert main(["fabric", "--flag", "poland", "--scenario", "3",
                     "--scenario", "4", "--trials", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "scenario3" in out and "scenario4" in out
        assert "computed 4, cached 0" in out
        assert "leases 2" in out and "worker deaths 0" in out

    def test_fabric_chaos_crash_retries(self, capsys):
        assert main(["fabric", "--flag", "poland", "--scenario", "3",
                     "--scenario", "4", "--trials", "1", "--seed", "5",
                     "--chaos", "crash:w0:1", "--hedge-after", "0"]) == 0
        out = capsys.readouterr().out
        assert "retries 1" in out and "worker deaths 1" in out

    def test_fabric_warm_cache_shared_with_sweep(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--flag", "poland", "--trials", "2",
                     "--seed", "5", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["fabric", "--flag", "poland", "--trials", "2",
                     "--seed", "5", "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "computed 0, cached 2" in warm
        assert "leases 0" in warm

    def test_fabric_bad_chaos_spec_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["fabric", "--chaos", "meteor:w0:1"])
        with pytest.raises(SystemExit):
            main(["fabric", "--chaos", "crash:w0:zero"])

    def test_fabric_bad_remote_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["fabric", "--remote", "localhost"])

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        assert main(["trace", "mauritius", "--scenario", "4", "--seed",
                     "42", "--out", str(out),
                     "--metrics", str(metrics)]) == 0
        printed = capsys.readouterr().out
        assert "ui.perfetto.dev" in printed
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "C", "M"}
        assert "resource_wait_seconds_bucket" in metrics.read_text()

    def test_trace_chaos_adds_fault_instants(self, capsys, tmp_path):
        import json

        out = tmp_path / "chaos.json"
        assert main(["trace", "mauritius", "--scenario", "4", "--seed",
                     "7", "--chaos", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert any(n.startswith("fault:") for n in names)

    def test_trace_converts_an_archived_event_log(self, capsys, tmp_path):
        import json

        import numpy as np
        from repro.agents import make_team
        from repro.flags import mauritius
        from repro.schedule import get_scenario, run_scenario
        from repro.sim.export import export_events

        spec = mauritius()
        team = make_team("team", 4, np.random.default_rng(5),
                         colors=list(spec.colors_used()))
        result = run_scenario(get_scenario(4), spec, team,
                              np.random.default_rng(5))
        log = tmp_path / "events.jsonl"
        log.write_text(export_events(result.trace.events))

        out = tmp_path / "converted.json"
        assert main(["trace", str(log), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "converted" in printed
        doc = json.loads(out.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices

    def test_trace_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["trace", "mauritius", "--scenario", "4",
                         "--seed", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()


class TestPipeHardening:
    def test_broken_pipe_exits_141_without_traceback(self, monkeypatch):
        # `repro analyze ... | head` closing early must not traceback.
        # The handler dup2's devnull over stdout's fd; under pytest
        # that fd belongs to the capture machinery, so stub it out.
        import repro.cli as cli_mod

        def gone(args):
            raise BrokenPipeError

        monkeypatch.setitem(cli_mod._COMMANDS, "flags", gone)
        redirects = []
        monkeypatch.setattr(os, "dup2",
                            lambda a, b: redirects.append((a, b)))
        assert main(["flags"]) == 141


class TestInterruptHardening:
    """Long-running commands exit cleanly on Ctrl-C: no traceback,
    exit code 130, resources drained."""

    def test_sweep_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.sweep

        def interrupted_sweep(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.sweep, "run_sweep", interrupted_sweep)
        assert main(["sweep"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_serve_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.serve.server as server_mod

        async def interrupted_serve(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(server_mod.ServeServer, "serve_forever",
                            interrupted_serve)
        assert main(["serve", "--port", "0"]) == 130
        captured = capsys.readouterr()
        assert "serving on http://" in captured.out
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_sigint_drains_and_exits_130(self, tmp_path):
        """A real SIGINT to a live server drains and exits 130."""
        import signal
        import subprocess
        import sys as _sys

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd=REPO_ROOT)
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line
            proc.send_signal(signal.SIGINT)
            out = proc.communicate(timeout=20)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "SIGINT received" in out
        assert "drained, bye" in out
        assert "Traceback" not in out


class TestTutorCommand:
    def test_list_prints_the_catalog(self, capsys):
        assert main(["tutor", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("speedup", "warmup", "contention", "pipelining"):
            assert name in out

    def test_missing_lesson_is_usage_error(self, capsys):
        assert main(["tutor"]) == 2
        assert "--lesson" in capsys.readouterr().err

    def test_bad_serve_address_is_usage_error(self, capsys):
        assert main(["tutor", "--lesson", "speedup",
                     "--serve", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_speedup_lesson_runs_headless(self, capsys):
        # The CI acceptance criterion: a full lesson, no terminal.
        assert main(["tutor", "--lesson", "speedup", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "lesson: speedup" in out
        assert "timeline:" in out


class TestStoreCommands:
    def test_operator_lifecycle(self, tmp_path, capsys):
        # init -> plan -> provision -> a sweep persisted through the
        # store survives losing its cache -> list -> gc.
        db = str(tmp_path / "store.db")
        assert main(["store", "init", db]) == 0
        assert "schema version" in capsys.readouterr().out
        assert main(["store", "migrate", db, "--plan"]) == 0
        assert "up to date" in capsys.readouterr().out
        assert main(["store", "tenants", db, "--add", "usi/cs1",
                     "--max-results", "100"]) == 0
        assert "max_results=100" in capsys.readouterr().out

        cache = tmp_path / "cache"
        argv = ["sweep", "--trials", "2", "--seed", "7", "--store", db,
                "--store-tenant", "usi/cs1", "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert "computed 2, cached 0" in capsys.readouterr().out
        shutil.rmtree(cache)
        assert main(argv) == 0
        assert "computed 0, cached 2" in capsys.readouterr().out

        assert main(["store", "results", db, "--tenant", "usi/cs1"]) == 0
        listing = capsys.readouterr().out
        assert "usi/cs1" in listing and listing.endswith("1 results\n")
        assert main(["store", "gc", db, "--tenant", "usi/cs1"]) == 0
        assert "collected 0 results" in capsys.readouterr().out


class TestStoreTokenExpiry:
    def test_issue_with_expiry_and_authenticate(self, tmp_path, capsys):
        db = str(tmp_path / "s.db")
        assert main(["store", "init", db]) == 0
        capsys.readouterr()
        assert main(["store", "token", db, "--issue", "usi/cs1",
                     "--expires-days", "2"]) == 0
        token = capsys.readouterr().out.strip()
        from repro.store import ResultStore
        with ResultStore(db) as store:
            assert store.authenticate(token).path == "usi/cs1"
            row = store._conn.execute(
                "SELECT expires_at FROM tokens").fetchone()
            assert row[0] is not None

    def test_bad_expiry_is_a_store_error(self, tmp_path, capsys):
        db = str(tmp_path / "s.db")
        assert main(["store", "init", db]) == 0
        assert main(["store", "token", db, "--issue", "usi",
                     "--expires-days", "-1"]) == 1
        assert "repro store:" in capsys.readouterr().err
