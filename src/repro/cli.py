"""Command-line interface: ``python -m repro <command>``.

Gives instructors the library's main flows without writing Python:

- ``flags`` — list the catalog.
- ``render FLAG`` — draw a flag (ascii/ansi/svg/ppm).
- ``scenario FLAG N`` — simulate one core scenario.
- ``activity`` — the full four-scenario activity with the whiteboard.
- ``session SITE`` — a whole classroom at one pilot institution.
- ``depgraph FLAG`` — the dependency graph (text or DOT).
- ``analyze FLAG`` — static scenario verification: deadlock cycles,
  work-span speedup ceilings, load and contention bounds, without
  running the engine (``repro.analyze``).
- ``racecheck PATH...`` — static lockset race detection over Python
  sources (``repro.races``): infer which ``self._x`` attributes each
  class guards with ``with self._lock:``, flag accesses that skip the
  lock, honor the justified allowlist in ``tools/races_allow.txt``.
- ``dryrun FLAG`` — Section IV's pre-class checklist.
- ``animate FLAG N`` — frame-by-frame scenario animation (Webster [34]).
- ``slides FLAG N`` — the numbered-cell SVG instruction slide (Fig 1).
- ``debrief SITE`` — the post-activity discussion guide.
- ``report SITE`` — a full markdown session report.
- ``grade`` — grade a simulated Jordan submission cohort (Sec V-C).
- ``tables`` — regenerate Tables I-III from synthetic populations.
- ``chaos FLAG`` — a scenario under a seeded fault plan with recovery.
- ``sweep`` — a declarative experiment grid fanned out over a process
  pool, with an optional content-addressed on-disk result cache.
- ``fabric`` — the same grid on the fault-tolerant sweep fabric
  (``repro.fabric``): leased cells across local subprocess workers
  and/or remote ``repro serve`` endpoints, heartbeat health tracking,
  retries, hedged stragglers, and an optional scripted
  chaos plan — results stay byte-identical to a clean serial sweep.
- ``trace TARGET`` — run a scenario under the observer (or convert an
  exported event log) and write Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto, plus optional metrics dumps.
- ``serve`` — stand the library up as an async HTTP/JSON service
  (``repro.serve``): cached ``/run`` trials, ``/sweep`` grids,
  backpressure, a read-through result cache, Prometheus ``/metrics``,
  graceful drain on SIGTERM/SIGINT — plus, with ``--store``, durable
  persistence, tenant-scoped Bearer-token auth, and the ``/tenants``
  and ``/results`` query endpoints.
- ``store`` — manage the durable multi-tenant result store
  (``repro.store``): ``init``, ``migrate``, ``tenants``, ``token``,
  ``results``, ``gc``.
- ``tutor`` — guided interactive lessons (``repro.stream.tutor``):
  stream a real seeded activity run live — locally or over a
  ``repro serve`` SSE endpoint — and narrate speedup, warmup,
  contention, or pipelining against the terminal Gantt as it unfolds.

Long-running commands (``sweep``, ``serve``) exit cleanly on Ctrl-C:
in-flight work is drained or cancelled, the exit status is 130, and no
traceback is spewed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


def _cmd_flags(args: argparse.Namespace) -> int:
    from .flags import available_flags, get_flag
    for name, desc in sorted(available_flags().items()):
        spec = get_flag(name)
        kind = "layered" if spec.is_layered() else "flat"
        print(f"{name:18s} {spec.default_rows:>2}x{spec.default_cols:<3} "
              f"{kind:7s} {desc}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .flags import get_flag
    from .grid.render import to_ansi, to_ascii, to_ppm, to_svg
    spec = get_flag(args.flag)
    img = spec.final_image(args.rows, args.cols)
    if args.format == "ascii":
        print(to_ascii(img))
    elif args.format == "ansi":
        print(to_ansi(img))
    elif args.format == "svg":
        sys.stdout.write(to_svg(img) + "\n")
    elif args.format == "ppm":
        sys.stdout.buffer.write(to_ppm(img))
    return 0


def _make_team(spec, seed: int, n: int, copies: int = 1):
    from .agents import make_team
    rng = np.random.default_rng(seed)
    return make_team("team", n, rng, colors=list(spec.colors_used()),
                     copies=copies)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .flags import get_flag
    from .schedule import get_scenario, run_scenario
    from .viz import render_agent_loads
    spec = get_flag(args.flag)
    scenario = get_scenario(args.number)
    team = _make_team(spec, args.seed, max(scenario.n_colorers, 4))
    rng = np.random.default_rng(args.seed)
    r = run_scenario(scenario, spec, team, rng)
    print(f"{scenario.name}: {scenario.description}")
    print(f"  measured time : {r.measured_time:.0f}s "
          f"(true {r.true_makespan:.1f}s)")
    print(f"  workers       : {r.n_workers}")
    print(f"  correct flag  : {'yes' if r.correct else 'NO'}")
    print(f"  waiting share : {r.trace.total_wait_fraction():.0%}")
    print()
    print(render_agent_loads(r.trace, width=30))
    return 0 if r.correct else 1


def _cmd_activity(args: argparse.Namespace) -> int:
    from .flags import get_flag
    from .metrics import speedup
    from .schedule import run_core_activity
    spec = get_flag(args.flag)
    team = _make_team(spec, args.seed, 4)
    rng = np.random.default_rng(args.seed)
    results = run_core_activity(spec, team, rng,
                                repeat_first=not args.no_repeat)
    base_key = ("scenario1_repeat" if "scenario1_repeat" in results
                else "scenario1")
    t_base = results[base_key].measured_time
    print(f"{'run':18s} {'time':>8s} {'speedup':>8s}  correct")
    for label, r in results.items():
        s = speedup(t_base, r.measured_time)
        print(f"{label:18s} {r.measured_time:7.0f}s {s:7.2f}x  "
              f"{'yes' if r.correct else 'NO'}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from .classroom import debrief_session, get_institution, run_session
    profile = get_institution(args.site)
    report = run_session(profile, args.seed, n_teams=args.teams)
    print(f"{profile.full_name}: {len(report.teams)} teams")
    for label, times in report.board.items():
        joined = " ".join(f"{t:6.0f}" for t in times)
        print(f"  {label:18s} {joined}")
    print("\ndebrief:")
    for obs in debrief_session(report):
        mark = "x" if obs.detected else " "
        print(f"  [{mark}] {obs.lesson.value:22s} {obs.evidence}")
    return 0


def _cmd_depgraph(args: argparse.Namespace) -> int:
    from .depgraph import flag_dag
    from .depgraph.dot import to_dot
    from .depgraph.schedule_dag import graham_bound, list_schedule
    from .flags import get_flag
    spec = get_flag(args.flag)
    g = flag_dag(spec)
    if args.dot:
        print(to_dot(g, name=spec.name, show_weights=True,
                     highlight_critical_path=True))
        return 0
    print(f"dependency graph for {spec.name}:")
    for level_no, level in enumerate(g.levels()):
        print(f"  level {level_no}: {', '.join(level)}")
    cp, path = g.critical_path()
    print(f"  critical path: {' -> '.join(path)} ({cp:.0f} cells)")
    print(f"  speedup ceiling: {g.ideal_speedup_bound():.2f}x")
    if args.processors:
        sched = list_schedule(g, args.processors)
        print(f"  list schedule on P={args.processors}: "
              f"makespan {sched.makespan:.0f} "
              f"(Graham bound {graham_bound(g, args.processors):.0f})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analyze import analyze_scenario
    from .flags import get_flag
    from .schedule import AcquirePolicy
    spec = get_flag(args.flag)
    policy = AcquirePolicy[args.policy.upper()]
    scenarios = [args.scenario] if args.scenario else [1, 2, 3, 4]
    reports = [
        analyze_scenario(
            spec, n,
            team_size=args.team_size, copies=args.copies, policy=policy,
            rows=args.rows, cols=args.cols,
            hoard=args.hoard, rotate=args.rotate,
        )
        for n in scenarios
    ]
    if args.json:
        for report in reports:
            print(report.to_json().decode("utf-8"))
    else:
        print(f"static analysis: {spec.name} "
              f"(policy {policy.value}"
              f"{', hoarding' if args.hoard else ''}"
              f"{', rotated' if args.rotate else ''})")
        for report in reports:
            print(report.format())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_racecheck(args: argparse.Namespace) -> int:
    import pathlib

    from .races import RaceError, load_allowlist, lockset_report
    allow = {}
    allow_path = (pathlib.Path(args.allowlist)
                  if args.allowlist is not None
                  else pathlib.Path("tools/races_allow.txt"))
    if allow_path.exists():
        try:
            allow = load_allowlist(allow_path)
        except RaceError as exc:
            print(f"repro racecheck: {exc}", file=sys.stderr)
            return 2
    elif args.allowlist is not None:
        print(f"repro racecheck: allowlist not found: {allow_path}",
              file=sys.stderr)
        return 2
    report, unused = lockset_report(args.paths, allow)
    if args.json:
        print(report.to_json().decode("utf-8"))
    else:
        print(report.format())
    severity = "error" if args.strict_unused else "warning"
    for key in unused:
        print(f"repro racecheck: {severity}: unused allowlist entry: {key}",
              file=sys.stderr)
    if not report.ok:
        return 1
    return 1 if (args.strict_unused and unused) else 0


def _cmd_dryrun(args: argparse.Namespace) -> int:
    from .agents import ImplementKit
    from .agents.implements import get_implement
    from .classroom.materials import dry_run
    from .flags import get_flag
    spec = get_flag(args.flag)
    kit = ImplementKit.uniform(spec.colors_used(),
                               get_implement(args.implement))
    report = dry_run(spec, kit, class_minutes=args.minutes)
    print(f"dry run for {spec.name} with {args.implement}s:")
    for key, minutes in report.estimated_minutes.items():
        print(f"  {key:18s} ~{minutes:4.1f} min")
    print(f"  total coloring   ~{report.total_minutes:4.1f} min "
          f"of a {args.minutes:.0f} min period")
    for w in report.warnings:
        print(f"  warning: {w}")
    for p in report.problems:
        print(f"  PROBLEM: {p}")
    print("ready to run" if report.ok else "fix problems before class")
    return 0 if report.ok else 1


def _cmd_animate(args: argparse.Namespace) -> int:
    from .flags import get_flag
    from .schedule import get_scenario, run_scenario
    from .viz import ascii_frames, progress_curve, sparkline
    spec = get_flag(args.flag)
    scenario = get_scenario(args.number)
    team = _make_team(spec, args.seed, max(scenario.n_colorers, 4))
    rng = np.random.default_rng(args.seed)
    r = run_scenario(scenario, spec, team, rng)
    rows, cols = r.canvas.rows, r.canvas.cols
    for frame in ascii_frames(r.trace, rows, cols, n_frames=args.frames):
        print(frame)
        print()
    curve = progress_curve(r.trace, rows, cols)
    print("progress: " + sparkline([f for _, f in curve], vmax=1.0))
    return 0


def _cmd_slides(args: argparse.Namespace) -> int:
    from .classroom.materials import scenario_slide
    from .flags import get_flag
    sys.stdout.write(scenario_slide(get_flag(args.flag), args.number) + "\n")
    return 0


def _cmd_debrief(args: argparse.Namespace) -> int:
    from .classroom import (
        debrief_session,
        discussion_script,
        get_institution,
        run_session,
    )
    report = run_session(get_institution(args.site), args.seed,
                         n_teams=args.teams)
    print(discussion_script(debrief_session(report)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .classroom import get_institution, run_session, session_markdown
    report = run_session(get_institution(args.site), args.seed,
                         n_teams=args.teams)
    sys.stdout.write(session_markdown(report))
    return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    from .depgraph import Category, generate_exact_paper_cohort, grade_all
    rng = np.random.default_rng(args.seed)
    report = grade_all(generate_exact_paper_cohort(rng))
    for cat in Category:
        n = report.counts.get(cat, 0)
        if n:
            print(f"{cat.value:16s} {n:3d}  ({report.fraction(cat):.0%})")
    print(f"at least mostly correct: {report.at_least_mostly_correct:.0%}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .data import INSTITUTIONS
    from .survey.respond import (
        recompute_table,
        synthesize_all,
        table_discrepancies,
    )
    from .viz import format_table
    sets_ = synthesize_all(seed=args.seed)
    ok = True
    for tid in ("I", "II", "III"):
        table = recompute_table(tid, sets_)
        rows = [[q[:55]] + [table[q][i] for i in INSTITUTIONS]
                for q in table]
        print(f"Table {tid}:")
        print(format_table(["question"] + list(INSTITUTIONS), rows))
        diffs = table_discrepancies(tid, sets_)
        ok = ok and not diffs
        print(f"  vs paper: {'exact' if not diffs else diffs}\n")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FaultPlan, RecoveryConfig, RecoveryPolicy, sample_plan
    from .flags import get_flag
    from .flags.compiler import compile_flag
    from .metrics import resilience_report
    from .schedule import get_scenario, run_scenario

    policy = {
        "abandon": RecoveryPolicy.ABANDON,
        "redistribute": RecoveryPolicy.REDISTRIBUTE,
        "spare": RecoveryPolicy.SPARE_WITH_DELAY,
    }[args.policy]
    recovery = RecoveryConfig(policy=policy)
    spec = get_flag(args.flag)
    scenario = get_scenario(args.scenario)
    program = compile_flag(spec, None, None)
    colors = sorted({op.color for op in program.ops}, key=int)

    def one_run(plan):
        team = _make_team(spec, args.seed, max(scenario.n_colorers, 4))
        rng = np.random.default_rng(args.seed)
        return run_scenario(scenario, spec, team, rng,
                            fault_plan=plan, recovery=recovery)

    baseline = one_run(FaultPlan())
    plan = sample_plan(
        np.random.default_rng(args.seed),
        n_workers=scenario.n_colorers,
        colors=colors,
        horizon=baseline.true_makespan,
        n_dropouts=args.dropouts,
        n_implement_failures=args.implement_failures,
        n_stalls=args.stalls,
        n_late=args.late,
    )
    faulted = one_run(plan)
    report = resilience_report(baseline, faulted)

    print(f"chaos run: {spec.name} scenario {scenario.number}, "
          f"policy {policy.value}")
    print("fault plan:")
    for line in plan.describe().splitlines():
        print(f"  {line}")
    print(f"  baseline makespan : {report.baseline_makespan:8.1f}s")
    print(f"  faulted makespan  : {report.faulted_makespan:8.1f}s "
          f"({report.makespan_inflation:.2f}x)")
    print(f"  coverage          : {report.faulted_coverage:.0%} "
          f"(loss {report.coverage_loss:.0%})")
    print(f"  faults fired      : {report.faults_fired}")
    print(f"  ops reassigned    : {report.ops_reassigned}")
    print(f"  ops abandoned     : {report.ops_abandoned}")
    print(f"  recovery latency  : mean {report.mean_recovery_latency:.1f}s, "
          f"max {report.max_recovery_latency:.1f}s")
    print(f"  flag correct      : {'yes' if faulted.correct else 'NO'}")
    return 0


def _grid_spec(args: argparse.Namespace):
    """The :class:`~repro.sweep.SweepSpec` named by the ``_GRID_ARGS`` flags."""
    from .agents.student import FillStyle
    from .schedule import AcquirePolicy
    from .sweep import ACTIVITY, SweepSpec

    scenarios = tuple(
        ACTIVITY if s == "activity" else int(s) for s in args.scenario
    ) or (3,)
    return SweepSpec(
        flags=tuple(args.flag) or ("mauritius",),
        scenarios=scenarios,
        team_sizes=tuple(args.team_size) or (4,),
        policies=tuple(AcquirePolicy[p.upper()] for p in args.policy)
                 or (AcquirePolicy.HOLD_COLOR_RUN,),
        styles=tuple(FillStyle[s.upper()] for s in args.style)
               or (FillStyle.SCRIBBLE,),
        copies=tuple(args.copies) or (1,),
        n_trials=args.trials,
        seed=args.seed,
    )


def _open_store(args: argparse.Namespace):
    """The ``--store`` database opened, or None without the flag."""
    if args.store is None:
        return None
    from .store import ResultStore
    return ResultStore(args.store)


def _print_grid_result(result) -> None:
    """The per-cell table and the totals line ``sweep`` and ``fabric`` print."""
    from .viz import format_table
    print(format_table(
        ["cell", "run", "trials", "median", "correct", "cache"],
        result.table_rows(),
    ))
    print(f"{result.spec.n_cells} cells x {result.spec.n_trials} trials: "
          f"computed {result.computed_trials}, "
          f"cached {result.cached_trials} "
          f"({result.workers} workers, {result.wall_seconds:.2f}s wall)")


def _run_grid(args: argparse.Namespace, run, interrupted: str) -> int:
    """Run a grid command with its ``--store`` open; return the exit code.

    ``run(store)`` computes and prints the grid and returns its
    :class:`~repro.sweep.SweepResult`.  The store is closed however the
    run ends.  Ctrl-C prints ``interrupted`` and exits 130; otherwise
    the exit code is 0 when every run reproduced its flag, else 1.
    """
    store = _open_store(args)
    try:
        result = run(store)
    except KeyboardInterrupt:
        print(interrupted, file=sys.stderr)
        return 130
    finally:
        if store is not None:
            store.close()
    return 0 if result.all_correct else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import run_sweep

    spec = _grid_spec(args)

    def run(store):
        result = run_sweep(spec, workers=args.workers,
                           cache_dir=args.cache_dir,
                           store=store, store_tenant=args.store_tenant,
                           observe=args.observe,
                           backend=args.backend)
        _print_grid_result(result)
        if args.observe:
            for cell in result.cells:
                rolled = cell.obs_rollup(cell.labels()[-1])
                waits = rolled.get("acquire_blocked_total", 0.0)
                print(f"  {cell.cell.describe():44s} "
                      f"events={rolled.get('events_logged_total', 0):g} "
                      f"blocked_acquires={waits:g}")
        return result

    return _run_grid(args, run, "sweep interrupted — worker pool "
                                "cancelled, partial results discarded")


def _parse_chaos_event(text: str):
    """One ``--chaos`` operand -> a chaos event.

    Formats: ``crash:WORKER:LEASE``, ``stall:WORKER:LEASE:SECONDS``,
    ``slowstart:WORKER:SECONDS``, ``drop:WORKER:LEASE``.
    """
    from .fabric import (ChaosError, DroppedResponse, SlowStart,
                         WorkerCrash, WorkerStall)
    parts = text.split(":")
    kind, rest = parts[0], parts[1:]
    try:
        if kind == "crash" and len(rest) == 2:
            return WorkerCrash(worker=rest[0], on_lease=int(rest[1]))
        if kind == "stall" and len(rest) == 3:
            return WorkerStall(worker=rest[0], on_lease=int(rest[1]),
                               stall_s=float(rest[2]))
        if kind == "slowstart" and len(rest) == 2:
            return SlowStart(worker=rest[0], delay_s=float(rest[1]))
        if kind == "drop" and len(rest) == 2:
            return DroppedResponse(worker=rest[0], on_lease=int(rest[1]))
    except (ValueError, ChaosError) as exc:
        raise SystemExit(f"repro fabric: bad --chaos spec {text!r}: {exc}")
    raise SystemExit(
        f"repro fabric: bad --chaos spec {text!r} (expected "
        "crash:W:N, stall:W:N:S, slowstart:W:S, or drop:W:N)")


def _parse_remote(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"repro fabric: bad --remote {text!r} (expected HOST:PORT)")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(
            f"repro fabric: bad --remote port in {text!r}") from None


def _cmd_fabric(args: argparse.Namespace) -> int:
    from .fabric import ChaosPlan, FabricConfig, FabricCoordinator

    spec = _grid_spec(args)
    config = FabricConfig(
        workers=args.workers,
        remotes=tuple(_parse_remote(r) for r in args.remote),
        max_attempts=args.max_attempts,
        hedge_after_s=args.hedge_after if args.hedge_after > 0 else None,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )
    chaos = ChaosPlan.of([_parse_chaos_event(c) for c in args.chaos])

    def run(store):
        coordinator = FabricCoordinator(spec, config,
                                        cache_dir=args.cache_dir,
                                        store=store,
                                        store_tenant=args.store_tenant,
                                        observe=args.observe, chaos=chaos,
                                        backend=args.backend)
        result = coordinator.run()
        _print_grid_result(result)
        stats = coordinator.stats
        print(f"  leases {stats.leases} (retries {stats.retries}, "
              f"hedges {stats.hedges}), "
              f"duplicates {stats.duplicates}, "
              f"worker deaths {stats.worker_deaths}")
        return result

    return _run_grid(args, run, "fabric interrupted — workers terminated, "
                                "partial results discarded")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ServeConfig, ServeServer

    if args.require_token and args.store is None:
        print("repro serve: --require-token needs --store PATH",
              file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host, port=args.port, max_pending=args.max_pending,
        workers=args.workers, default_timeout_s=args.timeout,
        cache_dir=args.cache_dir, cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes, backend=args.backend,
        store_path=args.store, store_tenant=args.store_tenant,
        require_token=args.require_token,
    )

    async def _main() -> bool:
        server = ServeServer(config)
        await server.start()
        loop = asyncio.get_running_loop()

        def _drain(sig_name: str) -> None:
            print(f"{sig_name} received — draining", file=sys.stderr,
                  flush=True)
            asyncio.ensure_future(
                server.shutdown(interrupted=sig_name == "SIGINT"))

        try:
            loop.add_signal_handler(signal.SIGTERM,
                                    lambda: _drain("SIGTERM"))
            loop.add_signal_handler(signal.SIGINT,
                                    lambda: _drain("SIGINT"))
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            pass
        # Announce readiness only once the drain handlers are live, so a
        # supervisor that signals on first output always gets a drain.
        print(f"serving on http://{config.host}:{server.port} "
              f"(max_pending={config.max_pending}, "
              f"workers={config.workers}, "
              f"cache={config.cache_dir or 'off'}, "
              f"store={config.store_path or 'off'})", flush=True)
        await server.serve_forever()
        return server.interrupted

    try:
        interrupted = asyncio.run(_main())
    except KeyboardInterrupt:
        # Signal handlers could not be installed (or the interrupt beat
        # them): asyncio.run has already cancelled and drained the loop.
        print("interrupted — server shut down", file=sys.stderr)
        return 130
    print("drained, bye")
    return 130 if interrupted else 0


def _cmd_store(args: argparse.Namespace) -> int:
    """The ``repro store`` subcommands: init/migrate/tenants/token/results/gc.

    All of them act on one SQLite database path (``--db``), the same
    file ``repro sweep --store`` / ``repro serve --store`` persist
    through.  ``init`` migrates to the head schema; ``migrate`` shows
    or applies pending migrations explicitly; ``tenants`` lists (or
    creates / quota-sets) tenants; ``token`` issues and revokes Bearer
    tokens; ``results`` lists stored results; ``gc`` collects stale or
    over-quota rows.
    """
    from .store import HEAD_VERSION, MigrationError, ResultStore, \
        StoreError, pending

    try:
        if args.store_command == "init":
            with ResultStore(args.db) as store:
                print(f"{args.db}: schema version "
                      f"{store.schema_version} (head {HEAD_VERSION})")
            return 0

        if args.store_command == "migrate":
            with ResultStore(args.db, migrate=False) as store:
                if args.plan:
                    todo = pending(store._conn, args.target)
                    if not todo:
                        print(f"{args.db}: up to date at version "
                              f"{store.schema_version}")
                    for m in todo:
                        print(f"pending {m.version}: {m.name} "
                              f"({len(m.statements)} statements)")
                    return 0
                applied = store.migrate(target=args.target)
                for name in applied:
                    print(f"applied {name}")
                print(f"{args.db}: schema version "
                      f"{store.schema_version} (head {HEAD_VERSION})")
            return 0

        with ResultStore(args.db) as store:
            if args.store_command == "tenants":
                if args.add:
                    tenant = store.ensure_tenant(args.add)
                    print(f"tenant {tenant.path} ({tenant.kind})")
                    if (args.max_results is not None
                            or args.max_bytes is not None):
                        store.set_quota(args.add,
                                        max_results=args.max_results,
                                        max_bytes=args.max_bytes,
                                        retry_after_s=args.retry_after)
                        print(f"  quota: max_results={args.max_results} "
                              f"max_bytes={args.max_bytes} "
                              f"retry_after={args.retry_after:g}s")
                    return 0
                rows = store.tenants()
                if not rows:
                    print("no tenants (add one with --add PATH)")
                for t in rows:
                    quota = t["quota"]
                    limits = ("unlimited" if quota is None else
                              f"max_results={quota['max_results']} "
                              f"max_bytes={quota['max_bytes']}")
                    print(f"{t['path']:32s} {t['kind']:11s} "
                          f"{t['n_results']:5d} results "
                          f"{t['bytes']:10d} B  "
                          f"{t['n_sessions']:3d} sessions  {limits}")
                return 0

            if args.store_command == "token":
                if args.revoke:
                    gone = store.revoke_token(args.revoke)
                    print("revoked" if gone else "no such token")
                    return 0 if gone else 1
                store.ensure_tenant(args.issue)
                token = store.issue_token(args.issue, label=args.label,
                                          expires_days=args.expires_days)
                # The plaintext is shown exactly once; only its hash
                # is stored.
                print(token)
                return 0

            if args.store_command == "results":
                rows = store.results(tenant=args.tenant, limit=args.limit)
                for r in rows:
                    print(f"{r['digest'][:16]:16s} {r['tenant']:24s} "
                          f"{r['kind']:12s} {r['nbytes']:9d} B "
                          f"hits={r['hits']}")
                print(f"{len(rows)} results")
                return 0

            if args.store_command == "gc":
                deleted = store.gc(older_than_s=args.older_than,
                                   tenant=args.tenant)
                print(f"collected {deleted} results")
                return 0
    except (StoreError, MigrationError) as exc:
        print(f"repro store: {exc}", file=sys.stderr)
        return 1
    raise SystemExit(f"unknown store command {args.store_command!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .obs import RunObserver, build_spans, dump_chrome_trace, to_chrome_trace

    target = pathlib.Path(args.target)
    if target.exists():
        # Convert an archived JSON-lines event log (repro.sim.export).
        from .sim.export import import_events
        events = import_events(target.read_text())
        spans = build_spans(events)
        doc = to_chrome_trace(spans)
        summary_text = (f"converted {len(events)} events from {target} "
                        f"into {len(spans)} spans")
        metrics_text = None
    else:
        from .flags import get_flag
        from .schedule import get_scenario, run_scenario
        spec = get_flag(args.target)
        scenario = get_scenario(args.scenario)
        team = _make_team(spec, args.seed, max(scenario.n_colorers, 4))
        rng = np.random.default_rng(args.seed)
        observer = RunObserver()
        fault_plan = None
        recovery = None
        if args.chaos:
            from .faults import FaultPlan, RecoveryConfig, sample_plan
            from .flags.compiler import compile_flag
            program = compile_flag(spec, None, None)
            colors = sorted({op.color for op in program.ops}, key=int)
            baseline = run_scenario(scenario, spec,
                                    _make_team(spec, args.seed,
                                               max(scenario.n_colorers, 4)),
                                    np.random.default_rng(args.seed))
            fault_plan = sample_plan(
                np.random.default_rng(args.seed),
                n_workers=scenario.n_colorers, colors=colors,
                horizon=baseline.true_makespan,
                n_dropouts=1, n_implement_failures=1, n_stalls=1,
            )
            recovery = RecoveryConfig()
        result = run_scenario(scenario, spec, team, rng,
                              fault_plan=fault_plan, recovery=recovery,
                              observer=observer)
        doc = observer.chrome_trace()
        metrics_text = observer.prometheus()
        summary_text = result.obs.format() if result.obs else ""

    out = pathlib.Path(args.out)
    out.write_text(dump_chrome_trace(doc) + "\n")
    n_slices = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {out}: {len(doc['traceEvents'])} trace events "
          f"({n_slices} slices) — load it at ui.perfetto.dev or "
          f"chrome://tracing")
    if args.metrics:
        if metrics_text is None:
            print("note: --metrics ignored when converting an event log")
        else:
            pathlib.Path(args.metrics).write_text(metrics_text)
            print(f"wrote {args.metrics}: "
                  f"{len(metrics_text.splitlines())} metric lines")
    if summary_text:
        print(summary_text)
    json.loads(out.read_text())  # self-check: the file is valid JSON
    return 0


def _cmd_tutor(args: argparse.Namespace) -> int:
    """The ``repro tutor`` command: guided live-streamed lessons.

    Each lesson drives one real seeded engine run through the
    ``repro.stream`` bus and narrates a PDC concept — speedup, warmup,
    contention, pipelining — against the numbers as they arrive.  With
    ``--serve HOST:PORT`` the frames come over a live SSE connection
    instead of an in-process bus, so the terminal session doubles as
    an end-to-end check of a running ``repro serve`` endpoint.
    """
    from .stream.tutor import TutorError, lesson_catalog, run_lesson

    if args.list:
        print(lesson_catalog())
        return 0
    if args.lesson is None:
        print("repro tutor: pick a lesson with --lesson "
              "(or see --list)", file=sys.stderr)
        return 2
    serve = None
    if args.serve is not None:
        host, sep, port = args.serve.rpartition(":")
        if not sep or not host or not port.isdigit():
            print(f"repro tutor: --serve wants HOST:PORT, "
                  f"got {args.serve!r}", file=sys.stderr)
            return 2
        serve = (host, int(port))
    try:
        run_lesson(args.lesson, flag=args.flag, seed=args.seed,
                   team_size=args.team_size, serve=serve,
                   token=args.token, width=args.width, out=print)
    except TutorError as exc:
        print(f"repro tutor: {exc}", file=sys.stderr)
        return 1
    return 0


#: A flag group as ``(option, argparse keyword arguments)`` rows.
_ArgTable = Tuple[Tuple[str, Dict[str, Any]], ...]

#: The experiment-grid axes ``sweep`` and ``fabric`` share; read back
#: by :func:`_grid_spec`.
_GRID_ARGS: _ArgTable = (
    ("--flag", dict(action="append", default=[],
                    help="flag axis (repeatable; default mauritius)")),
    ("--scenario", dict(action="append", default=[],
                        choices=("1", "2", "3", "4", "activity"),
                        help="scenario axis (repeatable; 'activity' = all "
                             "four scenarios with the scenario-1 repeat; "
                             "default 3)")),
    ("--team-size", dict(action="append", type=int, default=[],
                         dest="team_size",
                         help="team size axis (default 4)")),
    ("--policy", dict(action="append", default=[],
                      choices=("hold_color_run", "release_per_stroke"),
                      help="acquisition policy axis (default "
                           "hold_color_run)")),
    ("--style", dict(action="append", default=[],
                     choices=("full", "scribble", "minimal"),
                     help="fill style axis (default scribble)")),
    ("--copies", dict(action="append", type=int, default=[],
                      help="duplicate-implements axis (default 1)")),
    ("--trials", dict(type=int, default=8,
                      help="independent trials per cell")),
    ("--seed", dict(type=int, default=0)),
)

#: Where results come from and go; ``sweep``, ``fabric`` and ``serve``
#: share these.
_RESULT_ARGS: _ArgTable = (
    ("--cache-dir", dict(default=None,
                         help="content-addressed result cache directory, "
                              "one format for sweep, fabric and serve; "
                              "warm re-runs recompute nothing")),
    ("--store", dict(default=None,
                     help="durable result store database (repro.store): "
                          "results persist across restarts and cache "
                          "deletion; serve adds /tenants, /results and "
                          "token auth")),
    ("--store-tenant", dict(default="public", dest="store_tenant",
                            help="tenant path results are stored under "
                                 "(serve: the tenant unauthenticated "
                                 "requests act as)")),
    ("--backend", dict(default="reference",
                       choices=("reference", "vector", "auto"),
                       help="trial engine: the reference event loop, the "
                            "batched vector engine (identical metrics, no "
                            "traces), or auto per-cell selection; serve "
                            "request bodies may override it")),
)


def _add_args(parser: argparse.ArgumentParser, table: _ArgTable) -> None:
    """Add every flag of a shared group to one subcommand's parser."""
    for option, kwargs in table:
        parser.add_argument(option, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="flagsim: the unplugged PDC flag-coloring activity, "
                    "simulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("flags", help="list the flag catalog")

    p = sub.add_parser("render", help="draw a flag")
    p.add_argument("flag")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--format", choices=("ascii", "ansi", "svg", "ppm"),
                   default="ansi")

    p = sub.add_parser("scenario", help="simulate one core scenario")
    p.add_argument("flag")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("activity", help="run the full core activity")
    p.add_argument("--flag", default="mauritius")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--no-repeat", action="store_true",
                   help="do not repeat scenario 1")

    p = sub.add_parser("session", help="simulate a whole classroom")
    p.add_argument("site", choices=("HPU", "USI", "Knox", "TNTech",
                                    "Webster", "Montclair"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teams", type=int, default=3)

    p = sub.add_parser("depgraph", help="show a flag's dependency graph")
    p.add_argument("flag")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--processors", type=int, default=0,
                   help="also list-schedule onto P processors")

    p = sub.add_parser(
        "analyze",
        help="statically verify a scenario: deadlock, bounds, contention")
    p.add_argument("flag")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4),
                   default=None,
                   help="one scenario (default: analyze all four)")
    p.add_argument("--team-size", type=int, default=4, dest="team_size")
    p.add_argument("--copies", type=int, default=1,
                   help="duplicate implements per color")
    p.add_argument("--policy",
                   choices=("hold_color_run", "release_per_stroke"),
                   default="hold_color_run")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--hoard", action="store_true",
                   help="model students who grab the next implement "
                        "before releasing the current one")
    p.add_argument("--rotate", action="store_true",
                   help="model the rotated per-worker color order")
    p.add_argument("--json", action="store_true",
                   help="emit canonical-JSON reports, one per line")

    p = sub.add_parser(
        "racecheck",
        help="static lockset race detection over Python sources")
    p.add_argument("paths", nargs="+",
                   help="files or directories to analyze")
    p.add_argument("--allowlist", default=None,
                   help="justified suppressions (default "
                        "tools/races_allow.txt when present)")
    p.add_argument("--strict-unused", action="store_true",
                   dest="strict_unused",
                   help="stale allowlist entries are a hard failure")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical RaceReport JSON")

    p = sub.add_parser("dryrun", help="pre-class checklist (Section IV)")
    p.add_argument("flag")
    p.add_argument("--implement", default="thick_marker")
    p.add_argument("--minutes", type=float, default=50.0)

    p = sub.add_parser("animate", help="frame-by-frame scenario animation")
    p.add_argument("flag")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--frames", type=int, default=6)

    p = sub.add_parser("slides", help="SVG instruction slide for a scenario")
    p.add_argument("flag")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))

    p = sub.add_parser("debrief", help="post-activity discussion guide")
    p.add_argument("site", choices=("HPU", "USI", "Knox", "TNTech",
                                    "Webster", "Montclair"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teams", type=int, default=3)

    p = sub.add_parser("report", help="markdown session report")
    p.add_argument("site", choices=("HPU", "USI", "Knox", "TNTech",
                                    "Webster", "Montclair"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teams", type=int, default=3)

    p = sub.add_parser("grade", help="grade a simulated Jordan cohort")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tables", help="regenerate Tables I-III")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("chaos",
                       help="run a scenario under a seeded fault plan")
    p.add_argument("flag")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), default=4)
    p.add_argument("--policy",
                   choices=("abandon", "redistribute", "spare"),
                   default="redistribute")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dropouts", type=int, default=1)
    p.add_argument("--implement-failures", type=int, default=1,
                   dest="implement_failures")
    p.add_argument("--stalls", type=int, default=1)
    p.add_argument("--late", type=int, default=0)

    p = sub.add_parser(
        "sweep",
        help="run a declarative experiment grid across a process pool")
    _add_args(p, _GRID_ARGS)
    _add_args(p, _RESULT_ARGS)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (parallel runs are "
                        "byte-identical to serial)")
    p.add_argument("--observe", action="store_true",
                   help="attach the observability layer to every run and "
                        "print per-cell counter roll-ups")

    p = sub.add_parser(
        "fabric",
        help="run an experiment grid on the fault-tolerant sweep fabric")
    _add_args(p, _GRID_ARGS)
    _add_args(p, _RESULT_ARGS)
    p.add_argument("--workers", type=int, default=2,
                   help="local subprocess workers (w0..wN-1)")
    p.add_argument("--remote", action="append", default=[],
                   help="remote 'repro serve' endpoint as HOST:PORT "
                        "(repeatable; named r0..rN-1)")
    p.add_argument("--max-attempts", type=int, default=5,
                   dest="max_attempts",
                   help="lease attempts per cell before the sweep fails")
    p.add_argument("--hedge-after", type=float, default=5.0,
                   dest="hedge_after",
                   help="hedge a straggling lease after this many "
                        "seconds (0 disables hedging)")
    p.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   dest="heartbeat_timeout",
                   help="abandon a lease after this much worker silence")
    p.add_argument("--chaos", action="append", default=[],
                   help="scripted failure (repeatable): crash:W:N, "
                        "stall:W:N:S, slowstart:W:S, drop:W:N — e.g. "
                        "crash:w0:1 kills w0 on its first lease")
    p.add_argument("--observe", action="store_true",
                   help="attach the observability layer to every run")

    p = sub.add_parser(
        "serve",
        help="stand the simulator up as an async HTTP/JSON service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (0 picks an ephemeral port)")
    p.add_argument("--max-pending", type=int, default=64,
                   dest="max_pending",
                   help="admission limit before requests get 429")
    p.add_argument("--workers", type=int, default=0,
                   help="trial-compute processes (0 = one in-process "
                        "compute thread)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline, seconds")
    _add_args(p, _RESULT_ARGS)
    p.add_argument("--cache-max-entries", type=int, default=None,
                   dest="cache_max_entries",
                   help="LRU-prune the cache beyond this many entries")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   dest="cache_max_bytes",
                   help="LRU-prune the cache beyond this many bytes")
    p.add_argument("--require-token", action="store_true",
                   dest="require_token",
                   help="refuse tokenless /run /sweep /task /results "
                        "/tenants requests with 401 (needs --store)")

    p = sub.add_parser(
        "store",
        help="manage the durable result store (init/migrate/tenants/"
             "token/results/gc)")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("init",
                              help="create the database and migrate it "
                                   "to the head schema")
    sp.add_argument("db", help="SQLite database path")

    sp = store_sub.add_parser("migrate",
                              help="apply (or --plan) pending schema "
                                   "migrations")
    sp.add_argument("db", help="SQLite database path")
    sp.add_argument("--target", type=int, default=None,
                    help="stop at this schema version (default: head)")
    sp.add_argument("--plan", action="store_true",
                    help="list pending migrations without applying")

    sp = store_sub.add_parser("tenants",
                              help="list tenants, or create one with "
                                   "--add (optionally with a quota)")
    sp.add_argument("db", help="SQLite database path")
    sp.add_argument("--add", default=None, metavar="PATH",
                    help="create a tenant path like usi/cs1/spring26 "
                         "(institution/class/cohort)")
    sp.add_argument("--max-results", type=int, default=None,
                    dest="max_results",
                    help="with --add: quota on stored result count")
    sp.add_argument("--max-bytes", type=int, default=None,
                    dest="max_bytes",
                    help="with --add: quota on stored payload bytes")
    sp.add_argument("--retry-after", type=float, default=60.0,
                    dest="retry_after",
                    help="Retry-After hint (seconds) on 429 refusals")

    sp = store_sub.add_parser("token",
                              help="issue (--issue PATH) or revoke "
                                   "(--revoke TOKEN) a Bearer token")
    sp.add_argument("db", help="SQLite database path")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--issue", default=None, metavar="PATH",
                       help="mint a token for this tenant path; the "
                            "plaintext is printed exactly once")
    group.add_argument("--revoke", default=None, metavar="TOKEN",
                       help="revoke a previously-issued token")
    sp.add_argument("--label", default=None,
                    help="with --issue: a human-readable token label")
    sp.add_argument("--expires-days", type=float, default=None,
                    dest="expires_days", metavar="N",
                    help="with --issue: the token expires N days from "
                         "now (default: never); an expired token gets "
                         "401 token_expired from repro serve")

    sp = store_sub.add_parser("results", help="list stored results")
    sp.add_argument("db", help="SQLite database path")
    sp.add_argument("--tenant", default=None,
                    help="restrict to one tenant path")
    sp.add_argument("--limit", type=int, default=None,
                    help="cap the listing length")

    sp = store_sub.add_parser("gc",
                              help="collect stale and over-quota results")
    sp.add_argument("db", help="SQLite database path")
    sp.add_argument("--older-than", type=float, default=None,
                    dest="older_than",
                    help="drop results created more than this many "
                         "seconds ago")
    sp.add_argument("--tenant", default=None,
                    help="restrict collection to one tenant path")

    p = sub.add_parser(
        "trace",
        help="run a scenario under the observer and export a Chrome trace")
    p.add_argument("target",
                   help="flag name to simulate, or path to a JSON-lines "
                        "event log exported via repro.sim.export")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--chaos", action="store_true",
                   help="inject a seeded fault plan into the traced run")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON output path")
    p.add_argument("--metrics", default=None,
                   help="also write a Prometheus-style metrics dump here")

    p = sub.add_parser(
        "tutor",
        help="guided live-streamed PDC lessons (repro.stream.tutor)")
    # Literal choices keep parser construction import-free; a test
    # pins them to repro.stream.tutor.LESSONS.
    p.add_argument("--lesson", default=None,
                   choices=("contention", "pipelining", "speedup",
                            "warmup"),
                   help="which lesson to run (see --list)")
    p.add_argument("--list", action="store_true",
                   help="print the lesson catalog and exit")
    p.add_argument("--flag", default="mauritius",
                   help="flag to color during the lesson")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the lesson's engine runs")
    p.add_argument("--team-size", type=int, default=6,
                   dest="team_size",
                   help="students on the concurrent-scenario team")
    p.add_argument("--serve", default=None, metavar="HOST:PORT",
                   help="stream the lesson from a live repro serve "
                        "endpoint over SSE instead of in-process")
    p.add_argument("--token", default=None,
                   help="Bearer token for a --require-token server")
    p.add_argument("--width", type=int, default=64,
                   help="terminal Gantt width in characters")

    return parser


_COMMANDS = {
    "flags": _cmd_flags,
    "render": _cmd_render,
    "scenario": _cmd_scenario,
    "activity": _cmd_activity,
    "session": _cmd_session,
    "depgraph": _cmd_depgraph,
    "analyze": _cmd_analyze,
    "racecheck": _cmd_racecheck,
    "dryrun": _cmd_dryrun,
    "animate": _cmd_animate,
    "slides": _cmd_slides,
    "debrief": _cmd_debrief,
    "report": _cmd_report,
    "grade": _cmd_grade,
    "tables": _cmd_tables,
    "chaos": _cmd_chaos,
    "fabric": _cmd_fabric,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "tutor": _cmd_tutor,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader went away (e.g. `repro analyze ... | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise a second time, and exit like a SIGPIPE'd tool.
        # stdout may have no real fd (captured in tests): nothing to
        # redirect then.
        import contextlib
        import os
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY),
                    sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
