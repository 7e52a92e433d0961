#!/usr/bin/env python3
"""A rule-based AST linter for the simulator's house invariants.

A small engine that parses each file once and runs a set of *rule
classes* over it, each rule scoped to the subtrees where its invariant
must hold.  The rules encode what the repo's determinism, service and
documentation layers promise:

DET — determinism (``repro`` sim/sweep/faults/schedule/agents paths):
  DET001  wall-clock reads (``time.time``/``perf_counter``/
          ``datetime.now`` ...) inside simulation/experiment code —
          results must be a function of the seed, never the host clock.
  DET002  global random state (stdlib ``random.*`` calls, legacy
          ``np.random.<dist>`` calls) — all randomness flows through
          injected ``numpy.random.Generator`` streams.
  DET003  unseeded RNG construction (``default_rng()`` with no seed,
          ``random.Random()``, ``np.random.RandomState()``) anywhere in
          ``src/repro`` except the one module whose job is seeding
          (``sweep/seeding.py``).

ASYNC — event-loop safety (``repro/serve`` and ``repro/stream``):
  ASYNC001  blocking ``time.sleep`` inside an ``async def`` body.
  ASYNC002  synchronous file I/O (``open``, ``Path.read_text`` ...)
            inside an ``async def`` body.
  ASYNC003  ``await <queue>.put(...)`` inside an ``async def`` body —
            an awaited put either blocks the coroutine (bounded queue)
            or hides unbounded growth (infinite queue); the streaming
            layer's contract is bounded per-subscriber buffers with
            explicit drop-oldest accounting instead.

LOCK — thread lifecycle (the threaded ``repro`` subsystems: stream,
store, fabric, serve).  Lock *discipline* (which attributes a lock
guards, and who skips it) is ``repro racecheck``'s job
(``repro.races.lockset``); the tier-1 suite runs both:
  LOCK002  ``threading.Thread(...)`` constructed without ``daemon=``
           and without a visible ``.join()`` on the assigned name —
           a leak-on-exit thread with no shutdown path.

HYG — hygiene (every file):
  HYG001  mutable default argument.
  HYG002  bare ``except:``.

D — docstrings (``src/`` and ``tools/``; pydocstyle's D1xx subset):
  D100  missing docstring in public module
  D101  missing docstring in public class
  D102  missing docstring in public method
  D103  missing docstring in public function
  "Public" means no leading underscore on the name or any enclosing
  class; dunders are exempt (constructor arguments are documented in
  the class docstring), as are ``...``-only stubs, and defs nested in
  functions are not checked.

DET rules also police ``benchmarks/``: benchmark *measurement* needs
the wall clock, so those timers are allowlisted by name; everything
else in a benchmark must stay seed-deterministic like the library.

Findings can be suppressed via an allowlist file (default
``tools/simlint_allow.txt``): one entry per line,
``CODE path::symbol -- justification``, justification mandatory.
Unused entries are reported to stderr (exit status unaffected) so the
allowlist cannot rot silently; with ``--strict-unused`` (what
``tests/test_simlint.py`` runs) a stale entry is a hard failure.

Usage::

    python tools/simlint.py src tools benchmarks
    python tools/simlint.py --strict-unused src tools benchmarks
    python tools/simlint.py --allowlist my_allow.txt src/repro/serve

Exit status 0 when clean (after allowlisting), 1 with a per-violation
report otherwise, 2 for usage/allowlist-format errors.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: file, line, code, symbol, message
Violation = Tuple[pathlib.Path, int, str, str, str]

#: (node, dotted symbol of the innermost enclosing def/class chain or
#: "<module>", whether the innermost enclosing *function* is async)
ScopedNode = Tuple[ast.AST, str, bool]


def iter_scoped(tree: ast.Module) -> Iterator[ScopedNode]:
    """Walk a module yielding every node with its enclosing symbol.

    The symbol is the dotted def/class chain (``Class.method``), or
    ``<module>`` at top level — the same naming the allowlist keys use.
    ``in_async`` is True only when the *innermost* enclosing function
    is ``async def``: a synchronous helper nested inside a coroutine
    runs off the await chain, so ASYNC rules stop at its boundary.
    """

    def walk(node: ast.AST, symbol: str,
             in_async: bool) -> Iterator[ScopedNode]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = (f"{symbol}.{child.name}"
                         if symbol != "<module>" else child.name)
                async_now = (isinstance(child, ast.AsyncFunctionDef)
                             if not isinstance(child, ast.ClassDef)
                             else False)
                yield child, inner, async_now
                yield from walk(child, inner, async_now)
            else:
                yield child, symbol, in_async
                yield from walk(child, symbol, in_async)

    yield from walk(tree, "<module>", False)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """One lint invariant: a code, a path scope, and a check.

    Subclasses set ``code``/``description``, optionally narrow
    ``scopes`` (posix path fragments; empty = every file) and
    ``excludes``, and implement :meth:`check`.
    """

    code = "XXX000"
    description = ""
    scopes: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        """Whether this rule is in force for a file."""
        if any(frag in relpath for frag in self.excludes):
            return False
        return not self.scopes or any(frag in relpath
                                      for frag in self.scopes)

    def check(self, path: pathlib.Path, tree: ast.Module,
              scoped: List[ScopedNode]) -> List[Violation]:
        """Return this rule's violations for one parsed file."""
        raise NotImplementedError

    def violation(self, path: pathlib.Path, node: ast.AST, symbol: str,
                  message: str, code: Optional[str] = None) -> Violation:
        """Build one finding anchored at a node (a module is line 1)."""
        return (path, getattr(node, "lineno", 1), code or self.code,
                symbol, message)


_SIM_PATHS = ("src/repro/sim/", "src/repro/sweep/", "src/repro/faults/",
              "src/repro/schedule/", "src/repro/agents/",
              "src/repro/fabric/", "src/repro/stream/",
              "src/repro/races/", "benchmarks/")

#: The hand-locked threaded subsystems the LOCK rules police.
_THREADED_PATHS = ("src/repro/stream/", "src/repro/store/",
                   "src/repro/fabric/", "src/repro/serve/")

#: Legitimate np.random attributes that are *not* global-state draws.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence",
                 "BitGenerator", "PCG64", "Philox", "RandomState"}

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}


class WallClockRule(Rule):
    """DET001: no host-clock reads inside deterministic code."""

    code = "DET001"
    description = "wall-clock read in deterministic simulation code"
    scopes = _SIM_PATHS

    def check(self, path, tree, scoped):
        """Flag calls to time/datetime wall-clock functions."""
        out = []
        for node, symbol, _ in scoped:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK:
                    out.append(self.violation(
                        path, node, symbol,
                        f"{name}() reads the host clock; results must "
                        f"depend only on the seed"))
        return out


class GlobalRandomRule(Rule):
    """DET002: no global random state inside deterministic code."""

    code = "DET002"
    description = "global random state in deterministic simulation code"
    scopes = _SIM_PATHS

    def check(self, path, tree, scoped):
        """Flag stdlib ``random.*`` and legacy ``np.random.<dist>`` calls."""
        out = []
        for node, symbol, _ in scoped:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) == 2:
                out.append(self.violation(
                    path, node, symbol,
                    f"{name}() draws from the process-global stdlib "
                    f"stream; use an injected numpy Generator"))
            elif (len(parts) == 3 and parts[1] == "random"
                  and parts[0] in ("np", "numpy")
                  and parts[2] not in _NP_RANDOM_OK):
                out.append(self.violation(
                    path, node, symbol,
                    f"{name}() draws from numpy's legacy global stream; "
                    f"use an injected numpy Generator"))
        return out


class UnseededRngRule(Rule):
    """DET003: RNGs are constructed from explicit seeds, in one place."""

    code = "DET003"
    description = "unseeded RNG construction outside sweep/seeding.py"
    scopes = ("src/repro/", "benchmarks/")
    excludes = ("src/repro/sweep/seeding.py",)

    def check(self, path, tree, scoped):
        """Flag ``default_rng()``/``Random()``/``RandomState()`` with no seed."""
        out = []
        for node, symbol, _ in scoped:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            unseeded = (not node.args and not node.keywords) or (
                len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None)
            if not unseeded:
                continue
            if (name.split(".")[-1] == "default_rng"
                    or name in ("random.Random", "np.random.RandomState",
                                "numpy.random.RandomState")):
                out.append(self.violation(
                    path, node, symbol,
                    f"{name}() without a seed is nondeterministic; "
                    f"derive streams via repro.sweep.seeding"))
        return out


class AsyncSleepRule(Rule):
    """ASYNC001: coroutines must not block the event loop sleeping."""

    code = "ASYNC001"
    description = "blocking time.sleep inside async def"
    scopes = ("src/repro/serve/",)

    def check(self, path, tree, scoped):
        """Flag ``time.sleep`` where the innermost function is async."""
        out = []
        for node, symbol, in_async in scoped:
            if (in_async and isinstance(node, ast.Call)
                    and dotted_name(node.func) == "time.sleep"):
                out.append(self.violation(
                    path, node, symbol,
                    "time.sleep() blocks the event loop; use "
                    "asyncio.sleep()"))
        return out


_SYNC_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


class AsyncFileIoRule(Rule):
    """ASYNC002: coroutines must not do synchronous file I/O inline."""

    code = "ASYNC002"
    description = "synchronous file I/O inside async def"
    scopes = ("src/repro/serve/",)

    def check(self, path, tree, scoped):
        """Flag ``open()`` and Path read/write calls in async bodies."""
        out = []
        for node, symbol, in_async in scoped:
            if not in_async or not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                out.append(self.violation(
                    path, node, symbol,
                    "open() blocks the event loop; use "
                    "run_in_executor or pre-read outside the coroutine"))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SYNC_IO_METHODS):
                out.append(self.violation(
                    path, node, symbol,
                    f".{node.func.attr}() blocks the event loop; use "
                    f"run_in_executor or pre-read outside the coroutine"))
        return out


class AsyncQueuePutRule(Rule):
    """ASYNC003: no awaited queue puts in the serving/streaming layers.

    ``await q.put(...)`` is how an ``asyncio.Queue`` applies
    backpressure — which is exactly what the streaming contract rules
    out: a slow subscriber must *drop* (counted) rather than stall the
    publisher, and an unbounded queue just defers the failure to
    memory.  Fan-out buffers here are bounded deques with explicit
    drop-oldest accounting (``repro.stream.bus``); anything else is a
    design smell worth a loud flag.
    """

    code = "ASYNC003"
    description = "awaited Queue.put inside async def"
    scopes = ("src/repro/serve/", "src/repro/stream/")

    def check(self, path, tree, scoped):
        """Flag ``await <expr>.put(...)`` where the function is async."""
        out = []
        for node, symbol, in_async in scoped:
            if (in_async and isinstance(node, ast.Await)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "put"):
                out.append(self.violation(
                    path, node, symbol,
                    "await .put() stalls the publisher (bounded) or "
                    "grows without limit (unbounded); use a bounded "
                    "buffer with counted drop-oldest "
                    "(repro.stream.bus)"))
        return out


class ThreadLifecycleRule(Rule):
    """LOCK002: every thread needs a shutdown story.

    A ``threading.Thread`` that is neither ``daemon=`` nor joined
    anywhere in its module outlives shutdown silently: interpreter
    exit blocks on it, or it keeps mutating state during teardown.
    Either mark the intent (``daemon=True`` plus whatever drain the
    design needs) or keep a handle and ``.join()`` it.
    """

    code = "LOCK002"
    description = "Thread without daemon= or a visible join path"
    scopes = _THREADED_PATHS

    @staticmethod
    def _is_thread_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and dotted_name(node.func) in ("threading.Thread",
                                               "Thread"))

    def check(self, path, tree, scoped):
        """Flag un-daemoned Thread constructions with no join path."""
        joined: Set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                base = dotted_name(node.func.value)
                if base:
                    joined.add(base.split(".")[-1])
        assigned: Dict[int, List[str]] = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and self._is_thread_call(node.value)):
                names = []
                for target in node.targets:
                    name = dotted_name(target)
                    if name:
                        names.append(name.split(".")[-1])
                assigned[id(node.value)] = names
        out = []
        for node, symbol, _ in scoped:
            if not self._is_thread_call(node):
                continue
            if any(kw.arg == "daemon" for kw in node.keywords):
                continue
            if any(name in joined
                   for name in assigned.get(id(node), [])):
                continue
            out.append(self.violation(
                path, node, symbol,
                "Thread() without daemon= or a .join() on its handle "
                "has no shutdown path; mark it daemon (plus a drain) "
                "or join it"))
        return out


class MutableDefaultRule(Rule):
    """HYG001: default argument values must be immutable."""

    code = "HYG001"
    description = "mutable default argument"

    def check(self, path, tree, scoped):
        """Flag list/dict/set literals (or constructors) as defaults."""
        out = []
        for node, symbol, _ in scoped:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                mutable = isinstance(default,
                                     (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set"))
                if mutable:
                    out.append(self.violation(
                        path, default, symbol or node.name,
                        f"mutable default on {node.name}(); use None "
                        f"and create inside the body"))
        return out


class BareExceptRule(Rule):
    """HYG002: exception handlers must name what they catch."""

    code = "HYG002"
    description = "bare except clause"

    def check(self, path, tree, scoped):
        """Flag ``except:`` with no exception type."""
        out = []
        for node, symbol, _ in scoped:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                out.append(self.violation(
                    path, node, symbol,
                    "bare except swallows KeyboardInterrupt/SystemExit; "
                    "catch Exception or something narrower"))
        return out


def _is_stub(node: ast.AST) -> bool:
    """Whether a def's body is only ``...`` (Protocol members, overloads)."""
    return all(isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
               and s.value.value is Ellipsis for s in node.body)


class DocstringRule(Rule):
    """D100-D103: public modules, classes and functions carry docstrings.

    The static twin of the import-time meta-test in
    ``tests/test_api_quality.py``: it needs no import of the package.
    Only top-level defs and the bodies of public classes are checked;
    a private class hides its members, and a def nested in a function
    is an implementation detail.
    """

    code = "D100"
    description = "missing docstring on a public module/class/function"
    scopes = ("src/", "tools/")

    def check(self, path, tree, scoped):
        """Flag public definitions that open without a docstring."""
        out = []
        stem = path.stem
        if ((not stem.startswith("_") or stem == "__init__")
                and ast.get_docstring(tree) is None):
            out.append(self.violation(path, tree, "<module>",
                                      "missing docstring in public module"))
        # id(def) -> whether it is a method, for every def the rule can
        # reach: top-level ones, then the bodies of reached public classes.
        reachable = {id(n): False for n in tree.body}
        for node, symbol, _ in scoped:
            if (id(node) not in reachable
                    or not isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.ClassDef):
                reachable.update((id(n), True) for n in node.body)
                code, kind = "D101", "class"
            elif _is_stub(node):
                continue
            elif reachable[id(node)]:
                code, kind = "D102", "method"
            else:
                code, kind = "D103", "function"
            if ast.get_docstring(node) is None:
                out.append(self.violation(
                    path, node, symbol, f"missing docstring in public {kind}",
                    code=code))
        return out


RULES: List[Rule] = [
    WallClockRule(),
    GlobalRandomRule(),
    UnseededRngRule(),
    AsyncSleepRule(),
    AsyncFileIoRule(),
    AsyncQueuePutRule(),
    ThreadLifecycleRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    DocstringRule(),
]


def _relpath(path: pathlib.Path) -> str:
    """Posix path used in reports and allowlist keys (cwd-relative)."""
    try:
        return path.resolve().relative_to(
            pathlib.Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_file(path: pathlib.Path,
               rules: List[Rule]) -> List[Violation]:
    """Run every applicable rule over one file."""
    relpath = _relpath(path)
    active = [r for r in rules if r.applies(relpath)]
    if not active:
        return []
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - broken source
        return [(path, exc.lineno or 0, "E999", "<module>",
                 f"syntax error: {exc.msg}")]
    scoped = list(iter_scoped(tree))
    out: List[Violation] = []
    for rule in active:
        out.extend(rule.check(path, tree, scoped))
    out.sort(key=lambda v: (v[1], v[2]))
    return out


def lint(paths: List[str],
         rules: Optional[List[Rule]] = None) -> List[Violation]:
    """Lint files and directories (recursively); returns all violations."""
    rules = RULES if rules is None else rules
    out: List[Violation] = []
    for raw in paths:
        p = pathlib.Path(raw)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            out.extend(check_file(f, rules))
    return out


class AllowlistError(Exception):
    """Raised for malformed allowlist entries (missing justification)."""


def load_allowlist(path: pathlib.Path) -> Dict[str, str]:
    """Parse an allowlist file into {``CODE path::symbol``: justification}.

    Format, one entry per line (``#`` comments and blanks ignored)::

        DET001 src/repro/sweep/executor.py::run_sweep -- why it is fine

    Raises:
        AllowlistError: for entries without a ``--`` justification.
    """
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if " -- " not in line:
            raise AllowlistError(
                f"{path}:{lineno}: allowlist entry needs a "
                f"' -- justification': {line!r}")
        key, justification = line.split(" -- ", 1)
        key = " ".join(key.split())
        if not justification.strip():
            raise AllowlistError(
                f"{path}:{lineno}: empty justification: {line!r}")
        entries[key] = justification.strip()
    return entries


def apply_allowlist(
    violations: List[Violation],
    allow: Dict[str, str],
) -> Tuple[List[Violation], List[str]]:
    """Drop allowlisted violations; report unused allowlist keys.

    Returns:
        ``(kept, unused_keys)`` — kept violations in input order, plus
        every allowlist key that suppressed nothing (stale entries).
    """
    used: Set[str] = set()
    kept: List[Violation] = []
    for v in violations:
        path, _, code, symbol, _ = v
        key = f"{code} {_relpath(path)}::{symbol}"
        if key in allow:
            used.add(key)
        else:
            kept.append(v)
    unused = sorted(set(allow) - used)
    return kept, unused


def main(argv: List[str]) -> int:
    """CLI entry point: lint the given paths, report, set exit status."""
    allow_path = pathlib.Path(__file__).parent / "simlint_allow.txt"
    strict_unused = False
    args: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--allowlist":
            raw = next(it, None)
            if raw is None:
                print("simlint: --allowlist needs a path", file=sys.stderr)
                return 2
            allow_path = pathlib.Path(raw)
        elif arg == "--strict-unused":
            strict_unused = True
        else:
            args.append(arg)
    if not args:
        print("usage: simlint.py [--allowlist FILE] [--strict-unused] "
              "PATH [PATH ...]", file=sys.stderr)
        return 2

    allow: Dict[str, str] = {}
    if allow_path.exists():
        try:
            allow = load_allowlist(allow_path)
        except AllowlistError as exc:
            print(f"simlint: {exc}", file=sys.stderr)
            return 2

    violations, unused = apply_allowlist(lint(args), allow)
    for path, line, code, symbol, message in violations:
        print(f"{_relpath(path)}:{line}: {code} [{symbol}] {message}")
    severity = "error" if strict_unused else "warning"
    for key in unused:
        print(f"simlint: {severity}: unused allowlist entry: {key}",
              file=sys.stderr)
    if violations:
        print(f"simlint: {len(violations)} violation(s)")
        return 1
    if strict_unused and unused:
        print(f"simlint: {len(unused)} stale allowlist entr"
              f"{'y' if len(unused) == 1 else 'ies'} "
              f"(--strict-unused)")
        return 1
    print(f"simlint: clean ({len(args)} target(s), "
          f"{len(allow)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
