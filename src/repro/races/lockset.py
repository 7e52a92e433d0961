"""Static lockset analysis: infer guarded attributes, flag bare access.

The classic lockset discipline (Eraser's invariant) applied with
``ast`` alone, in the :mod:`tools.simlint` engine's spirit: for every
class in a threaded module, work out which ``self._x`` attributes are
*guarded* — every write outside ``__init__`` happens lexically inside
``with self._lock:`` for some consistent lock — then flag any read or
write of a guarded attribute that does not hold that lock.

What counts, precisely:

* **Locks** are attributes assigned ``threading.Lock()`` / ``RLock()``
  / ``Condition()`` anywhere in the class, plus any ``with`` context
  expression rooted at ``self`` whose final attribute looks lock-ish
  (``lock`` / ``mutex`` / ``cond`` / ``cv`` in the name) — that covers
  borrowing another object's lock (``with self._stream._lock:``).
* **Writes** are attribute assignment / augmented assignment /
  deletion, subscript stores (``self._d[k] = v``), and calls of known
  container mutators (``.append()``, ``.popleft()``, ``.update()``,
  ``.move_to_end()``, ...).  Everything else that mentions the
  attribute is a **read**.
* ``__init__`` is excluded entirely: construction happens-before
  publication, so unlocked writes there are fine.
* Methods named ``*_locked`` are excluded too — the house convention
  (see :meth:`repro.stream.bus.StreamHub._evict_locked`) is that the
  caller already holds the class lock, and the static layer trusts the
  contract it names.

Findings (codes double as allowlist keys, format
``CODE path::Class.attr -- justification``):

* ``unguarded_read`` — a guarded attribute is read without the lock.
* ``unguarded_write`` — a guarded attribute is written without the
  lock (only reachable through subscript/mutator asymmetries; plain
  write asymmetry manifests as ``mixed_guard``).
* ``mixed_guard`` — some writes hold a lock, some hold none: the lock
  protects nothing.

Known limits, on purpose: only ``self.<attr>`` accesses are tracked
(cross-object accesses like ``sub.dropped`` are invisible), nested
functions are analyzed with an empty lockset (conservative), and
thread-safe metric objects (``.inc()`` / ``.observe()``) count as
reads.  The dynamic sanitizer (:mod:`repro.races.sanitizer`) covers
what this layer cannot see.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..analyze.report import Issue, error
from .report import RaceError, RaceReport, sort_findings

#: threading factories whose result makes an attribute a declared lock.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: threading factories whose result is internally synchronized — the
#: attribute is a coordination primitive, not shared state, so calls on
#: it (``.set()`` / ``.wait()`` / ``.clear()``) are not tracked.
_SYNC_FACTORIES = {"Event", "Semaphore", "BoundedSemaphore", "Barrier"}

#: final-attribute fragments that mark a ``with self...:`` item a lock.
_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond", "cv")

#: method calls that mutate the receiver container in place.
_MUTATOR_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "add", "update", "setdefault", "move_to_end", "sort", "reverse",
}

#: methods excluded from guard inference and findings.
_CONSTRUCTORS = {"__init__"}


@dataclass(frozen=True)
class Access:
    """One tracked ``self.<attr>`` access inside a class body.

    Attributes:
        attr: the attribute name (first component of the chain).
        kind: ``"read"`` or ``"write"``.
        method: dotted method name within the class.
        lineno: source line of the access.
        locks: lock names lexically held at the access site.
    """

    attr: str
    kind: str
    method: str
    lineno: int
    locks: FrozenSet[str]


@dataclass(frozen=True)
class ClassLockset:
    """The lockset analysis of one class.

    Attributes:
        file: posix path of the source file.
        name: class name.
        locks: declared lock attributes (``threading.Lock()`` & co).
        guarded: attribute → sorted tuple of locks every non-``__init__``
            write holds.
        accesses: every tracked attribute access, in source order.
        findings: this class's issues (unsorted; the report sorts).
    """

    file: str
    name: str
    locks: Tuple[str, ...]
    guarded: Dict[str, Tuple[str, ...]]
    accesses: Tuple[Access, ...]
    findings: Tuple[Issue, ...]

    def summary(self) -> Dict[str, object]:
        """The JSON row :class:`~repro.races.report.RaceReport` carries."""
        return {
            "file": self.file,
            "name": self.name,
            "locks": list(self.locks),
            "guarded": {a: list(ls)
                        for a, ls in sorted(self.guarded.items())},
            "accesses": len(self.accesses),
        }


def _self_chain(node: ast.expr) -> Optional[str]:
    """Dotted attribute chain rooted at ``self``, without the root.

    ``self._stream._lock`` → ``"_stream._lock"``; anything not rooted
    at a bare ``self`` name (or ``self`` itself) → None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _is_lockish(chain: str, declared: Set[str]) -> bool:
    """Whether a ``with self...:`` context chain names a lock."""
    if chain in declared:
        return True
    last = chain.split(".")[-1].lower()
    return any(frag in last for frag in _LOCKISH_FRAGMENTS)


def _declared_locks(cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """Attributes assigned a threading primitive, split two ways.

    Returns:
        ``(locks, sync)`` — lock attributes (``Lock``/``RLock``/
        ``Condition``) and internally-synchronized primitives
        (``Event``/``Semaphore``/``Barrier``); both sets are excluded
        from access tracking, only the first can guard other state.
    """
    locks: Set[str] = set()
    sync: Set[str] = set()
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name not in _LOCK_FACTORIES | _SYNC_FACTORIES:
            continue
        for target in node.targets:
            chain = _self_chain(target)
            if chain and "." not in chain:
                (locks if name in _LOCK_FACTORIES else sync).add(chain)
    return locks, sync


class _MethodScanner:
    """Collects :class:`Access` records for one method body."""

    def __init__(self, class_name: str, method: str,
                 lock_attrs: Set[str],
                 sync_attrs: Optional[Set[str]] = None) -> None:
        self.class_name = class_name
        self.method = method
        self.lock_attrs = lock_attrs
        self.untracked = lock_attrs | (sync_attrs or set())
        self.accesses: List[Access] = []

    def scan(self, node: ast.AST,
             held: FrozenSet[str] = frozenset()) -> None:
        """Walk a statement/expression tree tracking held locks."""
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record(self, chain: str, kind: str, node: ast.AST,
                held: FrozenSet[str]) -> None:
        attr = chain.split(".")[0]
        if attr in self.untracked:
            return  # locks and sync primitives are how locking works
        self.accesses.append(Access(
            attr=attr, kind=kind, method=self.method,
            lineno=getattr(node, "lineno", 0), locks=held))

    def _write_target(self, target: ast.expr, node: ast.AST,
                      held: FrozenSet[str]) -> None:
        """Classify one assignment/deletion target."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(elt, node, held)
        elif isinstance(target, ast.Attribute):
            chain = _self_chain(target)
            if chain:
                self._record(chain, "write", node, held)
            else:
                self._visit(target.value, held)
        elif isinstance(target, ast.Subscript):
            chain = _self_chain(target.value)
            if chain:
                self._record(chain, "write", node, held)
            else:
                self._visit(target.value, held)
            self._visit(target.slice, held)
        elif isinstance(target, ast.Starred):
            self._write_target(target.value, node, held)

    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            now = set(held)
            for item in node.items:
                chain = _self_chain(item.context_expr)
                if chain and _is_lockish(chain, self.lock_attrs):
                    now.add(chain)
                else:
                    self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
            for stmt in node.body:
                self._visit(stmt, frozenset(now))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            # A nested def runs at some later time with unknown locks:
            # analyze its body with an empty (conservative) lockset.
            body = (node.body if isinstance(node.body, list)
                    else [node.body])
            for stmt in body:
                self._visit(stmt, frozenset())
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._write_target(target, node, held)
            self._visit(node.value, held)
        elif isinstance(node, ast.AugAssign):
            self._write_target(node.target, node, held)
            self._visit(node.value, held)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._write_target(node.target, node, held)
                self._visit(node.value, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._write_target(target, node, held)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                chain = _self_chain(func.value)
                if chain is not None:
                    kind = ("write" if func.attr in _MUTATOR_METHODS
                            else "read")
                    self._record(chain, kind, node, held)
                else:
                    self._visit(func, held)
            else:
                self._visit(func, held)
            for arg in node.args:
                self._visit(arg, held)
            for kw in node.keywords:
                self._visit(kw.value, held)
        elif isinstance(node, ast.Attribute):
            chain = _self_chain(node)
            if chain:
                self._record(chain, "read", node, held)
            else:
                self._visit(node.value, held)
        else:
            self.scan(node, held)


def _analyze_class(cls: ast.ClassDef, relpath: str) -> ClassLockset:
    """Run guard inference + findings over one class definition."""
    lock_attrs, sync_attrs = _declared_locks(cls)
    accesses: List[Access] = []
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in _CONSTRUCTORS or item.name.endswith("_locked"):
            continue
        scanner = _MethodScanner(cls.name, item.name, lock_attrs,
                                 sync_attrs)
        for stmt in item.body:
            scanner._visit(stmt, frozenset())
        accesses.extend(scanner.accesses)

    by_attr: Dict[str, List[Access]] = {}
    for access in accesses:
        by_attr.setdefault(access.attr, []).append(access)

    guarded: Dict[str, Tuple[str, ...]] = {}
    findings: List[Issue] = []
    for attr, recs in sorted(by_attr.items()):
        writes = [a for a in recs if a.kind == "write"]
        if not writes:
            continue  # read-only after construction: no discipline owed
        guards = frozenset.intersection(*(a.locks for a in writes))
        if guards:
            guarded[attr] = tuple(sorted(guards))
            for access in recs:
                if access.locks & guards:
                    continue
                findings.append(error(
                    f"unguarded_{access.kind}",
                    f"{cls.name}.{access.method} line {access.lineno} "
                    f"{access.kind}s self.{attr} without holding "
                    f"{'/'.join(sorted(guards))} (every write holds it)",
                    subject=f"{relpath}::{cls.name}.{attr}"))
        elif any(a.locks for a in writes):
            bare = [a for a in writes if not a.locks]
            locked = [a for a in writes if a.locks]
            findings.append(error(
                "mixed_guard",
                f"{cls.name}.self.{attr} is written both under a lock "
                f"(line {locked[0].lineno}) and bare "
                f"(line {bare[0].lineno} in {bare[0].method}): "
                f"the lock protects nothing",
                subject=f"{relpath}::{cls.name}.{attr}"))
    return ClassLockset(
        file=relpath, name=cls.name, locks=tuple(sorted(lock_attrs)),
        guarded=guarded, accesses=tuple(accesses),
        findings=tuple(findings))


def analyze_source(source: str,
                   filename: str = "<snippet>") -> List[ClassLockset]:
    """Lockset-analyze every class in a source string."""
    tree = ast.parse(source, filename=filename)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.append(_analyze_class(node, filename))
    return out


def _relpath(path: pathlib.Path) -> str:
    """Posix path used in reports and allowlist keys (cwd-relative)."""
    try:
        return path.resolve().relative_to(
            pathlib.Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_file(path: pathlib.Path) -> List[ClassLockset]:
    """Lockset-analyze every class in one Python file."""
    return analyze_source(path.read_text(), filename=_relpath(path))


def load_allowlist(path: pathlib.Path) -> Dict[str, str]:
    """Parse ``CODE path::Class.attr -- justification`` lines.

    The same format (and the same mandatory-justification rule) as
    ``tools/simlint_allow.txt``; ``#`` comments and blanks ignored.

    Raises:
        RaceError: for entries without a justification.
    """
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if " -- " not in line:
            raise RaceError(
                f"{path}:{lineno}: allowlist entry needs a "
                f"' -- justification': {line!r}")
        key, justification = line.split(" -- ", 1)
        if not justification.strip():
            raise RaceError(
                f"{path}:{lineno}: empty justification: {line!r}")
        entries[" ".join(key.split())] = justification.strip()
    return entries


def lockset_report(
    paths: Sequence[str],
    allowlist: Optional[Dict[str, str]] = None,
) -> Tuple[RaceReport, List[str]]:
    """Analyze files/directories into one :class:`RaceReport`.

    Directories are walked recursively for ``*.py``.  Findings whose
    ``CODE subject`` key appears in ``allowlist`` move to the report's
    ``suppressed`` section (justification attached).

    Returns:
        ``(report, unused_keys)`` — the report, plus allowlist keys
        that suppressed nothing (stale entries a strict caller fails).
    """
    allow = dict(allowlist or {})
    files: List[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])

    classes: List[ClassLockset] = []
    for f in files:
        classes.extend(analyze_file(f))

    kept: List[Issue] = []
    suppressed: List[Dict[str, str]] = []
    used: Set[str] = set()
    for cls in classes:
        for issue in cls.findings:
            key = f"{issue.code} {issue.subject}"
            if key in allow:
                used.add(key)
                suppressed.append(
                    {"key": key, "justification": allow[key]})
            else:
                kept.append(issue)
    # One allowlist key may cover several access sites; report it once.
    seen: Set[str] = set()
    suppressed = [s for s in sorted(suppressed, key=lambda s: s["key"])
                  if not (s["key"] in seen or seen.add(s["key"]))]
    unused = sorted(set(allow) - used)

    interesting = [c for c in classes if c.locks or c.guarded
                   or c.findings]
    report = RaceReport(
        layer="lockset",
        targets=tuple(sorted({c.file for c in classes})),
        classes=tuple(c.summary() for c in sorted(
            interesting, key=lambda c: (c.file, c.name))),
        findings=sort_findings(kept),
        suppressed=tuple(suppressed),
        stats={"files": len(files), "classes": len(classes),
               "guarded_attrs": sum(len(c.guarded) for c in classes)},
    )
    return report, unused
