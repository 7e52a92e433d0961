#!/usr/bin/env python3
"""Execute every ``python`` code block in the given markdown files.

The doctest-style guard behind ``docs/``: a code example that drifts
from the library fails CI instead of misleading a reader.  Blocks in
one file share a namespace and execute in order (so a guide can build
on earlier snippets), and the runner chdirs into a scratch directory so
examples may write files (``trace.json``, ...) without polluting the
repo.

Rules:

- Only fenced blocks opened with exactly ```` ```python ```` run;
  ``bash``/``text``/plain fences are prose.
- A block preceded (immediately, modulo blank lines) by an HTML comment
  ``<!-- skip-example -->`` is skipped.

Usage::

    python tools/run_doc_examples.py docs/api.md docs/observability.md
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import traceback
from typing import List, Tuple

SKIP_MARK = "<!-- skip-example -->"


def extract_blocks(text: str) -> List[Tuple[int, str, bool]]:
    """Pull ``(start line, code, skipped)`` for each python fence."""
    out: List[Tuple[int, str, bool]] = []
    lines = text.split("\n")
    i = 0
    pending_skip = False
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == SKIP_MARK:
            pending_skip = True
        elif stripped == "```python":
            start = i + 1
            code: List[str] = []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                code.append(lines[i])
                i += 1
            out.append((start + 1, "\n".join(code), pending_skip))
            pending_skip = False
        elif stripped:
            pending_skip = False
        i += 1
    return out


def run_file(path: pathlib.Path) -> Tuple[int, int, List[str]]:
    """Execute one markdown file's blocks; returns (ran, skipped, errors)."""
    blocks = extract_blocks(path.read_text())
    namespace: dict = {"__name__": f"docs_example_{path.stem}"}
    ran = skipped = 0
    errors: List[str] = []
    for lineno, code, skip in blocks:
        if skip:
            skipped += 1
            continue
        try:
            exec(compile(code, f"{path}:{lineno}", "exec"), namespace)
            ran += 1
        except Exception:
            errors.append(
                f"{path}:{lineno}: block failed\n{traceback.format_exc()}")
    return ran, skipped, errors


def main(argv: List[str]) -> int:
    """Run every file given on the command line; 0 iff all blocks pass."""
    if not argv:
        print("usage: run_doc_examples.py FILE.md [FILE.md ...]",
              file=sys.stderr)
        return 2
    repo_root = pathlib.Path.cwd()
    files = [pathlib.Path(a).resolve() for a in argv]
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="doc_examples_") as scratch:
        os.chdir(scratch)
        try:
            for path in files:
                ran, skipped, errors = run_file(path)
                rel = os.path.relpath(path, repo_root)
                status = "FAIL" if errors else "ok"
                print(f"{rel}: {ran} block(s) ran, {skipped} skipped "
                      f"[{status}]")
                failures.extend(errors)
        finally:
            os.chdir(repo_root)
    for err in failures:
        print("\n" + err, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
