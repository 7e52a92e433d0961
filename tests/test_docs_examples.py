"""The docs stay honest: examples execute and links hold.

Runs ``tools/run_doc_examples.py`` over every ``docs/*.md`` page, so
documentation drift fails the test suite.  Docstring presence is a
simlint rule family (D100-D103), checked by ``tests/test_simlint.py``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted((REPO / "docs").glob("*.md"))


def run_tool(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True)


class TestDocExamples:
    def test_docs_exist(self):
        names = {p.name for p in DOCS}
        assert {"api.md", "observability.md"} <= names

    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_every_code_block_executes(self, doc):
        proc = run_tool("tools/run_doc_examples.py", str(doc))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[ok]" in proc.stdout

    def test_runner_fails_on_a_broken_block(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("```python\nraise RuntimeError('drift')\n```\n")
        proc = run_tool("tools/run_doc_examples.py", str(bad))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_skip_marker_is_honored(self, tmp_path):
        doc = tmp_path / "skip.md"
        doc.write_text("<!-- skip-example -->\n"
                       "```python\nraise RuntimeError('never runs')\n```\n")
        proc = run_tool("tools/run_doc_examples.py", str(doc))
        assert proc.returncode == 0
        assert "1 skipped" in proc.stdout


class TestReadmeLinks:
    def test_readme_links_both_docs(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/api.md" in readme
        assert "docs/observability.md" in readme

    def test_readme_documents_new_subcommands(self):
        readme = (REPO / "README.md").read_text()
        assert "python -m repro chaos" in readme
        assert "python -m repro trace" in readme

    def test_doc_cross_links_resolve(self):
        api = (REPO / "docs" / "api.md").read_text()
        assert "observability.md" in api
        assert (REPO / "docs" / "observability.md").exists()
