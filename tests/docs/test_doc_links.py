"""Audit intra-repo references in README.md and docs/*.md.

Two reference styles are checked:

* markdown links ``[text](target)`` whose target is not an external URL
  or a pure anchor — the target must exist, resolved against the linking
  file's directory or the repo root;
* inline-code path references like ``src/repro/bench/tables.py``,
  ``docs/observability.md``, ``tests/bench/test_datasets.py::TestRegimes``
  or ``src/repro/cli.py:42`` — the file must exist; ``::symbol`` suffixes
  must appear in the file text and ``:line`` suffixes must be within the
  file's length.

Only tokens that are unambiguously repo paths are audited: they must
start with a known top-level directory (``repro/…`` resolves under
``src/``) or be a top-level ``*.md`` file.  Tokens containing ``...``
(deliberate elisions), trailing-slash directory mentions of generated
output, and user-artifact names like ``crawl.adj`` are out of scope.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tests.docs.snippets import DOC_FILES, REPO_ROOT

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_REF = re.compile(
    r"`(?P<ref>[A-Za-z0-9_.\-/]+(?:::[A-Za-z0-9_.:]+|:\d+)?)`")
_PATH_ROOTS = ("src/", "docs/", "tests/", "examples/", "benchmarks/",
               "repro/")


def _strip_code_fences(text: str) -> str:
    """Blank out fenced blocks — code is executed, not link-audited."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            out.append("")
        else:
            out.append("" if fenced else line)
    return "\n".join(out)


def _resolve(base: Path, target: str) -> Path | None:
    for root in (base.parent, REPO_ROOT):
        candidate = (root / target).resolve()
        if candidate.exists():
            return candidate
    return None


def _iter_docs():
    for relpath in DOC_FILES:
        path = REPO_ROOT / relpath
        yield relpath, path, _strip_code_fences(
            path.read_text(encoding="utf-8"))


_IDS = [str(p).replace("/", "-") for p in DOC_FILES]


@pytest.mark.parametrize("relpath", DOC_FILES, ids=_IDS)
def test_markdown_links_resolve(relpath):
    path = REPO_ROOT / relpath
    text = _strip_code_fences(path.read_text(encoding="utf-8"))
    broken = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if _resolve(path, target) is None:
                broken.append(f"{relpath}:{lineno} -> {target}")
    assert not broken, "dead markdown links:\n" + "\n".join(broken)


def _audit_code_ref(path: Path, ref: str) -> str | None:
    """Return a failure description for one inline-code ref, or None."""
    if "..." in ref:
        return None
    symbol = line_no = None
    base = ref
    if "::" in ref:
        base, symbol = ref.split("::", 1)
    elif re.search(r":\d+$", ref):
        base, line_str = ref.rsplit(":", 1)
        line_no = int(line_str)
    is_top_md = "/" not in base and base.endswith(".md")
    if not (base.startswith(_PATH_ROOTS) or is_top_md):
        return None
    if base.endswith("/"):
        return None  # directory mentions (often generated output)
    if base.startswith("repro/"):
        base = "src/" + base
    resolved = _resolve(path, base)
    if resolved is None or not resolved.is_file():
        return f"{ref}: file {base} not found"
    if symbol is None and line_no is None:
        return None  # existence is all a bare path asks; it may be binary
    text = resolved.read_text(encoding="utf-8")
    if symbol is not None:
        first = symbol.split("::", 1)[0].split(".", 1)[0]
        if first not in text:
            return f"{ref}: symbol {first!r} not in {base}"
    if line_no is not None and line_no > text.count("\n") + 1:
        return f"{ref}: {base} has fewer than {line_no} lines"
    return None


@pytest.mark.parametrize("relpath", DOC_FILES, ids=_IDS)
def test_inline_code_path_references_resolve(relpath):
    path = REPO_ROOT / relpath
    text = _strip_code_fences(path.read_text(encoding="utf-8"))
    broken = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _CODE_REF.finditer(line):
            failure = _audit_code_ref(path, match.group("ref"))
            if failure:
                broken.append(f"{relpath}:{lineno} {failure}")
    assert not broken, "stale code references:\n" + "\n".join(broken)


def test_audit_catches_a_dead_link(tmp_path):
    """The audit itself must be live — a planted dead ref must trip it."""
    assert _audit_code_ref(
        REPO_ROOT / "README.md",
        "src/repro/definitely_not_here.py") is not None
    # A file that exists, so the "symbol not in file" branch answers.
    failure = _audit_code_ref(
        REPO_ROOT / "README.md",
        "tests/bench/test_tables_figures.py::NoSuchClassXYZ")
    assert failure is not None and "symbol 'NoSuchClassXYZ'" in failure
    assert _audit_code_ref(
        REPO_ROOT / "README.md", "src/repro/cli.py:999999") is not None
    # A binary file is named by its path alone: found, never decoded.
    assert _audit_code_ref(
        REPO_ROOT / "README.md",
        "tests/fixtures/window_ckpt_246.snap") is None
    assert _audit_code_ref(
        REPO_ROOT / "README.md",
        "tests/fixtures/window_ckpt_999.snap") is not None


def test_audit_skips_out_of_scope_tokens():
    readme = REPO_ROOT / "README.md"
    assert _audit_code_ref(readme, "crawl.adj") is None
    assert _audit_code_ref(readme, "tests/.../test_spn.py") is None
    assert _audit_code_ref(readme, "benchmarks/results/") is None
    assert _audit_code_ref(readme, "repro.bench.sweep") is None
