"""Documentation hygiene: links and named modules must resolve.

The documentation suite (top-level ``README.md`` plus ``docs/``) names
modules, files, and cross-links; stale references rot silently, so this
test enforces three invariants over every markdown file:

* relative markdown links point at files that exist,
* every dotted ``repro...`` name in inline code resolves to a real
  module, or to an attribute of one,
* every repo-relative path in inline code (``src/...``, ``docs/...``,
  ``benchmarks/...``, ``tests/...``, ``examples/...``) exists.

CI runs this file standalone as the docs link-check job; it is also part
of tier-1.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_MODULE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z_0-9]*)+$")
_PATH = re.compile(r"^(?:src|docs|benchmarks|tests|examples)/[\w./-]+$")


def _doc_id(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_docs_exist(doc):
    """The documentation suite itself is present and non-trivial."""
    assert doc.exists(), f"missing documentation file {doc}"
    assert len(doc.read_text(encoding="utf-8")) > 200


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not (doc.parent / rel).exists():
            broken.append(target)
    assert not broken, f"{_doc_id(doc)}: broken relative links: {broken}"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module or one attribute deep."""
    try:
        importlib.import_module(dotted)
        return True
    except ImportError:
        pass
    if "." not in dotted:
        return False
    mod, attr = dotted.rsplit(".", 1)
    try:
        return hasattr(importlib.import_module(mod), attr)
    except ImportError:
        return False


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_named_modules_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    stale = []
    for span in _CODE_SPAN.findall(text):
        token = span.strip().rstrip("()")
        if _MODULE.match(token) and not _resolves(token):
            stale.append(token)
    assert not stale, f"{_doc_id(doc)}: unresolvable module names: {stale}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_named_paths_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = []
    for span in _CODE_SPAN.findall(text):
        token = span.strip()
        if _PATH.match(token) and not (REPO_ROOT / token).exists():
            missing.append(token)
    assert not missing, f"{_doc_id(doc)}: nonexistent paths: {missing}"


def test_exec_backend_choices_match_usage():
    """The ``--exec-backend {...}`` list in docs/usage.md is the live
    registry, not a copy that drifts when a backend comes or goes."""
    from repro.utils.executor import EXEC_BACKEND_CHOICES

    text = (REPO_ROOT / "docs" / "usage.md").read_text(encoding="utf-8")
    lists = re.findall(r"--exec-backend \{([^}]*)\}", text)
    assert lists, "docs/usage.md no longer documents --exec-backend {...}"
    for listed in lists:
        assert tuple(listed.split(",")) == EXEC_BACKEND_CHOICES


#: Names of removed execution paths, options and benchmark harnesses; a
#: doc that still mentions one describes code that no longer exists.
_REMOVED_NAMES = (
    "process-pickle", "--serve-backend", "resilient_call",
    "bench_regress", "_baseline_kernels", "_baseline_e2e",
    "BENCH_kernels.json", "bench-regress", "sweep.resolve_jobs",
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_no_removed_execution_names(doc):
    text = doc.read_text(encoding="utf-8")
    stale = [name for name in _REMOVED_NAMES if name in text]
    assert not stale, f"{_doc_id(doc)}: mentions removed names: {stale}"


#: ``make <target>`` at the start of a code span or a code-block line;
#: prose such as "make sure" is not an instruction to run make.
_MAKE_TARGET = re.compile(r"(?:^|`)make\s+([a-z][\w-]*)", re.MULTILINE)
_MAKEFILE_TARGETS = set(
    re.findall(
        r"^([\w-]+):",
        (REPO_ROOT / "Makefile").read_text(encoding="utf-8"),
        flags=re.MULTILINE,
    )
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_named_make_targets_exist(doc):
    """Every ``make <target>`` a doc tells the reader to run exists."""
    text = doc.read_text(encoding="utf-8")
    missing = sorted(set(_MAKE_TARGET.findall(text)) - _MAKEFILE_TARGETS)
    assert not missing, f"{_doc_id(doc)}: unknown make targets: {missing}"
