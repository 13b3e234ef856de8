"""Every ``repro.…`` name the docs quote in backticks resolves.

A function deleted or moved while README.md, DESIGN.md or a page under
``docs/`` still names it leaves the docs pointing at nothing; this
catches it.  A quoted name is the dotted ``repro.…`` path a backtick
span starts with (``repro.x.f`` in ```repro.x.f(...)```): the longest
prefix that imports as a module, then ``getattr`` for the rest.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`\n]*`")


def quoted_names(path):
    return sorted(set(NAME.findall(path.read_text())))


def resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_docs_quote_names():
    assert sum(len(quoted_names(p)) for p in DOCS) >= 40


def test_pattern_finds_a_stale_name():
    text = "`repro.parallel.no_such_kernel` / `parallel_matmat` split"
    assert NAME.findall(text) == ["repro.parallel.no_such_kernel"]
    with pytest.raises(AttributeError):
        resolve("repro.parallel.no_such_kernel")


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_quoted_names_resolve(path):
    missing = []
    for name in quoted_names(path):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"{path.name} names what does not exist: {missing}"
