"""Every name the docs quote resolves: modules, commands, rule codes.

A function deleted or moved while README.md, DESIGN.md or a page under
``docs/`` still names it leaves the docs pointing at nothing; this
catches it.  A quoted name is the dotted ``repro.…`` path a backtick
span starts with (``repro.x.f`` in ```repro.x.f(...)```): the longest
prefix that imports as a module, then ``getattr`` for the rest.  The
same pages may only name ``repro <command>``s the CLI parser has (in a
backtick span or at the start of a code-block line) and ``RDLxxx``
codes the linter registers.
"""

import importlib
import re
from pathlib import Path

import argparse

import pytest

from repro.analysis.rules import ALL_CODES
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`\n]*`")
COMMAND = re.compile(r"(?:^|`)repro ([a-z][\w-]*)", re.MULTILINE)
CODE = re.compile(r"\bRDL\d{3}\b")


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


def subcommands():
    (action,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


def test_patterns_find_a_stale_command_and_code():
    text = "run `repro gone src`, or:\n```\nrepro nope --json\n```\nRDL099"
    assert COMMAND.findall(text) == ["gone", "nope"]
    assert not {"gone", "nope"} & subcommands()
    assert CODE.findall(text) == ["RDL099"]
    assert "RDL099" not in ALL_CODES


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_quoted_commands_exist(path):
    missing = sorted(set(COMMAND.findall(path.read_text())) - subcommands())
    assert not missing, f"{path.name} names no such command: {missing}"


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_rule_codes_are_registered(path):
    known = set(ALL_CODES) | {"RDL000"}
    stale = sorted(set(CODE.findall(path.read_text())) - known)
    assert not stale, f"{path.name} names unregistered rules: {stale}"
