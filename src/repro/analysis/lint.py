"""The lint engine: findings, the rule registry, and path runners.

The engine is deliberately small — a rule is a class with a ``code``,
a one-paragraph ``rationale`` (what ``repro lint --explain RDLxxx``
prints), a path-scope predicate, and a ``check`` method that walks a
parsed module and yields :class:`Finding` objects.  The repo-specific
rules themselves live in :mod:`repro.analysis.rules`.

Suppression follows the flake8 idiom with a repo-specific marker so it
cannot collide with other tools::

    for k, o in enumerate(self.offsets):  # repro: noqa RDL001 — why

A bare ``# repro: noqa`` (no codes) suppresses every rule on that line;
listing codes suppresses only those.  Trailing prose after the codes is
encouraged: a suppression without a justification is a smell.
"""

from __future__ import annotations

import abc
import ast
import json
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


@dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class Rule(abc.ABC):
    """One lint rule.  Concrete rules register via :func:`register`."""

    #: ``RDLxxx`` identifier used in output, ``--select`` and noqa.
    code: ClassVar[str]
    #: Short kebab-case name.
    name: ClassVar[str]
    #: One paragraph: why the invariant matters (``--explain`` output).
    rationale: ClassVar[str]

    _registry: ClassVar[Dict[str, "Rule"]] = {}

    def applies_to(self, path: str) -> bool:
        """Whether this rule is in scope for ``path`` (default: yes)."""
        return True

    @abc.abstractmethod
    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        """Yield findings for one parsed module."""

    def finding(
        self, path: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def register(cls: type) -> type:
    """Class decorator adding a rule to the engine's registry."""
    Rule._registry[cls.code] = cls()
    return cls


# -- path-scope helpers shared by every rule module -----------------------
# These live in the engine (not repro.analysis.rules) so rule modules
# never import each other: rules.py imports concurrency.py for
# registration, and an import in the other direction would compute
# ALL_CODES from a half-populated registry.


def _posix(path: str) -> str:
    return Path(path).as_posix()


def _in_package(path: str, *subpackages: str) -> bool:
    p = _posix(path)
    return any(f"repro/{sub}/" in p for sub in subpackages)


def _ends_with(path: str, *names: str) -> bool:
    p = _posix(path)
    return any(p.endswith(f"repro/{name}") for name in names)


def iter_rules() -> Tuple[Rule, ...]:
    """All registered rules, sorted by code."""
    # Importing the rules module populates the registry on first use.
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return tuple(
        Rule._registry[code] for code in sorted(Rule._registry)
    )


def get_rule(code: str) -> Rule:
    """Look up one rule by its ``RDLxxx`` code."""
    for rule in iter_rules():
        if rule.code == code.upper():
            return rule
    known = ", ".join(r.code for r in iter_rules())
    raise ValueError(f"unknown rule {code!r}; known rules: {known}")


def explain_rule(code: str) -> str:
    """Render a rule's rationale in the style of :mod:`repro.core.explain`."""
    rule = get_rule(code)
    lines: List[str] = []
    lines.append(f"{rule.code} — {rule.name}")
    lines.append("")
    body = " ".join(rule.rationale.split())
    lines.extend(
        f"  {wrapped}" for wrapped in textwrap.wrap(body, width=70)
    )
    lines.append("")
    lines.append(
        f"  suppress with: # repro: noqa {rule.code} — <justification>"
    )
    return "\n".join(lines)


# -- noqa handling ----------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\s+(?P<codes>RDL\d{3}(?:[,\s]+RDL\d{3})*))?",
)


def suppressed_codes(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed codes (``None`` means all codes)."""
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(re.findall(r"RDL\d{3}", codes))
    return out


def _is_suppressed(
    finding: Finding, noqa: Dict[int, Optional[FrozenSet[str]]]
) -> bool:
    codes = noqa.get(finding.line, frozenset())
    if codes is None:
        return True
    return finding.code in codes


# -- runners ----------------------------------------------------------


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Tuple[Rule, ...]:
    """The rules left after ``select``/``ignore``.

    An unknown code raises rather than matching nothing: a typo'd or
    retired code in ``--select`` would otherwise lint with no rules and
    report success, the same fault :func:`iter_python_files` refuses
    for a typo'd path.
    """
    rules = iter_rules()
    known = {r.code for r in rules}
    wanted = {c.strip().upper() for c in select or ()}
    dropped = {c.strip().upper() for c in ignore or ()}
    unknown = sorted((wanted | dropped) - known)
    if unknown:
        raise ValueError(
            f"unknown rule {', '.join(unknown)}; known rules: "
            f"{', '.join(sorted(known))}"
        )
    if wanted:
        rules = tuple(r for r in rules if r.code in wanted)
    return tuple(r for r in rules if r.code not in dropped)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module given as source text.

    ``path`` determines rule scope (several rules apply only inside
    particular packages), so tests pass virtual paths like
    ``src/repro/formats/example.py``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="RDL000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    noqa = suppressed_codes(source)
    findings: List[Finding] = []
    for rule in _select_rules(select, ignore):
        if not rule.applies_to(path):
            continue
        findings.extend(rule.check(tree, path))
    findings = [f for f in findings if not _is_suppressed(f, noqa)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(
    path: Path,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(
        source, str(path), select=select, ignore=ignore
    )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files.

    A path that does not exist raises rather than yielding nothing: a
    typo'd path in a CI invocation must fail the job, not lint zero
    files and report success.
    """
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.is_file():
            if p.suffix == ".py":
                yield p
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths`` (files or directories)."""
    _select_rules(select, ignore)  # refuse unknown codes before any file
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file, select=select, ignore=ignore))
    return findings


# -- output -----------------------------------------------------------


def render_text(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    n = len(findings)
    lines.append(
        "no findings" if n == 0 else f"{n} finding{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {
            "findings": [f.as_dict() for f in findings],
            "count": len(findings),
            "ok": not findings,
        },
        indent=2,
    )
