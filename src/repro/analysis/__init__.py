"""Static analysis and runtime sanitisation for the repro codebase.

The kernel-level invariants this library depends on — canonical
``VALUE_DTYPE``/``INDEX_DTYPE`` payloads, vectorised hot paths,
race-free worker closures, OpCounter accounting, quantised scheduler
cache keys — are stated in docstrings but were historically enforced by
nothing.  This package enforces them with two cooperating layers:

- :mod:`repro.analysis.lint` — an AST-based lint pass with the
  repo-specific rule catalogue (``repro lint``, the one way to run
  it).  RDL001–RDL008 live in :mod:`repro.analysis.rules`; the
  concurrency family RDL009–RDL012 (lock discipline, closure escapes,
  lock order, double-checked init) lives in
  :mod:`repro.analysis.concurrency`.  Codes 3 and 7 are retired
  (RDL010 and RDL004 absorbed them) and never reused.
- :mod:`repro.analysis.sanitize` — a runtime sanitizer that validates
  the structural invariants of every storage format (CSR indptr
  monotonicity, COO canonical ordering, ELL padding, DIA offset bounds,
  round-trip conservation), enabled globally via ``REPRO_SANITIZE=1``
  or per-matrix via :func:`sanitize_format`.
- :mod:`repro.analysis.race` — a runtime lockset sanitizer (Eraser
  style) behind ``REPRO_RACE=1``: instrumented locks plus
  :func:`track_shared` field tracking report shared fields touched by
  two threads under disjoint locksets.  Free when disabled.

``repro lint --json src tests benchmarks examples`` is what CI runs:
JSON output, non-zero exit on any finding.
"""

from repro.analysis.lint import (
    Finding,
    Rule,
    explain_rule,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.race import (
    RaceError,
    RaceReport,
    RaceSanitizer,
    assert_race_clean,
    clear_race_reports,
    get_race_sanitizer,
    make_lock,
    race_enabled,
    race_reports,
    track_shared,
)
from repro.analysis.sanitize import (
    FormatInvariantError,
    SanitizedMatrix,
    check_format,
    format_violations,
    sanitize_enabled,
    sanitize_format,
)

__all__ = [
    "Finding",
    "Rule",
    "explain_rule",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "FormatInvariantError",
    "SanitizedMatrix",
    "check_format",
    "format_violations",
    "sanitize_enabled",
    "sanitize_format",
    "RaceError",
    "RaceReport",
    "RaceSanitizer",
    "assert_race_clean",
    "clear_race_reports",
    "get_race_sanitizer",
    "make_lock",
    "race_enabled",
    "race_reports",
    "track_shared",
]
