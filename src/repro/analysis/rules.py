"""The RDL rule catalogue: repo-specific invariants, enforced.

Each rule encodes one convention the rest of the library relies on but
cannot express in code.  The scopes are deliberately narrow — a rule
fires only in the packages where its invariant is load-bearing, so the
whole tree lints clean without drowning unrelated code in noise.

RDL001–RDL008 live here; the concurrency rules RDL009–RDL012 live in
:mod:`repro.analysis.concurrency` (imported below so one import of
this module registers the full catalogue).  Codes 3 and 7 are
retired: RDL010 and RDL004 absorbed them.  Retired codes are never
reused, so a ``noqa`` naming one keeps meaning what it meant.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List

from repro.analysis.lint import (
    Finding,
    Rule,
    _ends_with,
    _in_package,
    register,
)

#: Kernel methods where interpreted per-element loops destroy the O(nnz)
#: NumPy vectorisation the cost model assumes.  The SpMM entry points
#: (``matmat``/``smsv_multi``) are in scope too: their per-*column*
#: loops are the documented exception (trip count is ``batch_k``) and
#: carry a justifying noqa, but a per-element loop inside them would be
#: the same O(nnz) interpreter tax as in ``matvec``.
KERNEL_METHODS = frozenset(
    {"matvec", "smsv", "row_norms_sq", "matmat", "smsv_multi"}
)

#: Raw dtype spellings and the canonical alias each must use instead.
RAW_DTYPES: Dict[str, str] = {
    "float64": "VALUE_DTYPE",
    "int32": "INDEX_DTYPE",
}


def _class_methods(tree: ast.Module) -> Iterator[tuple]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item


@register
class HotPathLoopRule(Rule):
    """RDL001: no interpreted loops inside format kernel methods."""

    code = "RDL001"
    name = "hot-path-python-loop"
    rationale = """
    The scheduler's cost model prices every format kernel as O(stored
    elements) of *vectorised* NumPy work; a Python-level ``for``/``while``
    over rows or non-zeros inside ``matvec``/``smsv``/``row_norms_sq``
    multiplies the constant factor by two to three orders of magnitude
    and silently invalidates every probe measurement and Table VI
    comparison built on top of it.  Loops whose trip count is itself the
    modelled cost driver (DIA iterates per diagonal, ndig times) are the
    documented exceptions and carry a justifying noqa.
    """

    def applies_to(self, path: str) -> bool:
        return _in_package(path, "formats")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for cls, fn in _class_methods(tree):
            if fn.name not in KERNEL_METHODS:
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.For, ast.While)):
                    yield self.finding(
                        path,
                        node,
                        f"Python loop in kernel method "
                        f"{cls.name}.{fn.name}; use vectorised NumPy "
                        f"(or justify with a noqa if the trip count is "
                        f"the modelled cost driver)",
                    )


@register
class RawDtypeLiteralRule(Rule):
    """RDL002: payload dtypes must use the canonical aliases."""

    code = "RDL002"
    name = "raw-dtype-literal"
    rationale = """
    Every numeric payload in the format/data/feature pipeline must stay
    ``VALUE_DTYPE`` (8-byte float) and every index array ``INDEX_DTYPE``
    (4-byte int), because the storage model (Table II), the byte
    counters, and the roofline analysis all derive traffic from those
    item sizes.  A raw ``np.float64`` / ``np.int32`` / ``"float64"``
    literal works today but detaches the call site from the single
    point of control in ``repro/formats/base.py`` — change the canonical
    dtype there and the literal becomes a silent mixed-precision bug.
    Import the aliases instead.
    """

    _SCOPED = ("formats", "data", "features", "parallel", "baselines")

    def applies_to(self, path: str) -> bool:
        if _ends_with(path, "formats/base.py"):
            return False  # the defining module
        return _in_package(path, *self._SCOPED)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in RAW_DTYPES
            ):
                yield self.finding(
                    path,
                    node,
                    f"raw dtype literal np.{node.attr}; use "
                    f"{RAW_DTYPES[node.attr]} from repro.formats.base",
                )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "dtype"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value in RAW_DTYPES
                    ):
                        yield self.finding(
                            path,
                            kw.value,
                            f'raw dtype string "{kw.value.value}"; use '
                            f"{RAW_DTYPES[kw.value.value]} from "
                            f"repro.formats.base",
                        )


@register
class MissingOpCounterRule(Rule):
    """RDL004: kernels taking an OpCounter must actually report to it."""

    code = "RDL004"
    name = "missing-opcounter-accounting"
    rationale = """
    The paper's entire analysis (Section III, Eq. 7) reasons about
    transferred bytes and flops, not wall time; ``OpCounter`` is how the
    kernels make those quantities auditable, and the roofline and
    vector-machine models consume them directly.  A kernel method that
    accepts a ``counter`` parameter but never calls ``counter.add_*``
    (nor forwards the counter to a delegate kernel) reports zero traffic
    for real work — the hardware models then silently underestimate that
    format and the scheduler's ranking is corrupted without any test
    failing.  The blocked multi-vector entry points (``matmat`` /
    ``smsv_multi``) are in scope too: the ``batch_k`` knob and the
    vector machine's ``count_multi`` price their amortisation from the
    totals they report (``add_spmm`` plus the flop/byte accounting), so
    a silent SpMM kernel leaves ``spmm_columns`` at zero.
    """

    _COUNTED = frozenset({"matvec", "smsv", "matmat", "smsv_multi"})

    def applies_to(self, path: str) -> bool:
        return _in_package(path, "formats")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for cls, fn in _class_methods(tree):
            if fn.name not in self._COUNTED:
                continue
            arg_names = {a.arg for a in fn.args.args}
            if "counter" not in arg_names:
                continue
            if self._is_stub(fn):
                continue  # abstract interface definitions
            if not self._accounts(fn):
                yield self.finding(
                    path,
                    fn,
                    f"kernel method {cls.name}.{fn.name} accepts an "
                    f"OpCounter but never reports to it (no "
                    f"counter.add_* call and counter not forwarded)",
                )

    @staticmethod
    def _is_stub(fn: ast.FunctionDef) -> bool:
        for dec in fn.decorator_list:
            name = (
                dec.attr
                if isinstance(dec, ast.Attribute)
                else dec.id
                if isinstance(dec, ast.Name)
                else ""
            )
            if "abstract" in name:
                return True
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            or isinstance(stmt, ast.Raise)
            for stmt in fn.body
        )

    @staticmethod
    def _accounts(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "counter"
                and func.attr.startswith("add_")
            ):
                return True
            passed = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for arg in passed:
                if isinstance(arg, ast.Name) and arg.id == "counter":
                    return True
        return False


@register
class SchedulerCacheKeyRule(Rule):
    """RDL005: decision-cache keys must be hashable and quantised."""

    code = "RDL005"
    name = "scheduler-cache-key-hygiene"
    rationale = """
    The decision cache is what keeps *runtime* scheduling cheap: two
    matrices whose profiles agree coarsely must hit the same entry, so
    keys are built by quantising every profile statistic to ~1.5
    significant figures before hashing.  A key built from raw floats
    almost never repeats (cache hit rate collapses to zero and every
    training run re-probes), and an unhashable key — a list, dict, or
    generator — fails only at runtime on the first insert.  Any key
    flowing into a cache store must therefore be a hashable expression,
    and profile vectors must pass through a quantisation function.
    """

    _CACHE_HINT = re.compile(r"cache|store", re.IGNORECASE)
    _QUANT_HINT = re.compile(r"quant|round|int$", re.IGNORECASE)
    _UNHASHABLE = (
        ast.List,
        ast.Set,
        ast.Dict,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    def applies_to(self, path: str) -> bool:
        return _in_package(path, "core")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("get", "put", "setdefault")
                    and self._is_cache_ref(func.value)
                    and node.args
                ):
                    yield from self._key_findings(node.args[0], path)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(
                        target, ast.Subscript
                    ) and self._is_cache_ref(target.value):
                        yield from self._key_findings(
                            target.slice, path
                        )
            elif isinstance(node, ast.ClassDef) and "Cache" in node.name:
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "key"
                        and self._contains_as_vector(item)
                        and not self._contains_quantiser(item)
                    ):
                        yield self.finding(
                            path,
                            item,
                            f"{node.name}.key builds a key from raw "
                            f"profile values; quantise each statistic "
                            f"before hashing or cache hits will never "
                            f"occur",
                        )

    def _is_cache_ref(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(self._CACHE_HINT.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(self._CACHE_HINT.search(node.attr))
        return False

    @staticmethod
    def _contains_as_vector(node: ast.AST) -> bool:
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                f = n.func
                name = (
                    f.attr
                    if isinstance(f, ast.Attribute)
                    else f.id
                    if isinstance(f, ast.Name)
                    else ""
                )
                if name == "as_vector":
                    return True
        return False

    def _contains_quantiser(self, node: ast.AST) -> bool:
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                f = n.func
                name = (
                    f.attr
                    if isinstance(f, ast.Attribute)
                    else f.id
                    if isinstance(f, ast.Name)
                    else ""
                )
                if name and self._QUANT_HINT.search(name):
                    return True
        return False

    def _key_findings(
        self, key: ast.AST, path: str
    ) -> Iterator[Finding]:
        if isinstance(key, self._UNHASHABLE):
            yield self.finding(
                path,
                key,
                "unhashable expression used as a decision-cache key; "
                "use a (quantised) tuple",
            )
        elif self._contains_as_vector(key) and not self._contains_quantiser(
            key
        ):
            yield self.finding(
                path,
                key,
                "cache key built from raw profile values; quantise "
                "each statistic before hashing",
            )


@register
class SwallowedExceptionRule(Rule):
    """RDL006: no bare excepts; no silently swallowed errors in IO/CLI."""

    code = "RDL006"
    name = "swallowed-exception"
    rationale = """
    IO and CLI paths are where malformed user input surfaces; a bare
    ``except:`` there also traps ``KeyboardInterrupt`` and
    ``SystemExit``, and an ``except ValueError: pass`` turns a corrupt
    LIBSVM file into a silently truncated dataset — the
    scheduler then profiles and trains on data that is wrong in a way no
    downstream check can see.  Handlers in IO/CLI code must re-raise
    with context, return an error status, or at minimum warn; bare
    excepts are flagged everywhere.
    """

    _IO_PACKAGES = ("data", "analysis")

    def _io_scope(self, path: str) -> bool:
        return _in_package(path, *self._IO_PACKAGES) or _ends_with(
            path, "cli.py", "__main__.py"
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        io_scope = self._io_scope(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path,
                    node,
                    "bare except traps KeyboardInterrupt/SystemExit; "
                    "catch a specific exception",
                )
            elif io_scope and all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            ):
                yield self.finding(
                    path,
                    node,
                    "exception silently swallowed in an IO/CLI path; "
                    "re-raise with context, warn, or return an error "
                    "status",
                )


@register
class SpanAllocationRule(Rule):
    """RDL008: hot-path span sites must be free when tracing is off."""

    code = "RDL008"
    name = "span-allocation-unguarded"
    rationale = """
    The tracer's whole bargain is that instrumentation may live
    permanently inside the SMO loop, the format kernels, and the
    serving path because a disabled span costs one method call and
    nothing else.  That bargain is broken at the *call site*, not in
    the tracer: an f-string span name, a dict-literal attribute
    payload, or a ``span.set(...)`` call outside an ``if
    tracer.enabled:`` guard allocates and computes on every iteration
    whether or not anyone is tracing — and the overhead gate
    (``repro bench obs``) then fails for code the tracer itself cannot
    see.  In the hot-path packages, arguments to ``.span(...)`` must
    be allocation-free constants and every ``<span>.set(...)`` on a
    ``with ....span(...) as <span>:`` target must sit under an
    enabled guard (an enclosing ``if ....enabled:`` block counts).
    """

    _HOT = ("formats", "svm", "parallel", "serve", "core", "obs")
    _ALLOC_NODES = (
        ast.JoinedStr,
        ast.Dict,
        ast.List,
        ast.Set,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )
    _ALLOC_CALL_NAMES = frozenset({"dict", "list", "set", "tuple"})
    _ALLOC_CALL_ATTRS = frozenset({"format", "join"})

    def applies_to(self, path: str) -> bool:
        return _in_package(path, *self._HOT)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        yield from self._walk(tree.body, False, frozenset(), path)

    # -- statement walk carrying the guard state -----------------------
    def _walk(
        self,
        stmts: List[ast.stmt],
        guarded: bool,
        span_vars: FrozenSet[str],
        path: str,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                names = set(span_vars)
                for item in stmt.items:
                    yield from self._scan_expr(
                        item.context_expr, guarded, span_vars, path
                    )
                    if self._is_span_call(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        names.add(item.optional_vars.id)
                yield from self._walk(
                    stmt.body, guarded, frozenset(names), path
                )
            elif isinstance(stmt, ast.If):
                yield from self._scan_expr(
                    stmt.test, guarded, span_vars, path
                )
                yield from self._walk(
                    stmt.body,
                    guarded or self._is_enabled_guard(stmt.test),
                    span_vars,
                    path,
                )
                yield from self._walk(
                    stmt.orelse, guarded, span_vars, path
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._scan_expr(
                    stmt.iter, guarded, span_vars, path
                )
                yield from self._walk(stmt.body, guarded, span_vars, path)
                yield from self._walk(
                    stmt.orelse, guarded, span_vars, path
                )
            elif isinstance(stmt, ast.While):
                yield from self._scan_expr(
                    stmt.test, guarded, span_vars, path
                )
                yield from self._walk(stmt.body, guarded, span_vars, path)
                yield from self._walk(
                    stmt.orelse, guarded, span_vars, path
                )
            elif isinstance(stmt, ast.Try):
                yield from self._walk(stmt.body, guarded, span_vars, path)
                for handler in stmt.handlers:
                    yield from self._walk(
                        handler.body, guarded, span_vars, path
                    )
                yield from self._walk(
                    stmt.orelse, guarded, span_vars, path
                )
                yield from self._walk(
                    stmt.finalbody, guarded, span_vars, path
                )
            elif isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                # New scope: a guard outside a def does not protect the
                # def's body at its (later) call time, and span targets
                # do not leak in.
                yield from self._walk(
                    stmt.body, False, frozenset(), path
                )
            else:
                yield from self._scan_expr(
                    stmt, guarded, span_vars, path
                )

    def _scan_expr(
        self,
        node: ast.AST,
        guarded: bool,
        span_vars: FrozenSet[str],
        path: str,
    ) -> Iterator[Finding]:
        if guarded:
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call) or not isinstance(
                sub.func, ast.Attribute
            ):
                continue
            args = list(sub.args) + [kw.value for kw in sub.keywords]
            if sub.func.attr == "span":
                for arg in args:
                    if self._allocates(arg):
                        yield self.finding(
                            path,
                            arg,
                            "allocation in a .span(...) argument runs "
                            "even with tracing disabled; use a constant "
                            "name and set attributes under an "
                            "`if tracer.enabled:` guard",
                        )
            elif (
                sub.func.attr == "set"
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in span_vars
            ):
                yield self.finding(
                    path,
                    sub,
                    f"span attribute call "
                    f"{sub.func.value.id}.set(...) outside an "
                    f"`if tracer.enabled:` guard computes its "
                    f"arguments even with tracing disabled",
                )

    @staticmethod
    def _is_span_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
        )

    @staticmethod
    def _is_enabled_guard(test: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Attribute) and n.attr == "enabled"
            for n in ast.walk(test)
        )

    def _allocates(self, expr: ast.AST) -> bool:
        for n in ast.walk(expr):
            if isinstance(n, self._ALLOC_NODES):
                return True
            if isinstance(n, ast.Call):
                f = n.func
                if (
                    isinstance(f, ast.Name)
                    and f.id in self._ALLOC_CALL_NAMES
                ):
                    return True
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in self._ALLOC_CALL_ATTRS
                ):
                    return True
            if isinstance(n, ast.BinOp) and isinstance(
                n.op, (ast.Mod, ast.Add)
            ):
                for side in (n.left, n.right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, str
                    ):
                        return True
        return False


# The concurrency rules (RDL009-RDL012) register on import; pulling
# them in here keeps "import repro.analysis.rules" the single
# registration entry point iter_rules() relies on.
import repro.analysis.concurrency  # noqa: E402,F401  (registration side effect)

#: Names of every registered rule code, for docs and tests.
ALL_CODES = tuple(
    sorted(code for code in Rule._registry)
)
