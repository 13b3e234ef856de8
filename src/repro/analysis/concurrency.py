"""RDL009–RDL012: static lock-discipline analysis (the concurrency rules).

The serving stack shares mutable state across request threads and
``ThreadPoolExecutor`` workers — engine format swaps, decision caches,
metric stores, audit logs.  The convention protecting that state is a
per-object ``self._lock`` and the disjoint-block discipline for
worker closures; these rules check the convention from source the way
RDL001–RDL008 check dtype and hot-loop discipline:

- **RDL009** — an attribute written under ``with self._lock:`` in one
  method is *guarded*; reading or writing it without the lock in
  another method is a race.  A per-class call map lets private helpers
  whose every in-class call site holds the lock inherit the locked
  context (the ``_drain``-style "caller holds the lock" pattern).
- **RDL010** — state captured by a closure handed to an executor
  (``ThreadPoolExecutor``/``WorkerPool``/``parallel_map``) escapes its
  thread; mutating it outside a lock, other than at an index derived
  from the work item, is a race.
- **RDL011** — two locks acquired in opposite nesting orders in the
  same class deadlock under contention; nesting one non-reentrant
  ``threading.Lock`` inside itself deadlocks unconditionally.
- **RDL012** — ``if x is None: x = ...`` lazy initialisation outside a
  lock is a time-of-check/time-of-use race: two threads both observe
  ``None`` and both construct (leaking one executor, in the
  ``WorkerPool._ensure`` case that motivated the rule).

The dynamic counterpart is :mod:`repro.analysis.race` (``REPRO_RACE=1``),
which checks the same discipline from recorded locksets at runtime.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint import Finding, Rule, _in_package, register

#: Packages where the lock discipline is load-bearing: everything the
#: serving/parallel path shares across threads.
CONCURRENT_PACKAGES = ("serve", "parallel", "obs", "core", "tune")

_LOCK_NAME = re.compile(r"lock|mutex|guard", re.IGNORECASE)

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "remove",
        "discard",
        "clear",
        "pop",
        "popleft",
        "popitem",
        "sort",
        "reverse",
    }
)

#: Executor types whose instances RDL010 tracks by assignment.
_EXECUTOR_CTORS = frozenset(
    {"ThreadPoolExecutor", "ProcessPoolExecutor", "WorkerPool"}
)
_EXECUTOR_FACTORIES = frozenset({"shared_pool"})

_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name roots."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _lock_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a lock expression (terminal name says 'lock')."""
    chain = _attr_chain(node)
    if chain is None or not _LOCK_NAME.search(chain[-1]):
        return None
    return ".".join(chain)


class _FunctionFacts:
    """Lock-context facts for one function or method body.

    Walks statements carrying the stack of held locks and records:

    - ``accesses``: self-rooted attribute reads/writes with the lockset
    - ``lock_pairs``: (outer, inner) nested lock acquisitions
    - ``lazy_inits``: check-then-act ``if x is None: x = ...`` sites
    - ``self_calls``: ``self.method()`` calls with the lockset
    """

    def __init__(self, fn: ast.AST, self_name: Optional[str]) -> None:
        self.fn = fn
        self.self_name = self_name
        self.accesses: List[Tuple[Tuple[str, ...], bool, bool, ast.AST]] = []
        self.lock_pairs: List[Tuple[str, str, ast.AST]] = []
        self.lazy_inits: List[Tuple[str, bool, ast.AST]] = []
        self.self_calls: List[Tuple[str, bool]] = []
        self.globals_: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.globals_.update(node.names)
        body = fn.body if not isinstance(fn, ast.Lambda) else []
        self._walk(body, ())

    # -- statement walk carrying the lock stack -------------------------
    def _walk(self, stmts: List[ast.stmt], locks: Tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = list(locks)
                for item in stmt.items:
                    self._scan(item.context_expr, tuple(inner))
                    lk = _lock_name(item.context_expr)
                    if lk is not None:
                        for outer in inner:
                            self.lock_pairs.append(
                                (outer, lk, item.context_expr)
                            )
                        inner.append(lk)
                self._walk(stmt.body, tuple(inner))
            elif isinstance(stmt, ast.If):
                self._scan(stmt.test, locks)
                self._lazy_init(stmt, locks)
                self._walk(stmt.body, locks)
                self._walk(stmt.orelse, locks)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan(stmt.target, locks)
                self._scan(stmt.iter, locks)
                self._walk(stmt.body, locks)
                self._walk(stmt.orelse, locks)
            elif isinstance(stmt, ast.While):
                self._scan(stmt.test, locks)
                self._walk(stmt.body, locks)
                self._walk(stmt.orelse, locks)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, locks)
                for handler in stmt.handlers:
                    self._walk(handler.body, locks)
                self._walk(stmt.orelse, locks)
                self._walk(stmt.finalbody, locks)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # A nested def runs later, possibly on another thread —
                # its lock context is its own problem (RDL010 covers
                # closures that escape into executors).
                continue
            else:
                self._scan(stmt, locks)

    # -- expression scan -------------------------------------------------
    def _scan(self, node: ast.AST, locks: Tuple[str, ...]) -> None:
        locked = bool(locks)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if (
                    chain is not None
                    and self.self_name is not None
                    and chain[0] == self.self_name
                    and len(chain) > 1
                ):
                    write = isinstance(sub.ctx, (ast.Store, ast.Del))
                    self.accesses.append((chain[1:], write, locked, sub))
            elif isinstance(sub, ast.Subscript) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                chain = _attr_chain(sub.value)
                if (
                    chain is not None
                    and self.self_name is not None
                    and chain[0] == self.self_name
                    and len(chain) > 1
                ):
                    self.accesses.append((chain[1:], True, locked, sub))
            elif isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                chain = _attr_chain(sub.func.value)
                if (
                    chain is not None
                    and self.self_name is not None
                    and chain[0] == self.self_name
                ):
                    if sub.func.attr in _MUTATORS and len(chain) > 1:
                        self.accesses.append(
                            (chain[1:], True, locked, sub)
                        )
                    elif len(chain) == 1:
                        self.self_calls.append((sub.func.attr, locked))

    # -- RDL012 pattern --------------------------------------------------
    def _lazy_init(self, stmt: ast.If, locks: Tuple[str, ...]) -> None:
        test = stmt.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            target = test.left
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            target = test.operand
        else:
            return
        desc = self._init_target(target)
        if desc is None:
            return
        for sub in stmt.body:
            for n in ast.walk(sub):
                if isinstance(n, ast.Assign):
                    for t in n.targets:
                        if self._init_target(t) == desc:
                            self.lazy_inits.append(
                                (desc, bool(locks), stmt)
                            )
                            return

    def _init_target(self, node: ast.AST) -> Optional[str]:
        chain = _attr_chain(node)
        if chain is None:
            return None
        if (
            self.self_name is not None
            and chain[0] == self.self_name
            and len(chain) > 1
        ):
            return ".".join(("self",) + chain[1:])
        if len(chain) == 1 and chain[0] in self.globals_:
            return chain[0]
        return None


def _method_facts(cls: ast.ClassDef) -> Dict[str, _FunctionFacts]:
    out: Dict[str, _FunctionFacts] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = item.args.posonlyargs + item.args.args
            self_name = args[0].arg if args else None
            out[item.name] = _FunctionFacts(item, self_name)
    return out


def _lock_inherited(facts: Dict[str, _FunctionFacts]) -> Set[str]:
    """Methods whose every in-class call site holds a lock.

    The ``_drain`` pattern: a private helper documented "caller holds
    the lock" is only ever invoked from locked regions, so its body
    inherits the locked context.  Fixpoint over the class call map.
    """
    inherited: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, f in facts.items():
            if name in inherited or name in _INIT_METHODS:
                continue
            sites = [
                (caller, locked)
                for caller, cf in facts.items()
                for callee, locked in cf.self_calls
                if callee == name
            ]
            if not sites:
                continue
            if all(
                locked or caller in inherited for caller, locked in sites
            ):
                inherited.add(name)
                changed = True
    return inherited


@register
class GuardedAttributeRule(Rule):
    """RDL009: attributes written under a lock need it everywhere."""

    code = "RDL009"
    name = "guarded-attribute-unlocked"
    rationale = """
    A class that writes an attribute inside ``with self._lock:`` has
    declared that attribute shared mutable state — the lock is its only
    consistency guarantee.  Any other method reading or writing the
    same attribute without the lock can observe (or publish) a torn
    intermediate: the engine's matrix mid-swap, a batcher's pending
    list mid-drain.  Constructors are exempt (no concurrent alias can
    exist yet), and a private helper whose every in-class call site
    holds the lock inherits the locked context, so "caller holds the
    lock" helpers need no suppression.  Anything else needs the lock or
    a justified noqa naming the discipline that makes it safe.
    """

    def applies_to(self, path: str) -> bool:
        return _in_package(path, *CONCURRENT_PACKAGES)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, path)

    def _check_class(
        self, cls: ast.ClassDef, path: str
    ) -> Iterator[Finding]:
        facts = _method_facts(cls)
        inherited = _lock_inherited(facts)
        guarded: Set[Tuple[str, ...]] = set()
        for name, f in facts.items():
            if name in _INIT_METHODS:
                continue
            locked_method = name in inherited
            for chain, write, locked, _ in f.accesses:
                if write and (locked or locked_method):
                    guarded.add(chain)
        if not guarded:
            return
        for name, f in facts.items():
            if name in _INIT_METHODS or name in inherited:
                continue
            for chain, write, locked, node in f.accesses:
                if chain in guarded and not locked:
                    attr = ".".join(chain)
                    kind = "written" if write else "read"
                    yield self.finding(
                        path,
                        node,
                        f"{cls.name}.{attr} is lock-guarded (written "
                        f"under a lock elsewhere in the class) but "
                        f"{kind} here without it",
                    )


class _ClosureEscape:
    """Mutation analysis of one closure escaping into an executor."""

    def __init__(self, fn: ast.AST) -> None:
        self.fn = fn
        args = fn.args
        params: Set[str] = {
            a.arg
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
        }
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        self.params = params
        self.assigned = self._assigned()
        self.tainted = self._taint()
        self.locked_nodes = self._locked_nodes()

    def _body(self) -> List[ast.stmt]:
        if isinstance(self.fn, ast.Lambda):
            return [ast.Expr(value=self.fn.body)]
        return list(self.fn.body)

    def _body_walk(self) -> Iterator[ast.AST]:
        for stmt in self._body():
            yield from ast.walk(stmt)

    def _assigned(self) -> Set[str]:
        out: Set[str] = set()
        for node in self._body_walk():
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                out.add(node.id)
            elif isinstance(node, (ast.For, ast.comprehension)):
                for n in ast.walk(node.target):
                    if isinstance(n, ast.Name):
                        out.add(n.id)
        return out

    @staticmethod
    def _target_names(target: ast.AST) -> Iterator[ast.Name]:
        """Names *bound* by an assignment target.

        Subscript/attribute targets bind nothing: ``out[cursor] = i``
        derives neither ``out`` nor ``cursor`` from the value, so
        walking into them would wrongly taint the index name.
        """
        if isinstance(target, ast.Name):
            yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from _ClosureEscape._target_names(elt)
        elif isinstance(target, ast.Starred):
            yield from _ClosureEscape._target_names(target.value)

    def _taint(self) -> Set[str]:
        tainted = set(self.params)
        changed = True
        while changed:
            changed = False
            for node in self._body_walk():
                if not isinstance(node, ast.Assign):
                    continue
                names = {
                    n.id
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Name)
                }
                if not (names & tainted):
                    continue
                for target in node.targets:
                    for n in self._target_names(target):
                        if n.id not in tainted:
                            tainted.add(n.id)
                            changed = True
        return tainted

    def _locked_nodes(self) -> Set[int]:
        """ids of nodes inside a ``with <lock>:`` within the closure."""
        out: Set[int] = set()
        for node in self._body_walk():
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if any(
                _lock_name(item.context_expr) is not None
                for item in node.items
            ):
                for sub in node.body:
                    out.update(id(n) for n in ast.walk(sub))
        return out

    def _captured(self, name: str) -> bool:
        return name not in self.params and name not in self.assigned

    def violations(self) -> Iterator[Tuple[ast.AST, str]]:
        for node in self._body_walk():
            if id(node) in self.locked_nodes:
                continue  # mutation under a lock inside the closure
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                kind = (
                    "nonlocal"
                    if isinstance(node, ast.Nonlocal)
                    else "global"
                )
                yield node, (
                    f"{kind} write to {', '.join(node.names)} escapes "
                    f"into executor threads without a lock"
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(node, ast.AugAssign)
                        and isinstance(target, ast.Name)
                        and self._captured(target.id)
                    ):
                        yield node, (
                            f"augmented assignment to captured "
                            f"{target.id!r} accumulates shared state "
                            f"without a lock"
                        )
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        base = target.value.id
                        if not self._captured(base):
                            continue
                        index_names = {
                            n.id
                            for n in ast.walk(target.slice)
                            if isinstance(n, ast.Name)
                        }
                        if not (index_names & self.tainted):
                            yield node, (
                                f"write to captured {base!r} at "
                                f"an index not derived from the work "
                                f"item; executor threads must write "
                                f"disjoint slices or hold a lock"
                            )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in _MUTATORS
                and self._captured(node.func.value.id)
            ):
                yield node, (
                    f"mutating call .{node.func.attr}() on captured "
                    f"{node.func.value.id!r} races executor "
                    f"threads without a lock"
                )


@register
class ExecutorClosureEscapeRule(Rule):
    """RDL010: captured state must not escape into executor closures."""

    code = "RDL010"
    name = "executor-closure-escape"
    rationale = """
    ``WorkerPool`` provides no locking by design: the parallel kernels
    are race free *by construction* because every closure they submit
    writes only into an output slice derived from its own work item
    (the discipline the paper's OpenMP loops rely on), and NumPy
    releasing the GIL makes any other shared write a real race.  This
    rule inspects every closure handed to ``map``/``submit`` on a
    receiver named like a pool or executor, or bound to one by
    construction (``ex = ThreadPoolExecutor()``, ``workers =
    WorkerPool(4)``, ``shared_pool()``), and every closure passed to
    ``parallel_map``: a ``nonlocal``/``global`` write, an augmented
    assignment, a mutating call, or an indexed write on a captured name
    at an index not derived from the work item is shared state racing
    across worker threads.  Lock-guarded mutations and disjoint-slice
    writes are the two sanctioned disciplines; anything else needs a
    justified noqa.
    """

    _POOL_HINT = re.compile(r"pool|executor", re.IGNORECASE)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        defs: Dict[str, ast.AST] = {}
        executor_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_executor_ctor(node.value)
            ):
                executor_names.add(node.targets[0].id)
        for node in ast.walk(tree):
            if not self._submits(node, executor_names):
                continue
            closure = node.args[0]
            if isinstance(closure, ast.Name):
                closure = defs.get(closure.id)
            if not isinstance(
                closure, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            label = (
                "<lambda>"
                if isinstance(closure, ast.Lambda)
                else closure.name
            )
            for bad, description in _ClosureEscape(closure).violations():
                yield self.finding(
                    path,
                    bad,
                    f"closure {label!r} escapes into an executor: "
                    f"{description}",
                )

    def _submits(self, node: ast.AST, executor_names: Set[str]) -> bool:
        """Whether ``node`` hands its first argument to worker threads."""
        if not isinstance(node, ast.Call) or not node.args:
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "parallel_map"
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "map",
            "submit",
        ):
            return False
        recv = func.value
        if isinstance(recv, ast.Name):
            return recv.id in executor_names or bool(
                self._POOL_HINT.search(recv.id)
            )
        if isinstance(recv, ast.Attribute):
            return bool(self._POOL_HINT.search(recv.attr))
        return False

    @staticmethod
    def _is_executor_ctor(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        f = value.func
        name = (
            f.id
            if isinstance(f, ast.Name)
            else f.attr
            if isinstance(f, ast.Attribute)
            else ""
        )
        return name in _EXECUTOR_CTORS or name in _EXECUTOR_FACTORIES


@register
class LockOrderRule(Rule):
    """RDL011: one nesting order per lock pair; never self-nest."""

    code = "RDL011"
    name = "inconsistent-lock-order"
    rationale = """
    Two threads acquiring the same two locks in opposite orders is the
    canonical deadlock: each holds the lock the other wants, forever.
    The only scalable discipline is a fixed acquisition order per lock
    pair, checked here across every method of a class (and across
    module functions).  Nesting a lock inside itself is flagged
    unconditionally — ``threading.Lock`` is not reentrant, so the
    second acquire blocks the thread that already holds it.
    """

    def applies_to(self, path: str) -> bool:
        return _in_package(path, *CONCURRENT_PACKAGES)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        groups: List[Tuple[str, List[Tuple[str, str, ast.AST]]]] = []
        module_pairs: List[Tuple[str, str, ast.AST]] = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                pairs: List[Tuple[str, str, ast.AST]] = []
                for f in _method_facts(node).values():
                    pairs.extend(f.lock_pairs)
                groups.append((node.name, pairs))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                self_name = args[0].arg if args else None
                module_pairs.extend(
                    _FunctionFacts(node, self_name).lock_pairs
                )
        groups.append(("<module>", module_pairs))
        for scope, pairs in groups:
            seen: Dict[Tuple[str, str], ast.AST] = {}
            for outer, inner, node in pairs:
                if outer == inner:
                    yield self.finding(
                        path,
                        node,
                        f"{scope}: {inner} acquired while already held; "
                        f"threading.Lock is not reentrant, this "
                        f"deadlocks unconditionally",
                    )
                    continue
                seen.setdefault((outer, inner), node)
            for (outer, inner), node in seen.items():
                if (inner, outer) in seen and outer < inner:
                    other = seen[(inner, outer)]
                    yield self.finding(
                        path,
                        node,
                        f"{scope}: locks {outer} -> {inner} nested here "
                        f"but {inner} -> {outer} at line "
                        f"{getattr(other, 'lineno', '?')}; opposite "
                        f"orders deadlock under contention",
                    )


@register
class DoubleCheckedInitRule(Rule):
    """RDL012: no check-then-act lazy init outside a lock."""

    code = "RDL012"
    name = "unlocked-lazy-init"
    rationale = """
    ``if self._executor is None: self._executor = ThreadPoolExecutor()``
    is a time-of-check/time-of-use race: two threads both observe
    ``None`` and both construct, so one executor (with its worker
    threads) leaks unjoinably — the ``WorkerPool._ensure`` bug this
    rule generalises.  The same applies to module-level singletons
    behind ``global``.  Lazy initialisation of shared state must happen
    inside a lock (check again under it), or be eager.  Locals are
    exempt (thread-confined); so are constructors.
    """

    def applies_to(self, path: str) -> bool:
        return _in_package(path, *CONCURRENT_PACKAGES)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                facts = _method_facts(node)
                inherited = _lock_inherited(facts)
                for name, f in facts.items():
                    if name in _INIT_METHODS or name in inherited:
                        continue
                    yield from self._flag(f, path, f"{node.name}.{name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                self_name = args[0].arg if args else None
                yield from self._flag(
                    _FunctionFacts(node, self_name), path, node.name
                )

    def _flag(
        self, facts: _FunctionFacts, path: str, where: str
    ) -> Iterator[Finding]:
        for desc, locked, node in facts.lazy_inits:
            if locked:
                continue
            yield self.finding(
                path,
                node,
                f"{where}: check-then-act lazy init of {desc} without "
                f"a lock (TOCTOU); two threads can both observe the "
                f"unset state and both initialise",
            )
