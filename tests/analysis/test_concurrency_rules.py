"""Per-rule tests for the concurrency family RDL009-RDL012.

Same conventions as ``test_lint_rules.py``: inline fixtures linted
under virtual paths (RDL009, RDL011 and RDL012 are scoped to the
packages that share state across threads; RDL010 applies everywhere),
one firing and one clean fixture per behaviour, and a tree self-check
asserting the shipped sources are clean under the four rules.
"""

import pathlib
import textwrap

import repro
from repro.analysis import lint_paths, lint_source

SERVE = "src/repro/serve/fake.py"
PARALLEL = "src/repro/parallel/fake.py"
DATA = "src/repro/data/fake.py"  # outside RDL009/RDL011/RDL012's scope
CONCURRENCY_CODES = ["RDL009", "RDL010", "RDL011", "RDL012"]


def lint(src, path, code):
    return lint_source(textwrap.dedent(src), path, select=[code])


def codes(findings):
    return [f.code for f in findings]


# -- RDL009: guarded-attribute-unlocked ---------------------------------


class TestGuardedAttribute:
    FIRES = """
    class Engine:
        def convert(self, m):
            with self._lock:
                self._matrix = m

        def peek(self):
            return self._matrix
    """

    def test_unlocked_read_of_guarded_attr_fires(self):
        findings = lint(self.FIRES, SERVE, "RDL009")
        assert codes(findings) == ["RDL009"]
        assert "Engine._matrix" in findings[0].message
        assert "read here without it" in findings[0].message

    def test_unlocked_write_of_guarded_attr_fires(self):
        src = """
        class Engine:
            def convert(self, m):
                with self._lock:
                    self._matrix = m

            def reset(self):
                self._matrix = None
        """
        findings = lint(src, SERVE, "RDL009")
        assert codes(findings) == ["RDL009"]
        assert "written here without it" in findings[0].message

    def test_locked_everywhere_is_clean(self):
        src = """
        class Engine:
            def convert(self, m):
                with self._lock:
                    self._matrix = m

            def peek(self):
                with self._lock:
                    return self._matrix
        """
        assert lint(src, SERVE, "RDL009") == []

    def test_constructor_is_exempt(self):
        src = """
        class Engine:
            def __init__(self):
                self._matrix = None

            def convert(self, m):
                with self._lock:
                    self._matrix = m
        """
        assert lint(src, SERVE, "RDL009") == []

    def test_caller_holds_the_lock_helper_is_clean(self):
        # The _drain pattern: every in-class call site of the helper
        # holds the lock, so the helper inherits the locked context.
        src = """
        class Batcher:
            def add(self, item):
                with self._lock:
                    self._pending.append(item)
                    self._drain()

            def _drain(self):
                self._pending.clear()
        """
        assert lint(src, SERVE, "RDL009") == []

    def test_mutating_call_counts_as_write(self):
        src = """
        class Batcher:
            def add(self, item):
                with self._lock:
                    self._pending.append(item)

            def steal(self):
                return self._pending.pop()
        """
        # Both the mutating .pop() and the bare attribute read are
        # unlocked touches of a guarded attribute.
        findings = lint(src, SERVE, "RDL009")
        assert findings and set(codes(findings)) == {"RDL009"}

    def test_read_only_attr_never_guarded(self):
        # Reads alone never declare an attribute shared: config values
        # read both inside and outside a lock are fine.
        src = """
        class Pool:
            def size(self):
                with self._lock:
                    return self.n_workers

            def describe(self):
                return self.n_workers
        """
        assert lint(src, SERVE, "RDL009") == []

    def test_out_of_scope_package_is_skipped(self):
        assert lint(self.FIRES, DATA, "RDL009") == []


# -- RDL010: executor-closure-escape ------------------------------------


class TestExecutorClosureEscape:
    def test_mutating_call_on_capture_fires(self):
        src = """
        def work(items):
            ex = ThreadPoolExecutor()
            out = []

            def job(i):
                out.append(i)

            ex.map(job, items)
            return out
        """
        findings = lint(src, PARALLEL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "'job'" in findings[0].message
        assert "out" in findings[0].message

    def test_untainted_index_write_fires(self):
        src = """
        def work(items):
            workers = WorkerPool(4)
            out = np.zeros(8)
            cursor = 0

            def job(i):
                out[cursor] = i

            workers.map(job, items)
        """
        findings = lint(src, PARALLEL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "not derived from the work" in findings[0].message

    def test_disjoint_slice_discipline_is_clean(self):
        # Writing at an index derived from the work item is the
        # sanctioned row-block discipline.
        src = """
        def work(items):
            ex = ThreadPoolExecutor()
            out = np.zeros(8)

            def job(i):
                out[i] = i

            ex.map(job, items)
        """
        assert lint(src, PARALLEL, "RDL010") == []

    def test_lock_guarded_mutation_is_clean(self):
        src = """
        def work(items, lock):
            ex = ThreadPoolExecutor()
            out = []

            def job(i):
                with lock:
                    out.append(i)

            ex.map(job, items)
        """
        assert lint(src, PARALLEL, "RDL010") == []

    def test_pool_hinted_receiver_fires(self):
        # A receiver named like a pool counts whether or not the rule
        # saw it constructed.
        src = """
        def work(items):
            pool = ThreadPoolExecutor()
            out = []

            def job(i):
                out.append(i)

            pool.map(job, items)
        """
        assert codes(lint(src, PARALLEL, "RDL010")) == ["RDL010"]

    def test_nonlocal_write_fires(self):
        src = """
        def work(items):
            ex = shared_pool()
            total = 0

            def job(i):
                nonlocal total
                total = total + i

            ex.map(job, items)
        """
        findings = lint(src, PARALLEL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "nonlocal" in findings[0].message

    def test_applies_to_every_path(self):
        src = """
        def work(items):
            ex = ThreadPoolExecutor()
            out = []

            def job(i):
                out.append(i)

            ex.map(job, items)
        """
        for path in (DATA, "tests/test_fake.py", "examples/fake.py"):
            assert codes(lint(src, path, "RDL010")) == ["RDL010"]


# -- RDL011: inconsistent-lock-order ------------------------------------


class TestLockOrder:
    def test_self_nesting_fires(self):
        src = """
        class Cache:
            def get(self):
                with self._lock:
                    with self._lock:
                        return 1
        """
        findings = lint(src, SERVE, "RDL011")
        assert codes(findings) == ["RDL011"]
        assert "not reentrant" in findings[0].message

    def test_opposite_orders_across_methods_fire(self):
        src = """
        class Pair:
            def a(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass

            def b(self):
                with self.beta_lock:
                    with self.alpha_lock:
                        pass
        """
        findings = lint(src, SERVE, "RDL011")
        assert codes(findings) == ["RDL011"]
        assert "opposite orders deadlock" in findings[0].message

    def test_consistent_order_is_clean(self):
        src = """
        class Pair:
            def a(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass

            def b(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass
        """
        assert lint(src, SERVE, "RDL011") == []

    def test_module_functions_share_one_scope(self):
        src = """
        def f():
            with a_lock:
                with b_lock:
                    pass

        def g():
            with b_lock:
                with a_lock:
                    pass
        """
        findings = lint(src, SERVE, "RDL011")
        assert codes(findings) == ["RDL011"]
        assert "<module>" in findings[0].message

    def test_different_classes_do_not_cross_talk(self):
        # Lock names are compared within one class scope: two classes
        # with private locks of the same attribute names are unrelated.
        src = """
        class A:
            def a(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass

        class B:
            def b(self):
                with self.beta_lock:
                    with self.alpha_lock:
                        pass
        """
        assert lint(src, SERVE, "RDL011") == []


# -- RDL012: unlocked-lazy-init ------------------------------------------


class TestDoubleCheckedInit:
    FIRES = """
    class Pool:
        def ensure(self):
            if self._executor is None:
                self._executor = make_executor()
            return self._executor
    """

    def test_unlocked_is_none_check_fires(self):
        findings = lint(self.FIRES, PARALLEL, "RDL012")
        assert codes(findings) == ["RDL012"]
        assert "self._executor" in findings[0].message
        assert "TOCTOU" in findings[0].message

    def test_unlocked_falsy_check_fires(self):
        src = """
        class Sched:
            def profile(self, matrix):
                if not self._profile:
                    self._profile = extract(matrix)
                return self._profile
        """
        findings = lint(src, SERVE, "RDL012")
        assert codes(findings) == ["RDL012"]

    def test_module_global_lazy_init_fires(self):
        src = """
        _shared = None

        def shared():
            global _shared
            if _shared is None:
                _shared = object()
            return _shared
        """
        findings = lint(src, PARALLEL, "RDL012")
        assert codes(findings) == ["RDL012"]
        assert "_shared" in findings[0].message

    def test_check_under_lock_is_clean(self):
        src = """
        class Pool:
            def ensure(self):
                with self._lock:
                    if self._executor is None:
                        self._executor = make_executor()
                    return self._executor
        """
        assert lint(src, PARALLEL, "RDL012") == []

    def test_constructor_is_exempt(self):
        src = """
        class Pool:
            def __init__(self, executor=None):
                if executor is None:
                    executor = make_executor()
                self.executor = executor
        """
        assert lint(src, PARALLEL, "RDL012") == []

    def test_local_variable_is_thread_confined(self):
        src = """
        def compute(cache=None):
            if cache is None:
                cache = {}
            return cache
        """
        assert lint(src, PARALLEL, "RDL012") == []

    def test_lock_inherited_helper_is_clean(self):
        src = """
        class Sched:
            def decide(self, matrix):
                with self._lock:
                    return self._ensure(matrix)

            def _ensure(self, matrix):
                if self._profile is None:
                    self._profile = extract(matrix)
                return self._profile
        """
        assert lint(src, SERVE, "RDL012") == []

    def test_out_of_scope_package_is_skipped(self):
        assert lint(self.FIRES, DATA, "RDL012") == []


# -- the shipped tree is clean under the concurrency rules ---------------


def test_repro_tree_is_concurrency_clean():
    """The four concurrency rules over the shipped package report nothing.

    Mirrors the RDL008 self-check: the concurrency rules run over the
    real sources, so a regression in lock discipline anywhere in
    serve/parallel/obs/core fails this test before it flakes a stress
    test.
    """
    pkg = pathlib.Path(repro.__file__).parent
    findings = lint_paths([pkg], select=list(CONCURRENCY_CODES))
    assert findings == [], "\n".join(f.render() for f in findings)
