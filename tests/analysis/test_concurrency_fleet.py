"""Concurrency coverage for the fleet tier: static + runtime positives.

The fleet's genuinely shared-mutable pieces — the shard table the
rebalancer mutates while dispatches read, and per-shard transport
accounting — must stay inside the RDL009-012 static scope and the
``REPRO_RACE`` runtime sanitizer's watch.  These tests pin both
directions: the true-positive fixtures show the checkers *would* fire
on the unguarded versions of exactly those mutations, and the
tree-level checks show the shipped fleet modules are clean.
"""

import pathlib
import textwrap
import threading

import repro
from repro.analysis import lint_paths, lint_source
from repro.analysis.race import RaceSanitizer

FLEET = "src/repro/serve/fleet.py"
ROUTER = "src/repro/serve/router.py"


def lint(src, path, code):
    return lint_source(textwrap.dedent(src), path, select=[code])


def codes(findings):
    return [f.code for f in findings]


class TestStaticTruePositives:
    """The unguarded variants of the fleet's real mutations fire."""

    def test_unguarded_shard_table_mutation_fires(self):
        """A rebalancer writing the replica map outside the lock."""
        src = """
        class ShardTable:
            def place(self, model, shard):
                with self._lock:
                    self._replicas.setdefault(model, []).append(shard)

            def rebalance(self, model, shard):
                # the bug the lint exists for: mutating the table
                # while concurrent dispatches read it under the lock
                self._replicas[model] = [shard]
        """
        findings = lint(src, ROUTER, "RDL009")
        assert findings and set(codes(findings)) == {"RDL009"}
        assert "ShardTable._replicas" in findings[0].message

    def test_unguarded_outstanding_counter_fires(self):
        src = """
        class ShardTable:
            def acquire(self, model):
                with self._lock:
                    self._outstanding[0] += 1
                    return 0

            def release(self, shard):
                self._outstanding[shard] -= 1
        """
        findings = lint(src, ROUTER, "RDL009")
        assert findings and set(codes(findings)) == {"RDL009"}
        assert "_outstanding" in findings[0].message

    def test_double_checked_batcher_init_fires(self):
        """Lazy per-shard batcher creation without a lock (RDL012)."""
        src = """
        class Door:
            def batcher_for(self, key):
                if self._batcher is None:
                    self._batcher = object()
                return self._batcher
        """
        findings = lint(src, FLEET, "RDL012")
        assert codes(findings) == ["RDL012"]

    def test_locked_variant_is_clean(self):
        src = """
        class ShardTable:
            def place(self, model, shard):
                with self._lock:
                    self._replicas.setdefault(model, []).append(shard)

            def rebalance(self, model, shard):
                with self._lock:
                    self._replicas[model] = [shard]
        """
        assert lint(src, ROUTER, "RDL009") == []


class TestRuntimeTruePositive:
    """The lockset sanitizer catches an unguarded shard-table race."""

    def run_two(self, fn1, fn2):
        first_done = threading.Event()
        release = threading.Event()

        def w1():
            fn1()
            first_done.set()
            release.wait(timeout=10)

        def w2():
            assert first_done.wait(timeout=10)
            fn2()

        t1 = threading.Thread(target=w1, name="door")
        t2 = threading.Thread(target=w2, name="rebalancer")
        t1.start()
        t2.start()
        t2.join()
        release.set()
        t1.join()

    def test_disjoint_locksets_on_shard_table_report(self):
        san = RaceSanitizer(enabled=True)

        class Table:
            def __init__(self):
                self._replicas = {}

        table = san.track(Table(), ("_replicas",))
        dispatch_lock = san.make_lock("door")
        rebalance_lock = san.make_lock("rebalancer")

        def dispatch():
            with dispatch_lock:
                _ = table._replicas

        def rebalance():
            # Publishing a new replica map while a dispatch reads the
            # old one — each side under a lock, but not the *same* one.
            with rebalance_lock:
                table._replicas = {"m": [0, 1]}

        self.run_two(dispatch, rebalance)
        reports = san.reports()
        assert reports, "disjoint locksets must be reported"
        assert any("_replicas" in r.render() for r in reports)

    def test_common_lock_is_clean(self):
        san = RaceSanitizer(enabled=True)

        class Table:
            def __init__(self):
                self._replicas = {}

        table = san.track(Table(), ("_replicas",))
        lock = san.make_lock("shard_table")

        def dispatch():
            with lock:
                _ = table._replicas

        def rebalance():
            with lock:
                table._replicas = {"m": [0, 1]}

        self.run_two(dispatch, rebalance)
        assert san.reports() == []


class TestShippedFleetModulesAreClean:
    def test_fleet_tier_sources_pass_the_race_lint(self):
        root = pathlib.Path(repro.__file__).resolve().parent / "serve"
        findings = lint_paths(
            [
                str(root / name)
                for name in (
                    "fleet.py", "router.py", "worker.py", "shm.py",
                    "bench_fleet.py",
                )
            ],
            select=["RDL009", "RDL010", "RDL011", "RDL012"],
        )
        assert findings == [], [f.render() for f in findings]
