"""End-to-end instrumentation: real pipelines produce real span trees.

Every test runs the actual subsystem (SMO solver, scheduler, format
conversion, parallel kernels, serving loop) under the enabled global
tracer and asserts on the recorded spans, audit records, and shard-
merged metrics — the contract the exporters and the regret report
stand on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.autotune import AutoTuner, ProbeResult
from repro.core.scheduler import LayoutScheduler
from repro.data.synthetic import uniform_rows_matrix
from repro.formats.convert import convert, from_dense
from repro.obs.audit import audit_dataset, audit_log
from repro.obs.trace import span_tree
from repro.parallel.kernels import parallel_matmat
from repro.parallel.pool import WorkerPool
from repro.serve.bench import CLASSIC_SERVE_FORMATS, flip_model
from repro.serve.loadgen import open_loop, query_sampler
from repro.svm.kernels import LinearKernel
from repro.svm.smo import smo_train
from tests.serve.one_worker import serve_one_worker


def _spans(tracer, name):
    return [s for s in tracer.spans() if s.name == name]


def _toy_problem(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((24, 6))
    y = np.where(x[:, 0] + x[:, 1] > 0, 1.0, -1.0)
    return from_dense(x, "CSR"), y


class TestSmoInstrumentation:
    def test_train_span_parents_every_iteration(self, global_tracer):
        X, y = _toy_problem()
        res = smo_train(X, y, LinearKernel(), C=1.0)
        trains = _spans(global_tracer, "smo.train")
        assert len(trains) == 1
        train = trains[0]
        assert dict(train.attrs)["iterations"] == res.iterations
        iters = _spans(global_tracer, "smo.iteration")
        assert len(iters) == res.iterations
        assert all(s.parent_id == train.span_id for s in iters)

    def test_tracing_does_not_change_the_solution(self, global_tracer):
        X, y = _toy_problem()
        traced = smo_train(X, y, LinearKernel(), C=1.0)
        global_tracer.disable()
        bare = smo_train(X, y, LinearKernel(), C=1.0)
        assert traced.iterations == bare.iterations
        assert np.array_equal(traced.alpha, bare.alpha)
        assert traced.b == bare.b


class TestSchedulerInstrumentation:
    def _coo(self, seed=0):
        return uniform_rows_matrix(128, 64, 8, seed=seed)

    def test_decide_records_span_and_audit(self, global_tracer):
        rows, cols, values, shape = self._coo()
        sched = LayoutScheduler("cost")
        with audit_dataset("toy"):
            decision = sched.decide_from_coo(rows, cols, values, shape)
        decides = _spans(global_tracer, "schedule.decide")
        assert len(decides) == 1
        attrs = dict(decides[0].attrs)
        assert attrs["fmt"] == decision.fmt
        assert attrs["cached"] is False
        records = audit_log().records("schedule")
        assert len(records) == 1
        rec = records[0]
        assert rec.dataset == "toy"
        assert rec.chosen == decision.fmt
        assert rec.predicted  # analytic costs always present
        assert rec.features["m"] == 128.0

    @pytest.mark.parametrize("strategy", ["rules", "cost", "probe", "hybrid"])
    def test_tracing_never_adds_probes(
        self, global_tracer, monkeypatch, strategy
    ):
        # Count every AutoTuner.probe call; the stand-in times each
        # format by its name so the probing strategies decide the same
        # way on both runs and the audit records compare exactly.
        calls = []

        def counted_probe(self, rows, cols, values, shape, candidates=None):
            calls.append(candidates)
            return sorted(
                ProbeResult(fmt, 1e-6 * (1 + i), 0.0, 8)
                for i, fmt in enumerate(sorted(candidates))
            )

        monkeypatch.setattr(AutoTuner, "probe", counted_probe)
        rows, cols, values, shape = self._coo()

        def run(traced):
            global_tracer.enabled = traced
            audit_log().clear()
            before = len(calls)
            with audit_dataset("guard"):
                decision = LayoutScheduler(strategy).decide_from_coo(
                    rows, cols, values, shape
                )
            return decision, len(calls) - before, audit_log().records()

        bare, bare_probes, bare_records = run(False)
        traced, traced_probes, traced_records = run(True)
        assert traced_probes == bare_probes == (
            1 if strategy in ("probe", "hybrid") else 0
        )
        assert traced == bare
        assert traced.measured == bare.measured
        assert len(traced_records) == len(bare_records) == 1
        assert traced_records[0].as_dict() == bare_records[0].as_dict()
        assert traced_records[0].measured == dict(bare.measured)


class TestConvertInstrumentation:
    def test_convert_span_carries_endpoints(self, global_tracer):
        rows, cols, values, shape = uniform_rows_matrix(
            64, 32, 4, seed=1
        )
        from repro.formats.csr import CSRMatrix

        matrix = CSRMatrix.from_coo(rows, cols, values, shape)
        out = convert(matrix, "ELL")
        assert out.name == "ELL"
        convs = _spans(global_tracer, "formats.convert")
        assert len(convs) == 1
        attrs = dict(convs[0].attrs)
        assert attrs["from"] == "CSR"
        assert attrs["to"] == "ELL"
        assert attrs["nnz"] == matrix.nnz

    def test_noop_conversion_records_nothing(self, global_tracer):
        rows, cols, values, shape = uniform_rows_matrix(
            64, 32, 4, seed=1
        )
        from repro.formats.csr import CSRMatrix

        matrix = CSRMatrix.from_coo(rows, cols, values, shape)
        assert convert(matrix, "CSR") is matrix
        assert _spans(global_tracer, "formats.convert") == []


class TestParallelInstrumentation:
    def test_parallel_region_span_and_shard_merged_metrics(
        self, global_tracer, global_registry
    ):
        rng = np.random.default_rng(2)
        matrix = from_dense(rng.standard_normal((512, 64)), "DEN")
        V = rng.standard_normal((64, 2))
        with WorkerPool(2) as pool:
            Y = parallel_matmat(matrix, V, pool=pool)
        np.testing.assert_array_equal(Y, matrix.matmat(V))
        regions = _spans(global_tracer, "parallel.matmat")
        assert len(regions) == 1
        attrs = dict(regions[0].attrs)
        assert attrs["fmt"] == "DEN"
        assert attrs["n_blocks"] == 2
        blocks = global_registry.get("repro_parallel.blocks")
        seconds = global_registry.get("repro_parallel.block_seconds")
        assert blocks.value == 2.0
        assert seconds.count == 2
        assert seconds.percentile(50.0) >= 0.0


class TestServeInstrumentation:
    def test_simulate_span_tree_and_serve_audit(self, global_tracer):
        model = flip_model(seed=0)
        policy = dict(
            window=16,
            check_every=4,
            min_gain=0.0,
            candidates=CLASSIC_SERVE_FORMATS,
        )
        sampler = query_sampler(model.n_features, 10)
        workload = open_loop(48, 20_000.0, sampler, seed=4)
        with audit_dataset("flip-demo"):
            report = serve_one_worker(
                model, workload, rescheduler=policy, max_batch=8,
                max_wait_ms=2.0,
            )
        sims = _spans(global_tracer, "serve.simulate")
        assert len(sims) == 1
        sim = sims[0]
        assert dict(sim.attrs)["n"] == 48
        # admits and batches hang off the simulate root
        roots = span_tree(global_tracer.spans())
        sim_node = [
            n for n in roots if n.record.name == "serve.simulate"
        ][0]
        child_names = {c.record.name for c in sim_node.children}
        assert "serve.admit" in child_names
        assert len(_spans(global_tracer, "serve.batch")) > 0
        # the fast open-loop stream coalesces wide batches, so the
        # rescheduler flips off the batch_k=1 format and audits it
        assert report.events, "expected at least one runtime flip"
        assert len(_spans(global_tracer, "serve.reschedule")) >= 1
        serve_records = audit_log().records("serve")
        assert len(serve_records) == len(report.events)
        rec = serve_records[0]
        _key, _shard, first = report.events[0]
        assert rec.dataset == "flip-demo"
        assert rec.chosen == first.to_fmt
        assert rec.batch_k == first.effective_k
        assert rec.predicted

    def test_simulation_identical_with_tracing_off(self, global_tracer):
        model = flip_model(seed=1)
        sampler = query_sampler(model.n_features, 10)
        workload = open_loop(24, 50.0, sampler, seed=5)
        traced = serve_one_worker(model.clone(), workload).responses
        global_tracer.disable()
        bare = serve_one_worker(model.clone(), workload).responses
        assert traced == bare
