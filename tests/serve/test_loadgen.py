"""Load generation, served on the virtual clock by a one-worker fleet."""

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    FormatRescheduler,
    InferenceEngine,
    closed_loop,
    open_loop,
    phase_shift,
    query_sampler,
    replay_unbatched,
)
from repro.serve.bench import flip_model, synthetic_model

from .one_worker import KEY, serve_one_worker


@pytest.fixture(scope="module")
def engine_model():
    return synthetic_model(150, 80, 8, seed=31)


def _sampler(n_features=80, nnz=6):
    return query_sampler(n_features, nnz)


class TestWorkloads:
    def test_open_loop_is_seeded_deterministic(self):
        a = open_loop(50, 500.0, _sampler(), seed=5)
        b = open_loop(50, 500.0, _sampler(), seed=5)
        assert [r.t for r in a.arrivals] == [r.t for r in b.arrivals]
        assert all(
            np.array_equal(x.vector.values, y.vector.values)
            for x, y in zip(a.arrivals, b.arrivals)
        )
        c = open_loop(50, 500.0, _sampler(), seed=6)
        assert [r.t for r in a.arrivals] != [r.t for r in c.arrivals]

    def test_open_loop_times_increase(self):
        w = open_loop(100, 1000.0, _sampler(), seed=1)
        ts = [r.t for r in w.arrivals]
        assert ts == sorted(ts)
        assert len(w) == 100

    def test_closed_loop_respects_concurrency_cycle(self):
        w = closed_loop(
            12, 3, _sampler(), service_ms=2.0, think_ms=1.0, seed=0
        )
        ts = [r.t for r in w.arrivals]
        assert ts == sorted(ts)
        # 3 clients at t=0, then reissues every 3 ms per client
        assert ts[:3] == [0.0, 0.0, 0.0]
        assert ts[3] == pytest.approx(0.003)

    def test_phase_shift_structure(self):
        w = phase_shift(
            _sampler(), singles=4, bursts=3, burst_size=5, seed=0
        )
        assert len(w) == 4 + 15
        burst_ts = [r.t for r in w.arrivals[4:9]]
        assert len(set(burst_ts)) == 1  # a burst arrives simultaneously

    def test_deadlines_attached(self):
        w = open_loop(5, 100.0, _sampler(), seed=0, deadline_ms=7.0)
        for r in w.arrivals:
            assert r.deadline == pytest.approx(r.t + 0.007)

    def test_validation(self):
        with pytest.raises(ValueError):
            open_loop(5, 0.0, _sampler())
        with pytest.raises(ValueError):
            closed_loop(5, 0, _sampler())
        with pytest.raises(ValueError):
            query_sampler(10, 0)


class TestSimulate:
    def test_every_request_answered_and_batched_equals_unbatched(
        self, engine_model
    ):
        w = open_loop(60, 3000.0, _sampler(), seed=2)
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=4, max_wait_ms=2.0
        )
        assert set(report.responses) == set(range(60))
        ref = replay_unbatched(
            InferenceEngine(engine_model.clone()), w
        )
        assert report.responses == ref  # exact float equality

    def test_simulation_is_replayable(self, engine_model):
        w = open_loop(40, 2000.0, _sampler(), seed=3)
        r1 = serve_one_worker(engine_model.clone(), w)
        r2 = serve_one_worker(engine_model.clone(), w)
        assert r1.responses == r2.responses
        assert r1.metrics.snapshot() == r2.metrics.snapshot()

    def test_wide_bursts_coalesce(self, engine_model):
        w = phase_shift(
            _sampler(), singles=0, bursts=5, burst_size=8, seed=4
        )
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=8, max_wait_ms=2.0
        )
        assert report.metrics.batch_histogram() == {8: 5}

    def test_paced_singles_serve_alone(self, engine_model):
        w = phase_shift(
            _sampler(), singles=6, single_gap_ms=10.0, bursts=0, seed=4
        )
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=8, max_wait_ms=2.0
        )
        assert report.metrics.batch_histogram() == {1: 6}
        # latency = pure coalescing wait = max_wait for a lone request
        assert max(report.metrics.latencies) <= 0.002 + 1e-12

    def test_backpressure_rejects_over_capacity(self, engine_model):
        w = phase_shift(
            _sampler(), singles=0, bursts=1, burst_size=10, seed=5
        )
        adm = AdmissionController(capacity=4, shed_at=1.0)
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=32, max_wait_ms=2.0,
            admission=adm,
        )
        snap = report.metrics.snapshot()
        assert snap["rejected"] == 6
        assert snap["served"] == 4
        assert adm.in_flight == 0  # every admitted slot released

    def test_shedding_degrades_to_single_path(self, engine_model):
        w = phase_shift(
            _sampler(), singles=0, bursts=1, burst_size=8, seed=6
        )
        adm = AdmissionController(capacity=8, shed_at=0.5)
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=32, max_wait_ms=2.0,
            admission=adm,
        )
        snap = report.metrics.snapshot()
        assert snap["degraded"] == 4
        assert snap["served"] == 8  # degraded answers still count
        # degraded answers equal the batched ones bitwise
        ref = replay_unbatched(
            InferenceEngine(engine_model.clone()), w
        )
        assert report.responses == ref

    def test_deadline_expiry_drops_requests(self, engine_model):
        # lone requests with deadlines shorter than the coalescing wait
        w = phase_shift(
            _sampler(),
            singles=5,
            single_gap_ms=10.0,
            bursts=0,
            seed=7,
            deadline_ms=1.0,
        )
        report = serve_one_worker(
            engine_model.clone(), w, max_batch=8, max_wait_ms=5.0
        )
        snap = report.metrics.snapshot()
        assert snap["expired"] == 5
        assert snap["served"] == 0
        assert report.responses == {}


class TestMidStreamReschedule:
    def test_phase_shift_flips_format_and_stays_bitwise(self):
        model = flip_model(seed=1)
        # Unreordered family only: the demo crossover ELL -> COO does
        # not exist once RSELL is a candidate (it wins at every k; the
        # SELL-family flip is covered in test_sell_flip.py).
        policy = dict(
            window=32,
            check_every=8,
            min_gain=0.0,
            candidates=("CSR", "COO", "ELL", "DIA"),
        )
        fmt0 = FormatRescheduler(**policy).initial_format(model.matrix)
        w = phase_shift(
            query_sampler(model.n_features, 10),
            singles=16,
            bursts=16,
            burst_size=8,
            seed=8,
        )
        report = serve_one_worker(
            model, w, fmt0=fmt0, rescheduler=policy, max_batch=8,
            max_wait_ms=2.0,
        )
        assert report.events, "the batch-width shift must re-schedule"
        assert report.snapshot.formats[0][KEY] != fmt0
        assert report.metrics.reschedules == len(report.events)
        pinned = InferenceEngine(model.clone())
        pinned.convert_to(fmt0)
        assert report.responses == replay_unbatched(pinned, w)
