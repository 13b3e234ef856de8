"""Golden serving sessions: literal outcomes of eight seeded sessions.

Each session is a seeded workload served on the virtual clock by a
one-worker fleet with zero modelled service time, so latency is pure
coalescing wait.  The pinned values — counts, latency percentiles, the
batch histogram, the sweep counters and the runtime re-schedule
events — are the session's whole observable behaviour; a change to the
serving loop that moves any of them is a behaviour change, not a
refactor.  Every answer is also checked against the unbatched
single-vector replay.
"""

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
from repro.serve.bench import (
    CLASSIC_SERVE_FORMATS,
    flip_model,
    synthetic_model,
)

from .one_worker import serve_one_worker

MODEL = synthetic_model(150, 80, 8, seed=31)
SAMPLER = query_sampler(80, 6)
FLIP = flip_model(seed=0)
#: The re-schedule demo's policy (``serve.bench.run_reschedule_demo``).
DEMO_RESCHEDULER = dict(
    window=32, check_every=8, min_gain=0.0, candidates=CLASSIC_SERVE_FORMATS
)


def _serve(model, workload, *, fmt0=None, rescheduler=None,
           admission=None, max_batch=8, max_wait_ms=2.0):
    """Serve one session; returns ``(responses, events, snapshot)``."""
    report = serve_one_worker(
        model,
        workload,
        fmt0=fmt0,
        rescheduler=rescheduler,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        admission=admission,
    )
    events = [
        (e.batch_seq, e.effective_k, e.from_fmt, e.to_fmt)
        for _key, _shard, e in report.events
    ]
    return report.responses, events, report.metrics.snapshot()


def _session(name):
    """``(model, workload, serve kwargs)`` of one named session."""
    if name == "open":
        return MODEL, open_loop(120, 3000.0, SAMPLER, seed=2), dict(
            max_batch=4
        )
    if name == "bursts":
        return MODEL, phase_shift(
            SAMPLER, singles=8, bursts=10, burst_size=8, seed=4
        ), {}
    if name == "flush-tie":
        # Every paced single and every burst arrives exactly at the
        # previous batch's flush deadline: the flush fires first, so
        # each single is served alone.
        return MODEL, phase_shift(
            SAMPLER, singles=12, single_gap_ms=2.0, bursts=4,
            burst_size=6, burst_gap_ms=2.0, seed=9,
        ), {}
    if name == "closed":
        return MODEL, closed_loop(128, 8, SAMPLER, seed=5), {}
    if name == "shedding":
        return MODEL, open_loop(300, 20000.0, SAMPLER, seed=6), dict(
            max_batch=16,
            admission=AdmissionController(capacity=12, shed_at=0.5),
        )
    if name == "backpressure":
        return MODEL, phase_shift(
            SAMPLER, singles=0, bursts=3, burst_size=10, seed=5
        ), dict(
            max_batch=32,
            admission=AdmissionController(capacity=4, shed_at=1.0),
        )
    if name == "expiry":
        return MODEL, open_loop(
            100, 1500.0, SAMPLER, seed=7, deadline_ms=1.0
        ), {}
    assert name == "reschedule-demo"
    fmt0 = FormatRescheduler(**DEMO_RESCHEDULER).initial_format(FLIP.matrix)
    return FLIP, phase_shift(
        query_sampler(FLIP.n_features, 12),
        singles=24,
        single_gap_ms=5.0,
        bursts=16,
        burst_size=8,
        burst_gap_ms=5.0,
        seed=3,
    ), dict(fmt0=fmt0, rescheduler=DEMO_RESCHEDULER)


#: Recorded outcomes: (served, batches, degraded, expired, rejected,
#: latency p50 ms, latency p99 ms, batch histogram, spmm_calls,
#: spmm_columns, re-schedule events).
GOLDEN = {
    "open": (
        120, 31, 0, 0, 0, 0.3875167969006679, 2.000000000000001,
        {"3": 4, "4": 27}, 31, 120, [],
    ),
    "bursts": (
        88, 18, 0, 0, 0, 0.0, 2.0000000000000018,
        {"1": 8, "8": 10}, 18, 88, [],
    ),
    "flush-tie": (
        36, 16, 0, 0, 0, 2.0000000000000018, 2.0000000000000018,
        {"1": 12, "6": 4}, 16, 36, [],
    ),
    "closed": (128, 16, 0, 0, 0, 0.0, 0.0, {"8": 16}, 16, 128, []),
    "shedding": (300, 7, 258, 0, 0, 0.0, 2.0, {"6": 7}, 7, 42, []),
    "backpressure": (12, 3, 0, 0, 18, 2.0, 2.0, {"4": 3}, 3, 12, []),
    "expiry": (
        44, 22, 0, 56, 0, 0.5225323764958891, 0.9493041482964599,
        {"1": 9, "2": 8, "3": 2, "4": 2, "5": 1}, 22, 44, [],
    ),
    "reschedule-demo": (
        152, 40, 0, 0, 0, 0.0, 2.0000000000000018,
        {"1": 24, "8": 16}, 40, 152, [(32, 6, "ELL", "COO")],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_session_matches_golden(name):
    model, workload, kwargs = _session(name)
    responses, events, snap = _serve(model, workload, **kwargs)
    (served, batches, degraded, expired, rejected, p50, p99, hist,
     spmm_calls, spmm_columns, golden_events) = GOLDEN[name]
    assert snap["served"] == served
    assert snap["batches"] == batches
    assert snap["degraded"] == degraded
    assert snap["expired"] == expired
    assert snap["rejected"] == rejected
    assert snap["latency"]["p50_ms"] == pytest.approx(p50, abs=1e-9)
    assert snap["latency"]["p99_ms"] == pytest.approx(p99, abs=1e-9)
    assert snap["batch_histogram"] == hist
    assert snap["ops"]["spmm_calls"] == spmm_calls
    assert snap["ops"]["spmm_columns"] == spmm_columns
    assert events == golden_events
    assert snap["reschedules"] == len(golden_events)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_session_answers_equal_unbatched_replay(name):
    model, workload, kwargs = _session(name)
    responses, _events, snap = _serve(model, workload, **kwargs)
    pinned = InferenceEngine(model.clone())
    if kwargs.get("fmt0") is not None:
        pinned.convert_to(kwargs["fmt0"])
    reference = replay_unbatched(pinned, workload)
    assert len(responses) == snap["served"]
    assert all(responses[i] == reference[i] for i in responses)
