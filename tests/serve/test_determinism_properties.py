"""Property tests: micro-batched serving is bitwise-deterministic.

The serving contract under test: for ANY arrival interleaving and ANY
batching knobs, every answer equals the unbatched single-vector answer
exactly — not approximately — and that equality survives an
adversarial format re-schedule after every single batch.  Within one
format the guarantee is unconditional (the SpMM column contract);
across formats decision values agree to 1 ULP and served labels are
compared exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    EXACT_SERVE_FORMATS,
    InferenceEngine,
    open_loop,
    phase_shift,
    query_sampler,
    replay_unbatched,
    simulate_fleet,
)
from repro.serve.bench import synthetic_model

from .one_worker import KEY, ZERO_SERVICE, one_worker_fleet, serve_one_worker

# One small model for every example: building it is the expensive part,
# and the property quantifies over workloads and knobs, not models.
MODEL = synthetic_model(120, 60, 6, seed=41)
SAMPLER = query_sampler(60, 5)


class _ToggleRescheduler:
    """Adversarial policy: force a format swap after every batch.

    Far harsher than the real cost-model policy — if answers survive a
    swap per batch, they survive any realistic cadence.
    """

    def __init__(self):
        self._i = 0
        self.events = []

    def after_batch(self, batch_size, matrix):
        from repro.serve.rescheduler import RescheduleEvent

        self._i += 1
        to = EXACT_SERVE_FORMATS[self._i % len(EXACT_SERVE_FORMATS)]
        if to == matrix.name:  # never skip a swap: pick the next one
            to = EXACT_SERVE_FORMATS[
                (self._i + 1) % len(EXACT_SERVE_FORMATS)
            ]
        e = RescheduleEvent(self._i, batch_size, matrix.name, to, "toggle")
        self.events.append(e)
        return e


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 48),
    rate=st.floats(200.0, 20000.0),
    max_batch=st.integers(1, 12),
    max_wait_ms=st.floats(0.0, 10.0),
)
@settings(max_examples=25, deadline=None)
def test_any_interleaving_matches_unbatched(
    seed, n, rate, max_batch, max_wait_ms
):
    w = open_loop(n, rate, SAMPLER, seed=seed)
    report = serve_one_worker(
        MODEL.clone(),
        w,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
    )
    ref = replay_unbatched(InferenceEngine(MODEL.clone()), w)
    assert report.responses == ref


@given(
    seed=st.integers(0, 2**16),
    singles=st.integers(0, 12),
    bursts=st.integers(1, 6),
    burst_size=st.integers(2, 8),
    start=st.sampled_from(EXACT_SERVE_FORMATS),
)
@settings(max_examples=25, deadline=None)
def test_reschedule_every_batch_stays_bitwise(
    seed, singles, bursts, burst_size, start
):
    w = phase_shift(
        SAMPLER,
        singles=singles,
        bursts=bursts,
        burst_size=burst_size,
        seed=seed,
    )
    toggler = _ToggleRescheduler()
    with one_worker_fleet(MODEL.clone(), fmt0=start) as fleet:
        # Install the adversary in the worker: every served batch
        # swaps the replica's format.
        fleet.shards[0].server.reschedulers[KEY] = toggler
        report = simulate_fleet(
            fleet, w, max_batch=burst_size, service=ZERO_SERVICE
        )
    assert toggler.events, "the toggler must actually swap formats"
    assert len(report.events) == len(toggler.events)
    pinned = InferenceEngine(MODEL.clone())
    pinned.convert_to(start)
    assert report.responses == replay_unbatched(pinned, w)


@given(
    seed=st.integers(0, 2**16),
    k=st.integers(1, 10),
)
@settings(max_examples=25, deadline=None)
def test_batched_decisions_equal_singles_in_every_format(seed, k):
    rng = np.random.default_rng(seed)
    qs = [SAMPLER(rng) for _ in range(k)]
    engine = InferenceEngine(MODEL.clone())
    reference = None
    for fmt in EXACT_SERVE_FORMATS:
        engine.convert_to(fmt)
        batched = engine.decision_function(qs)
        singles = np.stack([engine.decision_one(v) for v in qs])
        # the hard, universal contract: batched == single per format
        assert np.array_equal(batched, singles)
        if reference is None:
            reference = batched
        else:
            # cross-format: 1-ULP agreement (association order may
            # differ when a row/query overlap exceeds two products)
            assert np.allclose(reference, batched, rtol=0.0, atol=1e-12)
