"""Load accounting on a tiny one-worker process fleet: every attempted
request ends exactly once, as answered, rejected, expired or errored,
and every admission slot and routing count is given back."""

import numpy as np

from bench import serve


def tiny_prep():
    from repro.serve import query_sampler
    from repro.serve.bench import synthetic_model

    model = synthetic_model(n_sv=60, n_features=40, row_nnz=6, seed=3)
    sample = query_sampler(40, 5)
    rng = np.random.default_rng(0)
    return serve.Prepared(
        models={"m": model},
        pools={"m": [sample(rng) for _ in range(16)]},
        fleet_kwargs={},
    )


def test_every_request_ends_exactly_once():
    from repro.serve import AdmissionController

    prep = tiny_prep()
    shape = serve.ServeShape("tiny", 1, {})
    fleet = serve._open_fleet(shape, prep)
    try:
        load = serve.LoadRunner(fleet, prep)
        # A small door so a simultaneous burst is partly rejected.
        load.admission = AdmissionController(capacity=4, shed_at=1.0)
        try:
            arrivals = (
                # already past their deadline when they arrive: expire
                [(-1.0, "m", q) for q in range(3)]
                # a simultaneous burst beyond the door's capacity
                + [(0.010, "m", q % 16) for q in range(12)]
                # paced traffic the fleet keeps up with
                + [(0.050 + 0.004 * i, "m", i % 16) for i in range(40)]
            )
            seg = load.run_segment("t", arrivals, 0.3, None)
        finally:
            load.close()
        assert fleet.table.outstanding() == (0,)
    finally:
        fleet.close()

    statuses = [r.status for r in seg.reqs]
    assert len(statuses) == len(arrivals)
    assert set(statuses) <= {"answered", "rejected", "expired", "errored"}
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts.get("expired", 0) >= 3
    assert counts.get("rejected", 0) >= 1
    assert counts.get("errored", 0) == 0
    assert counts["answered"] >= 40
    assert load.admission.in_flight == 0
    assert not load.errors
    reference = serve.reference_answers(prep)["m"]
    for r in seg.reqs:
        if r.status == "answered":
            assert r.label == reference[0][r.qidx]
            assert np.array_equal(r.dec, reference[1][r.qidx])
            assert r.latency > 0.0
