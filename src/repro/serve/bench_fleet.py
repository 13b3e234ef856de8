"""Fleet fixtures: the synthetic models and multi-tenant workload the
fleet tests, the ``repro serve --workers`` and ``repro obs slo`` demos,
and the wall-clock ``serve-tenants`` benchmark workload serve.

The fleet's deterministic contracts (virtual-clock scaling, bitwise
answers against an unbatched replay — including a run where replicas
flip formats mid-stream — zero-copy transport and the overload bound)
are tests in ``tests/serve/test_fleet.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.formats.convert import FORMAT_FAMILIES
from repro.serve.bench import synthetic_model
from repro.serve.engine import ServedModel
from repro.serve.loadgen import (
    TenantSpec,
    Workload,
    multi_tenant,
    query_sampler,
)

#: The strict-bitwise serving family (``FORMAT_FAMILIES["bitwise"]``):
#: a flip between its formats is bitwise invisible on *any* row/query
#: overlap.  Replica re-schedulers in the bitwise fleet runs draw from
#: this family.
STRONG_BITWISE_FORMATS: Tuple[str, ...] = FORMAT_FAMILIES["bitwise"]

_N_FEATURES = 160


def fleet_models(*, smoke: bool = False) -> Dict[str, ServedModel]:
    """The two-tenant model pair the fleet demos serve."""
    scale = 1 if smoke else 2
    return {
        "alpha": synthetic_model(
            n_sv=220 * scale, n_features=_N_FEATURES, row_nnz=10, seed=11
        ),
        "beta": synthetic_model(
            n_sv=160 * scale, n_features=_N_FEATURES, row_nnz=14, seed=12
        ),
    }


def flip_fleet_models(*, smoke: bool = False) -> Dict[str, ServedModel]:
    """Heavy-tailed SV arenas: wide batches pull CSR into a sorted
    layout (the same crossover ``tests/serve/test_sell_flip.py`` pins),
    so the replica-divergence run reliably re-schedules mid-stream."""
    from repro.data.synthetic import powerlaw_rows_matrix
    from repro.formats.csr import CSRMatrix
    from repro.serve.engine import PairSlice
    from repro.svm.kernels import make_kernel

    scale = 1 if smoke else 2
    out: Dict[str, ServedModel] = {}
    for key, seed in (("alpha", 41), ("beta", 42)):
        rows, cols, vals, shape = powerlaw_rows_matrix(
            250 * scale, _N_FEATURES, alpha=1.5, min_nnz=4,
            max_nnz=80, seed=seed,
        )
        matrix = CSRMatrix.from_coo(rows, cols, vals, shape)
        rng = np.random.default_rng(seed + 1)
        out[key] = ServedModel(
            matrix,
            rng.standard_normal(shape[0]),
            [PairSlice(classes=(1.0, -1.0), lo=0, hi=shape[0], bias=0.1)],
            make_kernel("gaussian", gamma=0.2),
        )
    return out


def tenant_workload(*, smoke: bool = False, seed: int = 7) -> Workload:
    """Bursty + diurnal tenants, hot enough to saturate four shards.

    Aggregate arrival rate is far above one shard's service rate, so
    a fleet of up to four workers stays compute-bound.
    """
    n = 400 if smoke else 1200
    sampler = query_sampler(_N_FEATURES, 8)
    return multi_tenant(
        [
            TenantSpec(
                "t-burst", "alpha", n=n, rate_rps=30_000.0,
                pattern="bursty", burst_factor=6.0, period_s=0.02,
            ),
            TenantSpec(
                "t-tide", "beta", n=2 * n // 3, rate_rps=18_000.0,
                pattern="diurnal", amplitude=0.7, period_s=0.05,
            ),
        ],
        sampler,
        seed=seed,
        name="fleet-multi-tenant",
    )
