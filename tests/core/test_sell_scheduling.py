"""Cost model + scheduler coverage for SELL and the reordered layouts."""

import numpy as np
import pytest

from repro.core import LayoutScheduler
from repro.core.cost_model import ANALYTIC_FORMATS, CostModel
from repro.data.synthetic import powerlaw_rows_matrix, uniform_rows_matrix
from repro.features import profile_from_coo
from repro.formats.csr import CSRMatrix


def _profile(triples):
    rows, cols, _v, shape = triples
    return profile_from_coo(rows, cols, shape, validated=True)


@pytest.fixture
def highvar_profile():
    return _profile(
        powerlaw_rows_matrix(
            2048, 1024, alpha=1.6, min_nnz=32, max_nnz=512, seed=7
        )
    )


@pytest.fixture
def uniform_profile():
    return _profile(uniform_rows_matrix(512, 256, 24, seed=0))


class TestCostModel:
    def test_analytic_formats_all_price(self, highvar_profile):
        model = CostModel()
        for fmt in ANALYTIC_FORMATS:
            c = model.cost(fmt, highvar_profile)
            assert np.isfinite(c.cost) and c.cost > 0

    def test_sorted_layouts_win_on_high_variance(self, highvar_profile):
        model = CostModel()
        ranked = model.rank(highvar_profile, ANALYTIC_FORMATS)
        sparse_unordered = {"CSR", "COO", "ELL", "DIA"}
        best_sorted = min(
            c.cost for c in ranked if c.fmt in ("RCSR", "RSELL")
        )
        best_fixed = min(
            c.cost for c in ranked if c.fmt in sparse_unordered
        )
        assert best_sorted < best_fixed

    def test_reordering_does_not_pay_on_uniform_rows(
        self, uniform_profile
    ):
        model = CostModel()
        # vdim = 0: sorting buys nothing but still costs the scatter.
        assert (
            model.cost("RCSR", uniform_profile).cost
            > model.cost("CSR", uniform_profile).cost
        )
        assert (
            model.cost("RSELL", uniform_profile).cost
            > model.cost("SELL", uniform_profile).cost
        )

    def test_sell_elements_between_nnz_and_ell(self, highvar_profile):
        model = CostModel()
        p = highvar_profile
        sell = model.effective_elements("SELL", p)
        ell = model.effective_elements("ELL", p)
        assert p.nnz <= sell <= ell


class TestScheduler:
    def test_cost_strategy_accepts_reordered_candidates(
        self, highvar_profile
    ):
        sched = LayoutScheduler("cost", candidates=ANALYTIC_FORMATS)
        rows, cols, vals, shape = powerlaw_rows_matrix(
            2048, 1024, alpha=1.6, min_nnz=32, max_nnz=512, seed=7
        )
        d = sched.decide_from_coo(rows, cols, vals, shape)
        assert d.fmt in ANALYTIC_FORMATS

    def test_hybrid_fast_path_with_analytic_candidates(self):
        rows, cols, vals, shape = powerlaw_rows_matrix(
            512, 256, alpha=1.6, min_nnz=8, max_nnz=128, seed=3
        )
        sched = LayoutScheduler(
            "hybrid", candidates=("CSR", "RCSR", "RSELL")
        )
        d = sched.decide_from_coo(rows, cols, vals, shape)
        assert d.fmt in ("CSR", "RCSR", "RSELL")

    def test_apply_converts_into_reordered_layout(self):
        rows, cols, vals, shape = powerlaw_rows_matrix(
            1024, 512, alpha=1.5, min_nnz=32, max_nnz=256, seed=5
        )
        base = CSRMatrix.from_coo(rows, cols, vals, shape)
        sched = LayoutScheduler(
            "cost", candidates=("CSR", "RCSR", "RSELL")
        )
        converted, decision = sched.apply(base)
        assert converted.name == decision.fmt
        assert decision.fmt in ("RCSR", "RSELL")
        # conversion preserved the logical matrix bitwise
        r2, c2, v2 = converted.to_coo()
        assert np.array_equal(v2, vals)
