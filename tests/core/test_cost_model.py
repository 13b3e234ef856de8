"""Cost-model behaviour: monotonicities and paper-dataset decisions."""

import pytest

from repro.core import ArchCalibration, CostModel
from repro.features import extract_profile, profile_from_dense
from repro.formats import from_dense
import numpy as np


@pytest.fixture
def cm() -> CostModel:
    return CostModel()


def profile(**kw):
    from repro.features import DatasetProfile

    base = dict(
        m=1000, n=500, nnz=50000, ndig=900, dnnz=55.6, mdim=80,
        adim=50.0, vdim=100.0, density=0.1,
    )
    base.update(kw)
    return DatasetProfile(**base)


class TestEffectiveElements:
    def test_den_is_mn(self, cm):
        assert cm.effective_elements("DEN", profile()) == 1000 * 500

    def test_ell_is_m_mdim(self, cm):
        assert cm.effective_elements("ELL", profile()) == 1000 * 80

    def test_dia_is_ndig_minmn(self, cm):
        assert cm.effective_elements("DIA", profile()) == 900 * 500

    def test_coo_is_nnz(self, cm):
        assert cm.effective_elements("COO", profile()) == 50000

    def test_csr_at_least_nnz(self, cm):
        assert cm.effective_elements("CSR", profile()) >= 50000

    def test_csr_uniform_exact_padding(self, cm):
        # vdim=0, adim=8 divisible by W=8: no padding waste at all.
        p = profile(adim=8.0, vdim=0.0, nnz=8000, mdim=8)
        assert cm.effective_elements("CSR", p) == 8000

    def test_unknown_format(self, cm):
        with pytest.raises(ValueError):
            cm.effective_elements("XXX", profile())


class TestMonotonicity:
    """The Table IV correlation signs, asserted on the model."""

    def test_csr_cost_increases_with_vdim(self, cm):
        costs = [
            cm.cost("CSR", profile(vdim=v)).cost for v in (0.0, 50.0, 500.0)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_coo_cost_independent_of_vdim(self, cm):
        assert (
            cm.cost("COO", profile(vdim=0.0)).cost
            == cm.cost("COO", profile(vdim=500.0)).cost
        )

    def test_ell_cost_increases_with_mdim(self, cm):
        assert (
            cm.cost("ELL", profile(mdim=40)).cost
            < cm.cost("ELL", profile(mdim=400)).cost
        )

    def test_dia_cost_increases_with_ndig(self, cm):
        assert (
            cm.cost("DIA", profile(ndig=10)).cost
            < cm.cost("DIA", profile(ndig=1000)).cost
        )

    def test_den_cost_increases_with_n(self, cm):
        assert (
            cm.cost("DEN", profile(n=500)).cost
            < cm.cost("DEN", profile(n=5000, ndig=900)).cost
        )


class TestRanking:
    def test_rank_sorted(self, cm):
        ranked = cm.rank(profile())
        costs = [c.cost for c in ranked]
        assert costs == sorted(costs)

    def test_best_on_structures(self, cm, banded):
        # banded 50x50, 5 diagonals -> DIA wins on a big enough version
        big = np.kron(np.eye(20), banded[:10, :10])  # 200x200 banded
        p = profile_from_dense(big)
        assert cm.best(p) in ("DIA", "ELL")
        # fully dense -> DEN
        assert cm.best(profile_from_dense(np.ones((64, 64)))) == "DEN"


class TestCalibration:
    def test_simd_width_override(self):
        cal = ArchCalibration().with_simd_width(16)
        assert cal.simd_width == 16
        with pytest.raises(ValueError):
            ArchCalibration().with_simd_width(0)

    def test_wider_simd_increases_csr_padding(self):
        p = profile(adim=5.0, vdim=10.0)
        narrow = CostModel(ArchCalibration().with_simd_width(4))
        wide = CostModel(ArchCalibration().with_simd_width(16))
        assert wide.effective_elements("CSR", p) > narrow.effective_elements(
            "CSR", p
        )
