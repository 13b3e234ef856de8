"""VectorMachine stream counting for SELL and the reordered wrappers."""

import math

import numpy as np
import pytest

from repro.data.synthetic import powerlaw_rows_matrix
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import RCSRMatrix, RSELLMatrix
from repro.formats.sell import SELLMatrix
from repro.hardware import VectorMachine, get_machine

_VB, _IB = 8, 4  # value / index stream bytes (mirrors vectormachine)


@pytest.fixture
def machine():
    return VectorMachine(get_machine("knl"))


@pytest.fixture
def triples():
    return powerlaw_rows_matrix(
        300, 120, alpha=1.6, min_nnz=4, max_nnz=96, seed=9
    )


class TestSellStreams:
    @pytest.mark.parametrize("chunk", [1, 4, 8, 32])
    def test_vops_match_hand_formula(self, machine, triples, chunk):
        rows, cols, vals, shape = triples
        sell = SELLMatrix.from_coo(rows, cols, vals, shape, chunk=chunk)
        got = machine.count(sell)
        m = shape[0]
        widths = np.asarray(sell.slice_widths, dtype=np.int64)
        heights = np.minimum(
            chunk, m - chunk * np.arange(widths.shape[0])
        )
        lane_groups = -(-heights // machine.w)
        vops = int((widths * lane_groups).sum())
        assert got.vector_ops == vops
        assert got.startup_ops == int(
            machine.row_startup * sell.n_slices
        )

    def test_bytes_match_padded_stream(self, machine, triples):
        rows, cols, vals, shape = triples
        sell = SELLMatrix.from_coo(rows, cols, vals, shape, chunk=8)
        got = machine.count(sell)
        padded = sell.padded_elements
        matrix_bytes = padded * (_VB + _IB) + (sell.n_slices + 1) * 8
        percol_bytes = padded * _VB
        assert got.bytes_moved == matrix_bytes + percol_bytes

    def test_sorting_reduces_modelled_seconds(self, machine, triples):
        # The SELL-C-sigma pitch in one assertion: sorted slices pad
        # less, so the model must price RSELL below natural-order SELL
        # on a heavy-tailed matrix.
        rows, cols, vals, shape = triples
        sell = SELLMatrix.from_coo(rows, cols, vals, shape, chunk=8)
        rsell = RSELLMatrix.from_coo(rows, cols, vals, shape, chunk=8)
        assert (
            machine.count(rsell).seconds < machine.count(sell).seconds
        )


class TestWrapperStreams:
    def test_rcsr_adds_scatter_on_top_of_stored_csr(
        self, machine, triples
    ):
        rows, cols, vals, shape = triples
        wrapped = RCSRMatrix.from_coo(rows, cols, vals, shape)
        inner = machine.count(wrapped.stored)
        outer = machine.count(wrapped)
        m = shape[0]
        assert outer.vector_ops == inner.vector_ops + math.ceil(
            m / machine.w
        )
        assert outer.startup_ops == inner.startup_ops
        assert (
            outer.bytes_moved
            == inner.bytes_moved + m * 8 + m * _VB
        )

    @pytest.mark.parametrize("cls", [RCSRMatrix, RSELLMatrix])
    def test_wrapper_costs_more_than_its_core(
        self, machine, triples, cls
    ):
        rows, cols, vals, shape = triples
        wrapped = cls.from_coo(rows, cols, vals, shape)
        assert (
            machine.count(wrapped).seconds
            >= machine.count(wrapped.stored).seconds
        )


class TestCountMulti:
    @pytest.mark.parametrize(
        "build",
        [
            lambda r, c, v, s: SELLMatrix.from_coo(r, c, v, s, chunk=8),
            RCSRMatrix.from_coo,
            RSELLMatrix.from_coo,
        ],
        # Fixed ids keep each build's case name stable when the list changes.
        ids=["<lambda>", "from_coo0", "from_coo2"],
    )
    def test_k1_degenerates_to_count(self, machine, triples, build):
        rows, cols, vals, shape = triples
        mx = build(rows, cols, vals, shape)
        single = machine.count(mx)
        multi = machine.count_multi(mx, 1)
        assert multi.vector_ops == single.vector_ops
        assert multi.bytes_moved == single.bytes_moved
        assert multi.seconds == single.seconds

    def test_batched_sweep_amortizes_matrix_stream(
        self, machine, triples
    ):
        rows, cols, vals, shape = triples
        mx = RSELLMatrix.from_coo(rows, cols, vals, shape)
        assert machine.batched_speedup(mx, 8) > 1.0

    def test_arithmetic_scales_with_k(self, machine, triples):
        rows, cols, vals, shape = triples
        mx = SELLMatrix.from_coo(rows, cols, vals, shape, chunk=8)
        single = machine.count(mx)
        multi = machine.count_multi(mx, 5)
        assert multi.vector_ops == 5 * single.vector_ops


def test_csr_reference_unchanged(machine, triples):
    """The new branches must not perturb the historical CSR count."""
    rows, cols, vals, shape = triples
    csr = CSRMatrix.from_coo(rows, cols, vals, shape)
    got = machine.count(csr)
    lengths = np.asarray(csr.row_lengths, dtype=np.int64)
    pad = (-lengths.shape[0]) % machine.w
    if pad:
        lengths = np.concatenate(
            [lengths, np.zeros(pad, dtype=np.int64)]
        )
    vops = int(lengths.reshape(-1, machine.w).max(axis=1).sum())
    assert got.vector_ops == vops
