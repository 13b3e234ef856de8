"""Deterministic fixed-width SIMD execution model for format kernels.

The NumPy kernels in :mod:`repro.formats` are faithful to each format's
*work* (padding costs real time), but NumPy's own inner loops hide one
architecture effect the paper leans on: **fixed-width SIMD processes
each CSR row in ceil(dim_i / W) vector instructions**, so the padding
waste per row is ``W*ceil(dim_i/W) - dim_i`` and grows with row-length
irregularity — COO, streaming one flat element array, has no such
per-row remainder.  That is the mechanism behind Fig. 4.

This module counts exactly those vector instructions for all five
formats:

=======  =====================================================
DEN      ``M * ceil(N / W)``
CSR      ``sum over groups of W rows: max(dim_i in group)``
         (lockstep lane-per-row, Bell-Garland CSR-vector)
COO      ``ceil(nnz / W) * streams`` (flat element stream)
ELL      ``M * ceil(mdim / W)``
DIA      ``ndig * ceil(Ldiag / W)``  + per-diagonal startup
=======  =====================================================

The CSR rule is the key: the standard SIMD CSR kernel assigns one row
per vector lane, and all W lanes step together until the *longest* row
in the group finishes — so irregular row lengths (high ``vdim``) leave
lanes idle in exact proportion to ``E[max of W dims] / adim``.  Uniform
rows cost the optimal ``nnz / W``; a wide distribution approaches the
per-group maximum.  COO never groups by row, so its cost is ``vdim``-
independent — the two curves cross exactly as in Fig. 4.

and converts them to time with the machine's frequency-per-lane-issue
plus the roofline memory bound, yielding deterministic, reproducible
"measurements" for the architecture-sensitive experiments (Fig. 4 and
the Table IV correlation checks).  See DESIGN.md's substitution table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.features.profile import DatasetProfile
from repro.formats.base import FORMAT_NAMES, MatrixFormat
from repro.formats.csr import CSRMatrix
from repro.formats.convert import convert
from repro.hardware.specs import MachineSpec

#: Value/index stream widths in bytes (float64 values, int32 indices).
_VB, _IB = 8, 4


@dataclass(frozen=True)
class VectorCost:
    """Counted cost of one SMSV under the SIMD model."""

    fmt: str
    vector_ops: int  #: width-W vector instructions issued
    startup_ops: int  #: per-row / per-diagonal pipeline startups
    bytes_moved: int  #: memory traffic (padding included)
    seconds: float  #: modelled wall time on the bound machine

    @property
    def total_ops(self) -> int:
        return self.vector_ops + self.startup_ops


class VectorMachine:
    """Executes format SMSVs symbolically on a fixed-width SIMD model.

    Parameters
    ----------
    machine:
        The modelled platform (its ``simd_width``, frequency proxy and
        bandwidth are used).
    issue_ghz:
        Base vector instructions issued per second, in billions.  The
        default models one core's vector pipe:
        ``peak_gflops / (2 * W * cores)``.  Each format then attains a
        fraction of it (``issue_efficiency``): DEN runs contiguous
        loads at full rate; DIA is regular-strided; CSR/COO/ELL issue a
        gather per step, which on in-order wide-SIMD machines (the
        paper's Xeon Phi) limits them to ~1/4 of peak issue.  Sparse
        SMSV kernels are therefore issue-bound rather than
        bandwidth-bound, which is what lets the lane-utilisation
        effects show through.
    issue_efficiency:
        Per-format fraction of the base issue rate (see above).
    row_startup / diag_startup:
        Pipeline startup cost, in vector-instruction equivalents, per
        CSR row / DIA diagonal.
    coo_streams:
        COO per-element overhead factor relative to one lane-step (the
        extra row-index stream and scatter); 1.5 reproduces the paper's
        CSR-better-at-low-vdim, COO-better-at-high-vdim crossover.
    """

    #: Fraction of the base issue rate each format's access pattern
    #: attains (contiguous > strided > gather).
    DEFAULT_ISSUE_EFFICIENCY = {
        "DEN": 1.0,
        "DIA": 0.3,
        "CSR": 0.25,
        "COO": 0.25,
        "ELL": 0.25,
        # SELL issues the same gather per lane-step as ELL; the
        # reordered wrappers add only a boundary scatter, so the inner
        # format's gather rate dominates.
        "SELL": 0.25,
        "RCSR": 0.25,
        "RSELL": 0.25,
    }

    def __init__(
        self,
        machine: MachineSpec,
        *,
        issue_ghz: Optional[float] = None,
        row_startup: float = 2.0,
        diag_startup: float = 8.0,
        coo_streams: float = 1.5,
        issue_efficiency: Optional[Dict[str, float]] = None,
    ) -> None:
        self.machine = machine
        self.w = machine.simd_width
        if issue_ghz is None:
            issue_ghz = machine.peak_gflops / (2.0 * self.w * machine.cores)
        if issue_ghz <= 0:
            raise ValueError("issue_ghz must be positive")
        self.issue_rate = issue_ghz * 1e9
        self.row_startup = row_startup
        self.diag_startup = diag_startup
        self.coo_streams = coo_streams
        self.issue_efficiency = dict(
            issue_efficiency
            if issue_efficiency is not None
            else self.DEFAULT_ISSUE_EFFICIENCY
        )

    # -- counting --------------------------------------------------------
    def _ceil_w(self, x: float) -> int:
        return int(math.ceil(x / self.w))

    def _streams(self, matrix: MatrixFormat):
        """Decompose one SMSV into ``(vops, startup, matrix_bytes,
        percol_bytes)``.

        ``matrix_bytes`` is the traffic of the matrix's own storage
        streams (values, indices, pointers) — read once per sweep no
        matter how many right-hand sides ride along.  ``percol_bytes``
        is the ``x``-gather traffic, paid per column.  ``count`` charges
        ``matrix_bytes + percol_bytes`` (one column), exactly the
        historical totals.
        """
        fmt = matrix.name
        m, n = matrix.shape
        if fmt == "CSR":
            assert isinstance(matrix, CSRMatrix)
            lengths = np.asarray(matrix.row_lengths, dtype=np.int64)
            # Lockstep lane-per-row: pad the row-length vector to a
            # multiple of W, reshape into groups of W lanes, and charge
            # each group its longest row.
            pad = (-lengths.shape[0]) % self.w
            if pad:
                lengths = np.concatenate(
                    [lengths, np.zeros(pad, dtype=np.int64)]
                )
            groups = lengths.reshape(-1, self.w)
            vops = int(groups.max(axis=1).sum())
            startup = int(self.row_startup * groups.shape[0])
            nnz = matrix.nnz
            matrix_bytes = nnz * (_VB + _IB) + (m + 1) * 8
            percol_bytes = nnz * _VB
        elif fmt == "DEN":
            vops = m * self._ceil_w(n)
            startup = 0
            matrix_bytes = m * n * _VB
            percol_bytes = n * _VB
        elif fmt == "COO":
            nnz = matrix.nnz
            # One flat element stream: nnz / W lane-steps, scaled by the
            # per-element overhead of the extra row stream + scatter.
            vops = int(math.ceil(self.coo_streams * nnz / self.w))
            startup = 0
            matrix_bytes = nnz * (_VB + 2 * _IB)
            percol_bytes = nnz * _VB
        elif fmt == "ELL":
            mdim = matrix.data.shape[1]  # type: ignore[attr-defined]
            vops = m * self._ceil_w(mdim)
            startup = int(self.row_startup * m) // 2  # regular rows
            matrix_bytes = m * mdim * (_VB + _IB)
            percol_bytes = m * mdim * _VB
        elif fmt == "DIA":
            ndig = matrix.ndig  # type: ignore[attr-defined]
            ldiag = min(m, n)
            vops = ndig * self._ceil_w(ldiag)
            startup = int(self.diag_startup * ndig)
            matrix_bytes = ndig * ldiag * _VB
            percol_bytes = ndig * ldiag * _VB
        elif fmt == "SELL":
            # One vector instruction per stored column of each slice,
            # lanes across the slice's rows: sum_s w_s * ceil(C_s / W).
            widths = np.asarray(matrix.slice_widths, dtype=np.int64)  # type: ignore[attr-defined]
            chunk = int(matrix.chunk)  # type: ignore[attr-defined]
            heights = np.minimum(
                chunk, m - chunk * np.arange(widths.shape[0], dtype=np.int64)
            )
            lane_groups = -(-heights // self.w)
            vops = int((widths * lane_groups).sum())
            startup = int(self.row_startup * widths.shape[0])
            padded = int(matrix.padded_elements)  # type: ignore[attr-defined]
            matrix_bytes = padded * (_VB + _IB) + (widths.shape[0] + 1) * 8
            percol_bytes = padded * _VB
        elif fmt in ("RCSR", "RSELL"):
            # Permutation-transparent wrapper: the stored core pays its
            # own streams; transparency adds the permutation stream
            # (once per sweep) and a scattered output write per column.
            vops, startup, matrix_bytes, percol_bytes = self._streams(
                matrix.stored  # type: ignore[attr-defined]
            )
            vops += self._ceil_w(m)
            matrix_bytes += m * 8  # perm vector (int64)
            percol_bytes += m * _VB  # scattered y write-back
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return vops, startup, matrix_bytes, percol_bytes

    def count(self, matrix: MatrixFormat) -> VectorCost:
        """Count vector ops + traffic for one SMSV of ``matrix``.

        CSR is counted exactly from the true row lengths; the other
        formats are exact functions of the profile.
        """
        fmt = matrix.name
        vops, startup, matrix_bytes, percol_bytes = self._streams(matrix)
        bytes_moved = matrix_bytes + percol_bytes
        seconds = self._time(fmt, vops + startup, bytes_moved)
        return VectorCost(
            fmt=fmt,
            vector_ops=vops,
            startup_ops=startup,
            bytes_moved=bytes_moved,
            seconds=seconds,
        )

    def count_multi(self, matrix: MatrixFormat, k: int) -> VectorCost:
        """Count one blocked SpMM sweep with ``k`` right-hand sides.

        Arithmetic lane-steps scale with ``k``; pipeline startups and
        the matrix's own storage streams are paid once per sweep, the
        per-column ``x``-gather traffic ``k`` times.  ``k=1`` equals
        :meth:`count` exactly — the single-vector model is the
        degenerate sweep.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        fmt = matrix.name
        vops, startup, matrix_bytes, percol_bytes = self._streams(matrix)
        vops_k = vops * k
        bytes_moved = matrix_bytes + k * percol_bytes
        seconds = self._time(fmt, vops_k + startup, bytes_moved)
        return VectorCost(
            fmt=fmt,
            vector_ops=vops_k,
            startup_ops=startup,
            bytes_moved=bytes_moved,
            seconds=seconds,
        )

    def batched_speedup(self, matrix: MatrixFormat, k: int) -> float:
        """Modelled speedup of one k-wide sweep over k single SMSVs."""
        if k < 1:
            raise ValueError("k must be >= 1")
        single = self.count(matrix).seconds
        return (k * single) / self.count_multi(matrix, k).seconds

    def _time(self, fmt: str, total_ops: float, bytes_moved: float) -> float:
        rate = self.issue_rate * self.issue_efficiency[fmt]
        t_compute = total_ops / rate
        t_memory = bytes_moved / (self.machine.bandwidth_gbs * 1e9)
        return max(t_compute, t_memory)

    # -- convenience -------------------------------------------------------
    def compare(self, matrix: MatrixFormat) -> Dict[str, VectorCost]:
        """Model all five formats for the same logical matrix."""
        return {
            name: self.count(convert(matrix, name)) for name in FORMAT_NAMES
        }

    def speedups(self, matrix: MatrixFormat) -> Dict[str, float]:
        """Per-format speedup normalised to the slowest (Fig. 1 style)."""
        costs = self.compare(matrix)
        worst = max(c.seconds for c in costs.values())
        return {k: worst / c.seconds for k, c in costs.items()}

    def csr_cost_from_profile(self, p: DatasetProfile) -> float:
        """Approximate CSR seconds from a profile alone (no matrix).

        Normal-approximates ``E[max of W row lengths]`` as
        ``adim + sqrt(vdim) * sqrt(2 ln W)`` (the Gaussian extreme-value
        asymptotic) — used by tests to check the analytic cost model
        tracks the exact per-group count.
        """
        e_max = p.adim + math.sqrt(max(p.vdim, 0.0)) * math.sqrt(
            2.0 * math.log(max(self.w, 2))
        )
        groups = math.ceil(p.m / self.w)
        total = groups * e_max + self.row_startup * groups
        bytes_moved = p.nnz * (2 * _VB + _IB) + (p.m + 1) * 8
        return self._time("CSR", total, bytes_moved)
