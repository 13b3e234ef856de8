"""Analytic per-format cost model (Eq. (7) made executable).

The paper explains every format performance gap through two quantities:
the *effective element count* a format's kernel must process (padding
included) and the *effective bandwidth* its access pattern achieves.
This module derives both from a :class:`~repro.features.profile.
DatasetProfile` alone — no data access — so the scheduler can rank
formats in microseconds.

Effective element counts (values + indices, per SMSV):

=======  =====================================================
DEN      ``M * N``                       (no indices)
CSR      ``sum_i ceil(dim_i / W) * W``   (SIMD row padding) + row ptrs
COO      ``nnz``                         (x3 streams)
ELL      ``M * mdim``                    (global row padding)
DIA      ``ndig * min(M, N)``            (diagonal padding)
=======  =====================================================

The CSR padding term is where ``vdim`` enters: with row lengths of mean
``adim`` and variance ``vdim`` the expected SIMD waste per row is close
to ``(W-1)/2`` once rows are irregular, and an additional lane-imbalance
penalty proportional to the coefficient of variation models the
fixed-width-SIMD effect of Fig. 4.  COO has no such term: all non-zeros
sit in one flat stream (the paper's stated reason COO overtakes CSR at
high ``vdim``).

Calibration constants default to values fitted on this library's NumPy
kernels (see ``ArchCalibration.numpy_default``);
``examples/calibrate_cost_model.py`` re-fits them on the running
machine with micro-probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.features.profile import DatasetProfile
from repro.formats.base import FORMAT_NAMES
from repro.formats.convert import FORMAT_CLASSES

#: Formats the analytic model ranks: every registered format, in
#: registry order (the paper's five basic layouts, sliced-ELL SELL-C
#: and the row-reordered RCSR / RSELL = SELL-C-sigma).  Rank ties
#: break by this order.
ANALYTIC_FORMATS: Tuple[str, ...] = tuple(FORMAT_CLASSES)


@dataclass(frozen=True)
class ArchCalibration:
    """Per-format machine constants used by the cost model.

    Attributes
    ----------
    simd_width:
        Vector lane count ``W`` (8 = AVX-512 doubles, the paper's Phi).
    cost_per_element:
        Relative time to process one stored element, per format.  DEN is
        cheapest (pure streaming, BLAS); COO pays for three streams and
        an atomic-style scatter; DIA and ELL stream regularly.
    row_overhead:
        Fixed cost per matrix row (CSR's pointer chase / loop control).
    diag_overhead:
        Fixed cost per diagonal (DIA's per-diagonal setup).
    csr_imbalance:
        Strength of the CSR lane-imbalance penalty ``1 + c * cv_dim``.
    """

    simd_width: int = 8
    cost_per_element: Dict[str, float] = field(
        default_factory=lambda: {
            "DEN": 0.35,
            "CSR": 1.0,
            "COO": 1.35,
            "ELL": 0.9,
            "DIA": 0.55,  # values only, contiguous x: no index stream
            "SELL": 0.9,  # ELL-like regular streams, per-slice padded
            "RCSR": 1.0,
            "RSELL": 0.9,
        }
    )
    row_overhead: Dict[str, float] = field(
        default_factory=lambda: {
            "DEN": 0.1,
            "CSR": 1.0,
            "COO": 0.0,
            "ELL": 0.2,
            "DIA": 0.0,
            "SELL": 0.2,
            "RCSR": 1.0,
            "RSELL": 0.2,
        }
    )
    diag_overhead: float = 180.0
    csr_imbalance: float = 0.35
    #: Absolute-spread term: wide row-length distributions leave whole
    #: vector registers idle regardless of the mean (the raw-vdim
    #: dependence Fig. 4 plots).  Multiplies ``sqrt(vdim) / W``.
    csr_spread: float = 0.05
    #: Fraction of each format's per-element cost that is *traversal*
    #: (index streams, gathers, segment bookkeeping) rather than
    #: arithmetic.  A blocked SpMM with ``batch_k`` right-hand sides
    #: pays the traversal fraction once per sweep and only the
    #: arithmetic remainder per column — the amortisation that lets the
    #: winning layout shift for batched workloads (Auto-SpMV).  DEN has
    #: no index stream, hence zero.
    batch_amortized: Dict[str, float] = field(
        default_factory=lambda: {
            "DEN": 0.0,
            "CSR": 0.35,
            "COO": 0.45,
            "ELL": 0.35,
            "DIA": 0.15,
            "SELL": 0.35,
            "RCSR": 0.35,
            "RSELL": 0.35,
        }
    )
    #: Fraction of the *excess over nnz* (SIMD padding + lane
    #: imbalance) that survives a descending-length row sort.  Sorting
    #: makes W-row groups / C-row slices internally near-uniform, so
    #: most — not all — of the padded work collapses; window-boundary
    #: residuals keep it non-zero.
    sorted_residual: float = 0.15
    #: Per-row boundary cost of permutation transparency, in effective
    #: elements: one scattered write per output row per column, plus
    #: the permutation-vector stream.
    reorder_scatter: float = 1.0

    @classmethod
    def numpy_default(cls) -> "ArchCalibration":
        """Constants fitted on this library's vectorised NumPy kernels.

        Fitted by regressing measured per-element SMSV time of each
        kernel over the Fig. 2/3/4 synthetic families (see
        ``examples/calibrate_cost_model.py`` for the refit procedure).
        """
        return cls()

    def with_simd_width(self, w: int) -> "ArchCalibration":
        if w < 1:
            raise ValueError("simd_width must be >= 1")
        return replace(self, simd_width=w)


@dataclass(frozen=True)
class FormatCost:
    """Predicted cost breakdown of one format for one profile."""

    fmt: str
    elements: float  #: effective stored elements processed per SMSV
    overhead: float  #: per-row / per-diagonal fixed costs
    cost: float  #: total model cost (arbitrary units, comparable)

    def __lt__(self, other: "FormatCost") -> bool:
        return self.cost < other.cost


class CostModel:
    """Ranks formats for a dataset profile using the analytic model."""

    def __init__(self, calibration: Optional[ArchCalibration] = None) -> None:
        self.calibration = calibration or ArchCalibration.numpy_default()

    # -- effective element counts --------------------------------------
    def effective_elements(self, fmt: str, p: DatasetProfile) -> float:
        """Stored elements the format's SMSV kernel must process."""
        fmt = fmt.upper()
        if fmt == "DEN":
            return float(p.m) * p.n
        if fmt == "COO":
            return float(p.nnz)
        if fmt == "ELL":
            return float(p.m) * p.mdim
        if fmt == "DIA":
            return float(p.ndig) * min(p.m, p.n)
        if fmt == "CSR":
            w = self.calibration.simd_width
            if p.m == 0:
                return 0.0
            # Expected ceil-padding: exact when rows are uniform,
            # (W-1)/2 per row otherwise.
            if p.vdim == 0.0 and float(p.adim).is_integer():
                padded_per_row = w * math.ceil(p.adim / w)
            else:
                padded_per_row = p.adim + (w - 1) / 2.0
            padded = p.m * padded_per_row
            # Lane imbalance grows with row-length variation — the
            # Fig. 4 effect.  Two terms: relative (cv) and absolute
            # spread in units of vector registers (sqrt(vdim) / W).
            imbalance = (
                1.0
                + self.calibration.csr_imbalance * p.cv_dim
                + self.calibration.csr_spread * math.sqrt(p.vdim) / w
            )
            return padded * imbalance
        if fmt == "SELL":
            return self._sell_elements(p)
        if fmt == "RSELL":
            # Sorted rows collapse the within-slice spread; only the
            # boundary residual of the padding excess survives, plus
            # the permutation scatter at the output boundary.
            unsorted = self._sell_elements(p)
            nnz = float(p.nnz)
            return (
                nnz
                + self.calibration.sorted_residual * max(0.0, unsorted - nnz)
                + self.calibration.reorder_scatter * p.m
            )
        if fmt == "RCSR":
            # Same collapse for the lockstep-SIMD CSR row groups: the
            # per-group max approaches the group mean after sorting.
            base = self.effective_elements("CSR", p)
            nnz = float(p.nnz)
            return (
                nnz
                + self.calibration.sorted_residual * max(0.0, base - nnz)
                + self.calibration.reorder_scatter * p.m
            )
        raise ValueError(f"unknown format {fmt!r}")

    def _sell_elements(self, p: DatasetProfile) -> float:
        """Expected SELL-C padded elements for rows in natural order.

        Each C-row slice pads to its own max; for row lengths of mean
        ``adim`` and variance ``vdim`` the Gaussian extreme-value
        asymptotic gives ``E[slice max] ~ adim + sqrt(vdim * 2 ln C)``
        (the same approximation ``csr_cost_from_profile`` uses for
        W-row lockstep groups), capped at the hard bound ``mdim``.
        Slice height C defaults to the SIMD width, matching
        ``repro.formats.sell.DEFAULT_CHUNK``; a warm tuning-cache
        entry for this machine and shape class overrides it, so the
        model prices the slice height the builders will actually use
        (``SELLMatrix.from_coo`` consults the same entry).
        """
        if p.m == 0:
            return 0.0
        from repro.tune.cache import tuned_value

        tuned = tuned_value("sell_chunk", p)
        c = max(
            tuned if tuned else self.calibration.simd_width, 2
        )
        slice_max = p.adim + math.sqrt(
            max(p.vdim, 0.0) * 2.0 * math.log(c)
        )
        per_row = min(float(p.mdim), slice_max)
        return max(float(p.nnz), p.m * per_row)

    def cost(
        self, fmt: str, p: DatasetProfile, batch_k: int = 1
    ) -> FormatCost:
        """Model cost of one blocked sweep in ``fmt`` for profile ``p``.

        ``batch_k=1`` is one SMSV (the historical model, unchanged).
        For ``batch_k > 1`` the sweep carries k right-hand sides: the
        traversal fraction of the element cost and the fixed per-row /
        per-diagonal overheads are paid once, the arithmetic remainder
        k times — so the total is strictly less than k independent
        SMSVs for every format with an index stream.
        """
        fmt = fmt.upper()
        if batch_k < 1:
            raise ValueError("batch_k must be >= 1")
        cal = self.calibration
        elements = self.effective_elements(fmt, p)
        per_elem = cal.cost_per_element[fmt]
        overhead = cal.row_overhead[fmt] * p.m
        if fmt == "DIA":
            overhead += cal.diag_overhead * p.ndig
        traversal = cal.batch_amortized.get(fmt, 0.0)
        element_cost = elements * per_elem
        # shared-once traversal + per-column arithmetic
        total = (
            traversal * element_cost
            + batch_k * (1.0 - traversal) * element_cost
            + overhead
        )
        return FormatCost(fmt=fmt, elements=elements, overhead=overhead, cost=total)

    def rank(
        self,
        p: DatasetProfile,
        candidates: Optional[Iterable[str]] = None,
        batch_k: int = 1,
    ) -> List[FormatCost]:
        """All candidate costs for one ``batch_k``-wide sweep, cheapest
        first.  Ranking whole-sweep costs is equivalent to ranking
        amortised per-column costs (same k for every candidate)."""
        names = list(candidates) if candidates is not None else list(FORMAT_NAMES)
        return sorted(self.cost(f, p, batch_k) for f in names)

    def best(
        self,
        p: DatasetProfile,
        candidates: Optional[Iterable[str]] = None,
        batch_k: int = 1,
    ) -> str:
        return self.rank(p, candidates, batch_k)[0].fmt
