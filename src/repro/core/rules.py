"""Rule-based format selection — Table IV's signs made executable.

A transparent decision list capturing the qualitative structure the
paper derives in Section III.B:

1. (Nearly) dense matrices → **DEN**: at density near 1 every sparse
   format stores >= 2x the elements (Table II maxima) for the same
   flops.
2. Banded matrices (few diagonals, well-filled) → **DIA**: padding is
   negligible exactly when ``dnnz`` is close to the diagonal length
   (Fig. 2's left end).
3. Uniform rows (``mdim`` close to ``adim``) → **ELL**: zero padding
   and perfectly regular access (the paper picks ELL for adult).
4. High row-length variation → **COO**: CSR's fixed-width SIMD wastes
   lanes as ``vdim`` grows (Fig. 4), COO's flat element stream does not.
5. Otherwise → **CSR**: the robust default (what LIBSVM hardcodes).

Every decision records which rule fired and why, so the scheduler's
choices are auditable — the property a *runtime* system needs when a
wrong pick costs a 10x slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.features.profile import DatasetProfile


# Decision boundaries.  They separate the paper's own Table V datasets
# the way its Table VI selections do (dense family -> DEN, trefethen ->
# DIA, adult -> ELL, mnist/sector -> COO, aloi -> CSR).
DENSE_DENSITY = 0.5  #: rule 1: density at or above this -> DEN
DIA_MAX_NDIG = 64  #: rule 2: at most this many diagonals
DIA_MIN_FILL = 0.25  #: rule 2: min dnnz / min(M,N)
ELL_MIN_BALANCE = 0.9  #: rule 3: adim/mdim at least this
#: Rule 4: raw row-length variance at or above this -> COO.  Fig. 4
#: plots the COO/CSR speedup against raw vdim; the crossover sits
#: between aloi (vdim 85, CSR wins) and mnist (vdim 1594, COO wins).
COO_MIN_VDIM = 500.0


@dataclass(frozen=True)
class RuleDecision:
    """The chosen format plus the audit trail."""

    fmt: str
    rule: str
    reason: str


def rule_based_choice(p: DatasetProfile) -> RuleDecision:
    """Apply the decision list to a dataset profile."""

    if p.nnz == 0:
        return RuleDecision(
            fmt="CSR",
            rule="empty",
            reason="empty matrix; CSR stores it in O(M) with no padding",
        )

    if p.density >= DENSE_DENSITY:
        return RuleDecision(
            fmt="DEN",
            rule="dense",
            reason=(
                f"density {p.density:.3f} >= {DENSE_DENSITY}: sparse "
                f"formats would store >= {2 * p.density:.1f}x the elements"
            ),
        )

    if p.ndig <= DIA_MAX_NDIG and p.diag_fill >= DIA_MIN_FILL:
        return RuleDecision(
            fmt="DIA",
            rule="banded",
            reason=(
                f"{p.ndig} diagonals, {p.diag_fill:.0%} filled: diagonal "
                f"padding is negligible"
            ),
        )

    if p.balance >= ELL_MIN_BALANCE:
        return RuleDecision(
            fmt="ELL",
            rule="uniform-rows",
            reason=(
                f"adim/mdim = {p.balance:.2f} >= {ELL_MIN_BALANCE}: "
                f"row padding wastes only {1 - p.balance:.0%}"
            ),
        )

    if p.vdim >= COO_MIN_VDIM:
        return RuleDecision(
            fmt="COO",
            rule="high-variation",
            reason=(
                f"vdim = {p.vdim:.3g} >= {COO_MIN_VDIM}: CSR SIMD "
                f"lanes would idle on irregular rows; COO's flat "
                f"stream does not"
            ),
        )

    return RuleDecision(
        fmt="CSR",
        rule="default",
        reason="no special structure detected; CSR is the robust default",
    )
