"""Sequential Minimal Optimization — paper Algorithm 1, plus the serial
refinements its related-work section catalogues.

The solver maintains the optimality vector ``f_i = sum_j alpha_j y_j
K(X_i, X_j) - y_i`` incrementally (Eq. (4)); each iteration:

1. selects a violating pair — either the paper's maximal-violating pair
   (``working_set="first"``: ``high`` = argmin f over ``I_high``,
   ``low`` = argmax f over ``I_low``; Steps 6-10) or the second-order
   rule of Fan, Chen & Lin 2005 that LIBSVM uses
   (``working_set="second"``: ``low`` maximises the guaranteed dual
   gain ``(f_j - f_high)^2 / eta_j``),
2. solves the two-variable subproblem analytically (Eqs. (5)-(6), with
   box clipping to ``[0, C]``),
3. updates ``f`` with the two freshly computed kernel rows.

The two kernel rows are the bottleneck: each is one SMSV in whatever
format the matrix is stored — which is precisely the cost the layout
scheduler controls.  An LRU row cache (LIBSVM-style) avoids recomputing
rows for indices that re-enter the working set.  When both rows miss,
one dual-row SpMM computes their dots and one in-place
:meth:`~repro.svm.kernels.Kernel.transform` turns them into kernel
values.  On a DEN matrix of at least
:data:`~repro.parallel.kernels.DEN_PAIR_MIN_ELEMENTS` stored elements
the SpMM's two column GEMVs run on two threads
(:func:`~repro.parallel.parallel_smsv_multi`); each is the serial
kernel's full-matrix GEMV, so the fit is bitwise the serial one.
Sparse formats and smaller DEN matrices stay on the calling thread,
where a thread handoff costs more than it saves (``docs/perf.md``).

**Shrinking** (Joachims 1999; ``shrink_every > 0``): samples whose
multiplier is stuck at a bound and whose f lies outside the active
``[b_high, b_low]`` window are removed from the working problem, and
the data matrix is *physically rebuilt* on the active rows — so kernel
rows genuinely get cheaper, in whatever layout the scheduler chose.
When the shrunken problem converges, f is reconstructed for the
inactive samples from the support vectors and optimality is re-verified
on the full problem (un-shrinking), exactly LIBSVM's protocol.

Termination follows Step 12: stop when ``b_low <= b_high + 2 * tol``
(duality gap closed); the bias is ``b = (b_high + b_low) / 2``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.formats.base import MatrixFormat
from repro.formats.dense import DenseMatrix
from repro.obs.trace import get_tracer
from repro.parallel.kernels import DEN_PAIR_MIN_ELEMENTS, parallel_smsv_multi
from repro.perf.counters import OpCounter
from repro.svm.kernels import Kernel

WORKING_SET_RULES = ("first", "second")


@dataclass
class SMOResult:
    """Outcome of one binary SMO run."""

    alpha: np.ndarray  #: Lagrange multipliers, length M
    b: float  #: bias, ``(b_high + b_low) / 2``
    iterations: int
    converged: bool
    b_high: float
    b_low: float
    #: final optimality vector (diagnostics)
    f: np.ndarray = field(repr=False, default=None)
    kernel_rows_computed: int = 0
    kernel_rows_cached: int = 0
    #: shrinking statistics
    shrink_events: int = 0
    unshrink_events: int = 0
    min_active: int = 0

    @property
    def n_support(self) -> int:
        return int(np.count_nonzero(self.alpha > 1e-12))

    def objective(self, y: np.ndarray) -> float:
        """Dual objective F(alpha) (Eq. (1)) from the maintained f.

        Uses the identity ``sum_i alpha_i y_i f_i =
        sum_ij alpha_i alpha_j y_i y_j K_ij - sum_i alpha_i y_i^2``,
        valid because f is maintained exactly; so
        ``F = sum alpha - (sum_i alpha_i y_i (f_i + y_i)) / 2``.
        """
        a, f = self.alpha, self.f
        return float(a.sum() - 0.5 * np.sum(a * y * (f + y)))


class _RowCache:
    """Bounded LRU cache of kernel rows keyed by sample index.

    ``get`` refreshes recency (true LRU, not FIFO): a row that keeps
    re-entering the working set stays resident while cold rows age out.
    Capacity can be given directly in rows or derived from a memory
    budget via :meth:`from_budget_mb` — LIBSVM's ``-m`` semantics, where
    the budget buys ``floor(mb * 2^20 / row_bytes)`` resident rows.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._store: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_budget_mb(cls, mb: float, row_bytes: int) -> "_RowCache":
        """Cache sized by a memory budget in MB (LIBSVM ``-m``).

        ``row_bytes`` is the footprint of one cached kernel row
        (``8 * M`` for float64 rows of an M-sample problem).  A budget
        too small for even one row disables caching, mirroring
        ``cache_rows=0``.
        """
        if mb < 0:
            raise ValueError("cache budget must be >= 0 MB")
        if row_bytes <= 0:
            return cls(0)
        return cls(int(mb * 1024 * 1024) // int(row_bytes))

    def get(self, i: int) -> Optional[np.ndarray]:
        if self.capacity == 0:
            self.misses += 1
            return None
        row = self._store.get(i)
        if row is None:
            self.misses += 1
            return None
        self._store.move_to_end(i)
        self.hits += 1
        return row

    def put(self, i: int, row: np.ndarray) -> None:
        if self.capacity == 0:
            return
        self._store[i] = row
        self._store.move_to_end(i)
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()


class _ActiveSet:
    """The (possibly shrunken) working problem.

    Keeps the full matrix for row extraction plus a physically rebuilt
    submatrix over the active rows, so that kernel rows cost
    O(active nnz) — real savings in the chosen layout.  ``active`` only
    changes right before a :meth:`rebuild`, which refreshes the
    per-iteration views of it: ``n_active`` and the active rows'
    squared norms ``sub_norms``.
    """

    def __init__(self, X: MatrixFormat, row_norms: np.ndarray) -> None:
        self.full = X
        self.m = X.shape[0]
        self.row_norms = row_norms
        self.active = np.ones(self.m, dtype=bool)
        self.n_active = self.m
        self.sub: MatrixFormat = X
        self.sub_ids = np.arange(self.m)  # global id of each sub row
        self.sub_norms = row_norms
        self._coo = None  # lazy cache of the full triples

    def rebuild(self) -> None:
        """Rebuild the submatrix over the currently active rows."""
        self.sub, self.sub_ids = self.submatrix_of(self.active)
        self.n_active = int(self.sub_ids.shape[0])
        self.sub_norms = self.row_norms[self.sub_ids]

    def submatrix_of(self, mask: np.ndarray):
        """Build a submatrix over an arbitrary row mask; returns it with
        the global id of each of its rows."""
        if self._coo is None:
            self._coo = self.full.to_coo()
        rows, cols, values = self._coo
        ids = np.nonzero(mask)[0]
        lookup = np.full(self.m, -1, dtype=np.int64)
        lookup[ids] = np.arange(ids.shape[0])
        keep = lookup[rows] >= 0
        sub = type(self.full).from_coo(
            lookup[rows[keep]],
            cols[keep],
            values[keep],
            (ids.shape[0], self.full.shape[1]),
        )
        return sub, ids


def _default_cache_mb(X: MatrixFormat) -> float:
    """Row-cache budget (MB) when the caller sized nothing.

    A warm tuning-cache entry for this shape class wins (LIBSVM -m,
    measured rather than guessed); otherwise the tuning catalogue's
    analytic default, the incumbent ``repro tune`` races — so the
    default a fit runs is the default the tuner measured against.
    Per-row nnz (the cache key's input) is only derived once the
    ``row_cache_mb`` family is known to be warm, so the cold path
    costs one dict scan.  Cache size only moves recompute time — the
    rows it returns are the rows it was handed — so labels are
    untouched.
    """
    from repro.features.extract import row_nnz
    from repro.tune.cache import tune_cache, tuned_for_lengths, tuning_enabled
    from repro.tune.space import row_cache_default_mb

    if tuning_enabled() and tune_cache().has_family("row_cache_mb"):
        tuned = tuned_for_lengths("row_cache_mb", row_nnz(X), X.shape)
        if tuned is not None:
            return float(tuned)
    return float(row_cache_default_mb(X.shape[0]))


def smo_train(
    X: MatrixFormat,
    y: np.ndarray,
    kernel: Kernel,
    *,
    C: float = 1.0,
    tol: float = 1e-3,
    max_iter: int = 100_000,
    cache_rows: Optional[int] = None,
    cache_mb: Optional[float] = None,
    working_set: str = "first",
    shrink_every: int = 0,
    fuse_rows: bool = True,
    counter: Optional[OpCounter] = None,
    on_iteration: Optional[Callable[[int, float, float], None]] = None,
) -> SMOResult:
    """Train a binary SVM with SMO (Algorithm 1 + optional refinements).

    Parameters
    ----------
    X:
        Training matrix, M samples x N features, in any storage format.
    y:
        Labels in {-1, +1}, length M.
    kernel:
        Kernel function (Table I).
    C:
        Box constraint / regularisation constant.
    tol:
        Duality-gap tolerance; Step 12 stops at
        ``b_low <= b_high + 2 * tol``.
    max_iter:
        Iteration cap (an iteration = one working-set pair update).
    cache_rows:
        LRU kernel-row cache capacity (0 disables caching).
    cache_mb:
        Alternative cache sizing by memory budget in MB (LIBSVM's
        ``-m`` semantics): the cache holds as many float64 rows of
        length M as fit the budget.  Overrides ``cache_rows`` when
        given; 0 disables caching.  When neither is given, a warm
        ``row_cache_mb`` tuning entry sizes the budget, else the
        tuning catalogue's default
        (:func:`repro.tune.space.row_cache_default_mb`: ~4k rows,
        at most 64 MB).
    working_set:
        ``"first"`` — the paper's maximal-violating pair;
        ``"second"`` — LIBSVM's second-order gain rule (usually fewer
        iterations for the same solution).
    shrink_every:
        If > 0, run the shrinking heuristic every this many iterations
        (0 disables).  Shrinking never changes the solution: the full
        problem is re-verified before reporting convergence.
    fuse_rows:
        When True (the default), an iteration whose high/low rows both
        miss the cache computes them with a single dual-row SpMM
        (:meth:`Kernel.rows` over ``[v_high, v_low]``) instead of two
        SMSVs — the matrix is traversed once per iteration instead of
        twice.  The fused block is bit-for-bit identical per column to
        the single-row path, so the training trajectory (iterations,
        support set, bias) is unchanged; set False to force the unfused
        path (used by the equivalence tests and the benchmark harness).
    counter:
        Optional op counter threaded through every SMSV.
    on_iteration:
        Optional callback ``(iteration, b_high, b_low)`` per step.

    Raises
    ------
    ValueError
        On bad labels (not ±1, or single-class), non-positive C/tol, or
        an unknown working-set rule.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    m = X.shape[0]
    if y.shape != (m,):
        raise ValueError(f"y must have length {m}, got {y.shape}")
    classes = np.unique(y)
    if not np.array_equal(classes, np.array([-1.0, 1.0])):
        raise ValueError(
            f"labels must be -1/+1 with both classes present; got {classes}"
        )
    if C <= 0.0:
        raise ValueError("C must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if working_set not in WORKING_SET_RULES:
        raise ValueError(
            f"unknown working_set {working_set!r}; expected one of "
            f"{WORKING_SET_RULES}"
        )
    if shrink_every < 0:
        raise ValueError("shrink_every must be >= 0")

    eps_a = 1e-12 * C  # alpha-at-bound slack
    tracer = get_tracer()

    # Step 2: alpha = 0, f_i = -y_i.
    alpha = np.zeros(m, dtype=np.float64)
    f = -y.copy()

    row_norms = X.row_norms_sq()
    k_diag = kernel.diagonal(row_norms) if working_set == "second" else None
    if cache_mb is None and cache_rows is None:
        cache_mb = _default_cache_mb(X)
    if cache_mb is not None:
        cache = _RowCache.from_budget_mb(cache_mb, 8 * m)
    else:
        cache = _RowCache(cache_rows)
    rows_computed = 0

    aset = _ActiveSet(X, row_norms)
    shrink_events = 0
    unshrink_events = 0
    min_active = m

    def scatter_row(local: np.ndarray) -> np.ndarray:
        """Lift a row over the active submatrix to global length
        (inactive entries stay 0, matching the frozen-f semantics of
        shrinking)."""
        if aset.n_active == m:
            return local
        row = np.zeros(m, dtype=np.float64)
        row[aset.sub_ids] = local
        return row

    def compute_row(i: int) -> np.ndarray:
        """Compute, cache, and return one kernel row (cache already
        known to miss)."""
        nonlocal rows_computed
        v = X.row(i)
        local = kernel.row(
            aset.sub,
            v,
            float(row_norms[i]),
            aset.sub_norms,
            counter,
        )
        row = scatter_row(local)
        cache.put(i, row)
        rows_computed += 1
        return row

    def kernel_row(i: int) -> np.ndarray:
        """Kernel row of global sample i over the *active* rows."""
        row = cache.get(i)
        if row is None:
            row = compute_row(i)
        return row

    def kernel_row_pair(i: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """The per-iteration high/low rows, fused when both miss.

        Cache probes keep the same order as two ``kernel_row`` calls
        (i first, then j) so hit/miss statistics line up between the
        fused and unfused paths.  A double miss triggers one dual-row
        SpMM; any hit falls back to the single-row path for the other
        index.  ``i == j`` degenerates to a single row — batching it
        would compute the same column twice.
        """
        nonlocal rows_computed
        if not fuse_rows or i == j:
            ri = kernel_row(i)
            return ri, kernel_row(j)
        ri = cache.get(i)
        if ri is not None:
            return ri, kernel_row(j)
        rj = cache.get(j)
        if rj is not None:
            return compute_row(i), rj
        pair, sub = (X.row(i), X.row(j)), aset.sub
        if (
            isinstance(sub, DenseMatrix)
            and sub.storage_elements() >= DEN_PAIR_MIN_ELEMENTS
        ):
            # One full-matrix GEMV per column, one column per core: the
            # serial kernel's bits.
            dots = parallel_smsv_multi(sub, pair, counter=counter)
        else:
            dots = sub.smsv_multi(pair, counter)
        block = kernel.transform(
            dots,
            np.array([float(row_norms[i]), float(row_norms[j])]),
            aset.sub_norms,
        )
        ri = scatter_row(np.ascontiguousarray(block[:, 0]))
        rj = scatter_row(np.ascontiguousarray(block[:, 1]))
        cache.put(i, ri)
        cache.put(j, rj)
        rows_computed += 2
        return ri, rj

    # Steps 6-7's index sets over the active problem, held as additive
    # masks: -0.0 for a member, +inf (I_high) or -inf (I_low) for a
    # non-member, so f_hi = f + hi_mask is ``where(i_high, f, inf)``
    # bit for bit (x + -0.0 is x, signed zeros included; finite + inf
    # is inf) without allocating.  An iteration moves only alpha[high]
    # and alpha[low], so only those two entries are re-derived
    # (update_index_sets); the full O(m) recompute runs at the start
    # and wherever the active set changes (shrink, unshrink).
    pos, neg = y > 0, y < 0
    hi_mask = np.empty(m, dtype=np.float64)
    lo_mask = np.empty(m, dtype=np.float64)
    f_hi = np.empty(m, dtype=np.float64)
    f_lo = np.empty(m, dtype=np.float64)
    step = np.empty(m, dtype=np.float64)  # the f-update term

    def index_sets() -> None:
        free = (alpha > eps_a) & (alpha < C - eps_a)
        at_zero = alpha <= eps_a
        at_c = alpha >= C - eps_a
        i_high = (free | (pos & at_zero) | (neg & at_c)) & aset.active
        i_low = (free | (pos & at_c) | (neg & at_zero)) & aset.active
        hi_mask[:] = np.where(i_high, -0.0, np.inf)
        lo_mask[:] = np.where(i_low, -0.0, -np.inf)

    def update_index_sets(t: int) -> None:
        """Re-derive entry ``t`` of both sets after alpha[t] moved;
        the same comparisons as :func:`index_sets`, on one scalar."""
        a = alpha[t]
        free = eps_a < a < C - eps_a
        at_zero = a <= eps_a
        at_c = a >= C - eps_a
        on = bool(aset.active[t])
        if pos[t]:
            in_high, in_low = free or at_zero, free or at_c
        else:
            in_high, in_low = free or at_c, free or at_zero
        hi_mask[t] = -0.0 if on and in_high else np.inf
        lo_mask[t] = -0.0 if on and in_low else -np.inf

    def mask_f() -> None:
        np.add(f, hi_mask, out=f_hi)
        np.add(f, lo_mask, out=f_lo)

    def reconstruct_inactive_f() -> None:
        """Recompute f for inactive samples from the support vectors
        (the un-shrinking step).  Cost: one SMSV over the inactive
        submatrix per support vector."""
        nonlocal rows_computed
        inactive = ~aset.active
        if not inactive.any():
            return
        sub, ids = aset.submatrix_of(inactive)
        acc = np.zeros(ids.shape[0], dtype=np.float64)
        sv = np.nonzero(alpha > eps_a)[0]
        for j in sv:
            vj = X.row(int(j))
            krow = kernel.row(
                sub, vj, float(row_norms[j]), row_norms[ids], counter
            )
            acc += (alpha[j] * y[j]) * krow
            rows_computed += 1
        f[ids] = acc - y[ids]

    def try_shrink(b_high: float, b_low: float) -> None:
        """Joachims/LIBSVM heuristic: deactivate bound-stuck samples
        whose f lies strictly outside the violating window."""
        nonlocal shrink_events, min_active
        at_zero = alpha <= eps_a
        at_c = alpha >= C - eps_a
        margin = tol
        # Only ever selectable via I_high; f already above b_low.
        only_high = (pos & at_zero) | (neg & at_c)
        # Only ever selectable via I_low; f already below b_high.
        only_low = (pos & at_c) | (neg & at_zero)
        shrinkable = (
            (only_high & (f > b_low + margin))
            | (only_low & (f < b_high - margin))
        ) & aset.active
        n_shrink = int(shrinkable.sum())
        if n_shrink >= max(8, aset.n_active // 10):
            with tracer.span("smo.shrink") as sp:
                aset.active &= ~shrinkable
                aset.rebuild()
                if tracer.enabled:
                    sp.set("n_shrink", n_shrink)
                    sp.set("n_active", aset.n_active)
            # Cached rows stay valid: they cover a superset of the new
            # active set.  Their entries at newly-inactive positions
            # merely perturb frozen f values, which reconstruction
            # recomputes from scratch at un-shrink time anyway.
            shrink_events += 1
            min_active = min(min_active, aset.n_active)
            index_sets()

    def unshrink() -> None:
        nonlocal unshrink_events
        with tracer.span("smo.unshrink"):
            reconstruct_inactive_f()
            aset.active[:] = True
            aset.rebuild()
            cache.clear()
        index_sets()
        unshrink_events += 1

    index_sets()

    # Step 3 (standardised): start from one sample per class.
    high = int(np.argmax(y > 0))
    low = int(np.argmax(y < 0))
    b_high, b_low = -1.0, 1.0

    iterations = 0
    converged = False
    with tracer.span("smo.train") as t_span:
        while iterations < max_iter:
            # One working-set update: the span brackets exactly the
            # per-iteration kernel work the layout decision controls.
            with tracer.span("smo.iteration"):
                # Steps 4/11: analytic two-variable update with box clipping.
                # The two rows are the per-iteration bottleneck; on a double
                # cache miss they come out of one fused dual-row SpMM.
                k_high, k_low = kernel_row_pair(high, low)
                eta = k_high[high] + k_low[low] - 2.0 * k_high[low]
                if eta <= 1e-12:
                    eta = 1e-12  # degenerate pair; take a tiny safe step

                y_h, y_l = y[high], y[low]
                s = y_h * y_l
                a_h, a_l = alpha[high], alpha[low]
                # Feasible interval for alpha_low given the equality constraint.
                if s < 0:
                    L = max(0.0, a_l - a_h)
                    H = min(C, C + a_l - a_h)
                else:
                    L = max(0.0, a_h + a_l - C)
                    H = min(C, a_h + a_l)

                # Eq. (5): Delta alpha_low = y_low (b_high - b_low) / eta.
                a_l_new = a_l + y_l * (f[high] - f[low]) / eta
                a_l_new = min(max(a_l_new, L), H)
                # Eq. (6) via the equality constraint.
                a_h_new = a_h + s * (a_l - a_l_new)

                d_low = a_l_new - a_l
                d_high = a_h_new - a_h
                alpha[low] = a_l_new
                alpha[high] = a_h_new

                # Step 5 / Eq. (4): incremental f update (in place; inactive
                # entries of the kernel rows are zero, so frozen f is free).
                if d_high != 0.0:
                    f += np.multiply(d_high * y_h, k_high, out=step)
                if d_low != 0.0:
                    f += np.multiply(d_low * y_l, k_low, out=step)

                # Steps 6-7: index sets over the active problem.
                update_index_sets(high)
                update_index_sets(low)

                # Steps 8-10: select the next pair and the gap endpoints.
                mask_f()
                high = int(np.argmin(f_hi))
                b_high = float(f_hi[high])
                b_low = float(np.max(f_lo))

                if working_set == "second" and np.isfinite(b_high):
                    # Fan-Chen-Lin: maximise the guaranteed gain
                    # (f_j - b_high)^2 / eta_j over violating j in I_low.
                    k_h = kernel_row(high)
                    viol = f_lo > b_high  # I_low members above b_high
                    if viol.any():
                        eta_j = np.maximum(
                            k_diag[high] + k_diag - 2.0 * k_h, 1e-12
                        )
                        gain = np.where(
                            viol, (f - b_high) ** 2 / eta_j, -np.inf
                        )
                        low = int(np.argmax(gain))
                    else:
                        low = int(np.argmax(f_lo))
                else:
                    low = int(np.argmax(f_lo))

                iterations += 1
                if on_iteration is not None:
                    on_iteration(iterations, b_high, b_low)

                # Step 12: duality-gap check (on the active problem).
                if b_low <= b_high + 2.0 * tol:
                    if aset.n_active < m:
                        # The shrunken problem converged: un-shrink, verify on
                        # the full problem, continue if violations remain.
                        unshrink()
                        mask_f()
                        high = int(np.argmin(f_hi))
                        b_high = float(f_hi[high])
                        b_low = float(np.max(f_lo))
                        low = int(np.argmax(f_lo))
                        if b_low <= b_high + 2.0 * tol:
                            converged = True
                            break
                        continue
                    converged = True
                    break
                if not np.isfinite(b_high) or not np.isfinite(b_low):
                    break  # index set degenerated (numerically at bounds)

                if shrink_every and iterations % shrink_every == 0:
                    try_shrink(b_high, b_low)
                    if not aset.active[high] or not aset.active[low]:
                        # Selection must come from the active set; reselect.
                        mask_f()
                        high = int(np.argmin(f_hi))
                        low = int(np.argmax(f_lo))
                        b_high = float(f_hi[high])
                        b_low = float(f_lo[low])

        if tracer.enabled:
            t_span.set("iterations", iterations)
            t_span.set("converged", converged)
            t_span.set("kernel_rows", rows_computed)
            t_span.set("m", m)
    if aset.n_active < m:
        # Report a consistent full-problem f even on max_iter exit.
        reconstruct_inactive_f()

    return SMOResult(
        alpha=alpha,
        b=(b_high + b_low) / 2.0,
        iterations=iterations,
        converged=converged,
        b_high=b_high,
        b_low=b_low,
        f=f,
        kernel_rows_computed=rows_computed,
        kernel_rows_cached=cache.hits,
        shrink_events=shrink_events,
        unshrink_events=unshrink_events,
        min_active=min(min_active, m),
    )
