"""Work partitioning helpers.

Partitioning quality matters for the same reason ``vdim`` matters in the
paper: unbalanced chunks leave lanes (or threads) idle.  ``row_blocks``
does contiguous equal-count splits (right where every item costs the
same, as DEN's right-hand-side columns do); ``greedy_bins`` does
*non-contiguous* weighted assignment (right for placing whole models
onto fleet shards, where nothing forces adjacent models together).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.formats.base import VALUE_DTYPE


def row_blocks(n_rows: int, n_blocks: int) -> List[Tuple[int, int]]:
    """Split ``range(n_rows)`` into ``n_blocks`` contiguous blocks.

    Blocks differ in size by at most one row.  Returns ``(start, stop)``
    half-open pairs; empty blocks are omitted so callers can zip the
    result straight into a pool.

    >>> row_blocks(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    base, extra = divmod(n_rows, n_blocks)
    blocks: List[Tuple[int, int]] = []
    start = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        if size == 0:
            continue
        blocks.append((start, start + size))
        start += size
    return blocks


def greedy_bins(
    weights: Sequence[float] | np.ndarray, n_bins: int
) -> List[int]:
    """Assign each item to one of ``n_bins`` bins, balancing totals.

    Longest-processing-time greedy: items are placed heaviest-first
    into the currently lightest bin (ties to the lowest bin id, so the
    assignment is deterministic).  Unlike :func:`row_blocks` the
    assignment is not contiguous — this is the placement primitive for
    mapping served models onto fleet shards by expected load, where
    the classic 4/3-approximation bound is plenty.

    Returns one bin id per item, in the items' original order.

    >>> greedy_bins([5, 4, 3, 3, 3], 2)
    [0, 1, 1, 0, 1]
    """
    w = np.asarray(weights, dtype=VALUE_DTYPE)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    order = sorted(range(w.shape[0]), key=lambda i: (-float(w[i]), i))
    totals = [0.0] * n_bins
    assignment = [0] * w.shape[0]
    for i in order:
        b = min(range(n_bins), key=lambda j: (totals[j], j))
        assignment[i] = b
        totals[b] += float(w[i])
    return assignment
