"""Empirical probing autotuner.

The ground truth for a layout decision is a measurement: build each
candidate format and time a handful of SMSVs with representative sparse
vectors (rows of the matrix, exactly like SMO's X_high / X_low).  The
probe follows the guide's ``timeit`` discipline — warm-up, repeats,
median — and bounds its own cost by probing a row *sample* of large
matrices (layout statistics are row-i.i.d. for ML datasets, so the
sample ranks formats like the full matrix does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.extract import profile_from_coo
from repro.formats.base import FORMAT_NAMES, MatrixFormat
from repro.formats.convert import format_class
from repro.perf.timers import Timer, benchmark


@dataclass(frozen=True)
class ProbeResult:
    """Measured probe outcome for one format."""

    fmt: str
    median_seconds: float
    build_seconds: float
    probe_rows: int

    def __lt__(self, other: "ProbeResult") -> bool:
        return self.median_seconds < other.median_seconds


class AutoTuner:
    """Measures candidate formats on (a sample of) the data matrix.

    Parameters
    ----------
    probe_rows:
        Maximum rows of the matrix used for probing; larger matrices are
        row-sampled down to this. ``None`` probes the full matrix.
    repeats / warmup:
        Timing discipline per candidate.
    smsv_per_probe:
        SMSVs per timed invocation (amortises timer resolution).
    seed:
        Sampling determinism.
    """

    def __init__(
        self,
        *,
        probe_rows: Optional[int] = 2048,
        repeats: int = 3,
        warmup: int = 1,
        smsv_per_probe: int = 4,
        seed: int = 0,
    ) -> None:
        if probe_rows is not None and probe_rows < 1:
            raise ValueError("probe_rows must be >= 1 or None")
        if smsv_per_probe < 1:
            raise ValueError("smsv_per_probe must be >= 1")
        self.probe_rows = probe_rows
        self.repeats = repeats
        self.warmup = warmup
        self.smsv_per_probe = smsv_per_probe
        self.seed = seed

    # -- sampling -------------------------------------------------------
    def _sample(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
        m = shape[0]
        if self.probe_rows is None or m <= self.probe_rows:
            return rows, cols, values, shape
        rng = np.random.default_rng(self.seed)
        chosen = np.sort(rng.choice(m, size=self.probe_rows, replace=False))
        # Remap chosen row ids to a compact range.
        lookup = np.full(m, -1, dtype=np.int64)
        lookup[chosen] = np.arange(self.probe_rows)
        keep = lookup[rows] >= 0
        return (
            lookup[rows[keep]],
            cols[keep],
            values[keep],
            (self.probe_rows, shape[1]),
        )

    # -- probing ---------------------------------------------------------
    def probe(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
        candidates: Optional[Iterable[str]] = None,
    ) -> List[ProbeResult]:
        """Measure every candidate; results sorted fastest-first.

        Probe vectors are actual rows of the (sampled) matrix — the SMO
        access pattern — cycled per repetition so a single atypical row
        cannot decide the format.
        """
        names = list(candidates) if candidates is not None else list(FORMAT_NAMES)
        srows, scols, svalues, sshape = self._sample(rows, cols, values, shape)
        m = sshape[0]
        if m == 0:
            raise ValueError("cannot probe an empty matrix")
        rng = np.random.default_rng(self.seed + 1)
        # Distinct rows, clamped to the matrix: a probe on m <
        # smsv_per_probe must not time the same row twice and divide by
        # the nominal count (it would under-report per-SMSV time).
        n_probe = min(m, self.smsv_per_probe)
        probe_ids = [int(i) for i in rng.permutation(m)[:n_probe]]

        results: List[ProbeResult] = []
        errors: Dict[str, Exception] = {}
        for name in names:
            cls = format_class(name)
            try:
                # The timed build is the matrix the probe then uses.
                with Timer() as build:
                    matrix: MatrixFormat = cls.from_coo(
                        srows, scols, svalues, sshape
                    )
            except Exception as exc:
                # A format that cannot be built for this matrix (e.g. a
                # dense or diagonal layout too large to allocate) loses
                # the race by forfeit rather than aborting the probe.
                errors[name] = exc
                continue

            def run() -> None:
                # Row extraction + SMSV: exactly SMO's per-selected-
                # sample kernel work.  Timing both matters for formats
                # whose row access is expensive (DIA walks every diagonal).
                for i in probe_ids:
                    matrix.smsv(matrix.row(i))

            r = benchmark(run, repeats=self.repeats, warmup=self.warmup)
            results.append(
                ProbeResult(
                    fmt=name,
                    median_seconds=r.median / len(probe_ids),
                    build_seconds=build.elapsed,
                    probe_rows=m,
                )
            )
        if not results:
            raise ValueError(
                f"every candidate format failed to build: "
                f"{ {k: str(v) for k, v in errors.items()} }"
            )
        return sorted(results)

    # -- reporting --------------------------------------------------------
    @staticmethod
    def speedup_table(results: Sequence[ProbeResult]) -> Dict[str, float]:
        """Per-format speedup normalised to the slowest (Fig. 1 style)."""
        if not results:
            return {}
        worst = max(r.median_seconds for r in results)
        return {
            r.fmt: (worst / r.median_seconds if r.median_seconds > 0 else 1.0)
            for r in results
        }
