"""Machine fingerprinting and dataset-profile bucketing.

Tuned knob values are only valid on hardware that looks like the
machine they were measured on, and only for matrices shaped like the
one they were measured with.  This module provides the two halves of
the tuning-cache key:

* :func:`machine_fingerprint` — a stable dictionary of the hardware
  and numeric-stack facts that move kernel timings (CPU model and
  count, cache sizes where the OS exposes them, page size, NumPy
  version and BLAS build), hashed by :func:`fingerprint_hash` into a
  short stable id.  Everything is read defensively: a field the
  platform cannot answer becomes a fixed placeholder rather than an
  error, so the fingerprint is deterministic per machine.
* :func:`profile_bucket` — a coarse quantisation of a
  :class:`~repro.features.profile.DatasetProfile` (log-bucketed
  nnz/row, cv class, density decade, shape class, size decade) so that
  tuned values transfer across matrices with the same structure
  without requiring an exact profile match.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from typing import Any, Dict, Optional

import numpy as np

from repro.features.profile import DatasetProfile

_FINGERPRINT: Optional[Dict[str, Any]] = None


def _read_first_line(path: str) -> str:
    """First line of a sysfs-style file; empty string if unreadable."""
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return fh.readline().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    """Best-effort CPU model string (Linux cpuinfo, else platform)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    """Per-level data-cache sizes where sysfs exposes them.

    Keys are ``L<level>`` (instruction caches are skipped); values are
    the kernel's human-readable size strings (``"32K"``).  Missing or
    unreadable indices simply do not appear.
    """
    out: Dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        d = f"{base}/index{idx}"
        size = _read_first_line(f"{d}/size")
        if not size:
            continue
        level = _read_first_line(f"{d}/level") or str(idx)
        ctype = _read_first_line(f"{d}/type")
        if ctype == "Instruction":
            continue
        out.setdefault(f"L{level}", size)
    return out


def _page_size() -> int:
    try:
        return int(os.sysconf("SC_PAGESIZE"))
    except (ValueError, OSError, AttributeError):
        return 4096


def _blas_build() -> str:
    """A short identifier of the BLAS NumPy was built against."""
    try:
        cfg = np.show_config(mode="dicts")  # numpy >= 1.25
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        version = blas.get("version", "")
        if name:
            return f"{name}-{version}" if version else str(name)
    except (TypeError, AttributeError, KeyError):
        pass
    return "unknown"


def machine_fingerprint(*, refresh: bool = False) -> Dict[str, Any]:
    """The facts that move kernel timings, read once and memoised.

    Deterministic per machine and per interpreter environment: two
    processes on the same box with the same NumPy produce the same
    dictionary (and therefore the same :func:`fingerprint_hash`).
    """
    global _FINGERPRINT
    if _FINGERPRINT is not None and not refresh:
        return dict(_FINGERPRINT)
    fp = {
        "cpu_model": _cpu_model(),
        "cpu_count": int(os.cpu_count() or 1),
        "machine": platform.machine(),
        "system": platform.system(),
        "page_size": _page_size(),
        "caches": _cache_sizes(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
    }
    _FINGERPRINT = fp
    return dict(fp)


def fingerprint_hash(fp: Optional[Dict[str, Any]] = None) -> str:
    """Short stable id of a fingerprint (12 hex chars of SHA-256)."""
    if fp is None:
        fp = machine_fingerprint()
    canonical = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# -- profile bucketing ---------------------------------------------------


def _log_bucket(x: float, base: float = 2.0) -> int:
    """``round(log_base(x))`` clamped at 0; 0 for non-positive x."""
    if x <= 0.0:
        return 0
    import math

    return max(0, int(round(math.log(x, base))))


def _cv_class(cv: float) -> str:
    """Row-length variability class: the Fig. 4 regimes."""
    if cv < 0.25:
        return "uni"
    if cv < 1.0:
        return "mid"
    return "wide"


def _shape_class(m: int, n: int) -> str:
    if n == 0 or m == 0:
        return "empty"
    ratio = m / n
    if ratio >= 4.0:
        return "tall"
    if ratio <= 0.25:
        return "wide"
    return "square"


def profile_from_lengths(
    row_lengths, shape: "tuple[int, int]"
) -> DatasetProfile:
    """A bucket-sufficient profile from row lengths alone.

    :func:`profile_bucket` only reads ``adim`` / ``cv_dim`` / ``density``
    / ``m`` / ``n`` — all derivable from the per-row nnz counts, which
    format constructors have in hand anyway.  The diagonal statistics
    (``ndig`` / ``dnnz``), which would cost an O(nnz log nnz) sort,
    are filled with placeholders; this profile is for *cache keying
    only* and must not be fed to the cost model.
    """
    import numpy as np

    lengths = np.asarray(row_lengths, dtype=np.int64)
    m, n = int(shape[0]), int(shape[1])
    nnz = int(lengths.sum())
    if m == 0 or nnz == 0:
        return DatasetProfile(
            m=m, n=n, nnz=0, ndig=0, dnnz=0.0, mdim=0, adim=0.0,
            vdim=0.0, density=0.0,
        )
    adim = nnz / m
    return DatasetProfile(
        m=m,
        n=n,
        nnz=nnz,
        ndig=1,
        dnnz=float(nnz),
        mdim=int(lengths.max()),
        adim=adim,
        vdim=float(np.mean((lengths - adim) ** 2)),
        density=nnz / (m * n) if n else 0.0,
    )


def profile_bucket(p: DatasetProfile) -> str:
    """Quantise a profile into a transferable bucket key.

    Two matrices land in the same bucket when they agree on: nnz/row
    to within a factor of ~2 (log2 bucket of ``adim``), the row-length
    variability class (``cv_dim``), the density decade, the aspect
    class (tall / square / wide) and the row-count decade.  These are
    exactly the axes along which the measured knob optima move — a
    finer key would fragment the cache, a coarser one would transfer
    tunings across genuinely different kernels.
    """
    density_decade = _log_bucket(1.0 / p.density, base=10.0) if p.density > 0 else 9
    return (
        f"a{_log_bucket(p.adim)}"
        f"-{_cv_class(p.cv_dim)}"
        f"-d{min(density_decade, 9)}"
        f"-{_shape_class(p.m, p.n)}"
        f"-m{_log_bucket(float(p.m), base=10.0)}"
    )
