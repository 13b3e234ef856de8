"""``repro.tune``: measured-time knob search + the persisted cache.

Three knob families are tuned — the SELL slice height
(``sell_chunk``), the reorder window (``sigma``) and the SMO
kernel-row cache budget (``row_cache_mb``) — each timed on the code
that reads it.  The storage format is not tuned here: the layout
scheduler decides it from each matrix's own profile.  The subsystem
has four layers (see ``docs/tuning.md``):

=================  ====================================================
``space``          declarative knob catalogue (one knob per family:
                   valid values, profile-conditioned analytic
                   default)
``fingerprint``    stable machine identity + dataset profile bucketing
                   (the cache key axes)
``search``         deterministic measured-time search: successive
                   halving per family with incumbent protection
``cache``          versioned JSON store the consumers consult
                   (``~/.cache/repro/tune.json``; ``REPRO_TUNE=0``
                   kills all consultation)
=================  ====================================================

Exports resolve lazily so that importing :mod:`repro.tune` (or the
cache helpers from a format constructor's hot path) never pays for the
search harness's dependency graph.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "Knob": "repro.tune.space",
    "KNOB_FAMILIES": "repro.tune.space",
    "KNOBS": "repro.tune.space",
    "knob_for": "repro.tune.space",
    "machine_fingerprint": "repro.tune.fingerprint",
    "fingerprint_hash": "repro.tune.fingerprint",
    "profile_bucket": "repro.tune.fingerprint",
    "TuneCache": "repro.tune.cache",
    "tune_cache": "repro.tune.cache",
    "reset_tune_cache": "repro.tune.cache",
    "tuning_enabled": "repro.tune.cache",
    "default_cache_path": "repro.tune.cache",
    "tuned_value": "repro.tune.cache",
    "ProbeContext": "repro.tune.search",
    "TuneSearch": "repro.tune.search",
    "FamilyResult": "repro.tune.search",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.tune' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
