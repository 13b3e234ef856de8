"""Declarative knob catalogue: what ``repro tune`` searches.

Three knob families are timed on the very code that reads them:

==================  ===================================================
``sell_chunk``      SELL slice height C (``formats.sell.DEFAULT_CHUNK``),
                    timed on SELL SMSVs
``sigma``           row-reorder window for the sorted layouts
                    (0 = global sort, the historical default), timed on
                    RSELL SMSVs
``row_cache_mb``    SMO kernel-row cache budget (LIBSVM ``-m``), timed
                    on a replayed SMO row-access sequence
==================  ===================================================

Each family is one :class:`Knob`: explicit candidate values and a
*profile-conditioned* default — the value the analytic model would run
with, which the search harness always keeps in the race (so a tuned
entry can never be worse than the analytic choice on its own
measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.features.profile import DatasetProfile
from repro.formats.sell import DEFAULT_CHUNK

#: One concrete assignment of a family's knob, as cached on disk
#: (``{"chunk": 16}``).
Config = Dict[str, int]

#: Canonical family names, in catalogue order.
KNOB_FAMILIES: Tuple[str, ...] = ("sell_chunk", "sigma", "row_cache_mb")


@dataclass(frozen=True)
class Knob:
    """One knob family: a named integer knob and its candidate values.

    ``name`` is the parameter key the cache stores (``chunk`` for
    ``sell_chunk``).  ``default`` is the analytic/product default;
    ``default_for`` optionally refines it from a dataset profile
    (profile-conditioned default).  Candidate values outside
    ``(lo, hi)`` validity bounds are rejected at construction, so a
    family can never race an illegal configuration.
    """

    family: str
    name: str
    values: Tuple[int, ...]
    default: int
    lo: int = 0
    hi: int = 1 << 30
    description: str = ""
    default_for: Optional[Callable[[DatasetProfile], int]] = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"knob {self.name!r} needs candidate values")
        for v in self.values:
            if not (self.lo <= v <= self.hi):
                raise ValueError(
                    f"knob {self.name!r} candidate {v} outside "
                    f"[{self.lo}, {self.hi}]"
                )
        if self.default not in self.values:
            raise ValueError(
                f"knob {self.name!r} default {self.default} must be a "
                f"candidate value"
            )

    def default_value(self, profile: Optional[DatasetProfile] = None) -> int:
        """The analytic default, profile-conditioned when possible."""
        if profile is not None and self.default_for is not None:
            v = self.default_for(profile)
            if v in self.values:
                return v
        return self.default

    def config(self, value: int) -> Config:
        return {self.name: int(value)}

    def validate(self, config: Config) -> Config:
        """Clamp-free validation: the knob present with a legal value."""
        if self.name not in config:
            raise ValueError(
                f"family {self.family!r} config missing {self.name!r}"
            )
        v = int(config[self.name])
        if v not in self.values:
            raise ValueError(
                f"family {self.family!r}: {self.name}={v} is not a "
                f"candidate value"
            )
        return self.config(v)


def _sigma_default(p: DatasetProfile) -> int:
    # Near-uniform rows gain nothing from sorting — keep the window
    # tiny so the permutation stays close to the identity; irregular
    # rows want the global sort (0 = whole-matrix window).
    return 64 if p.cv_dim < 0.25 else 0


def row_cache_default_mb(m: int) -> int:
    """The ``row_cache_mb`` default for an M-sample problem.

    One default that scales with the problem: cache ~4k rows' worth of
    float64 kernel rows, capped at 64 MB.  It depends on M alone, so
    ``smo_train`` sizes its cache with it when nothing else is given —
    the same value ``repro tune`` races as the incumbent.
    """
    mb = (4096 * 8 * max(m, 1)) // (1 << 20)
    for v in (64, 16, 4, 1):
        if mb >= v:
            return v
    return 1


def _cache_default(p: DatasetProfile) -> int:
    return row_cache_default_mb(p.m)


#: The catalogue (family name -> knob).
KNOBS: Dict[str, Knob] = {
    "sell_chunk": Knob(
        family="sell_chunk",
        name="chunk",
        values=(2, 4, 8, 16, 32, 64),
        default=DEFAULT_CHUNK,
        lo=1,
        hi=1 << 20,
        description="rows per SELL slice: padding-vs-locality trade",
    ),
    "sigma": Knob(
        family="sigma",
        name="sigma",
        values=(0, 16, 64, 256, 1024, 4096),
        default=0,
        description="rows per descending-length sort window for "
        "RSELL/RCSR (0 sorts the whole matrix)",
        default_for=_sigma_default,
    ),
    "row_cache_mb": Knob(
        family="row_cache_mb",
        name="row_cache_mb",
        values=(0, 1, 4, 16, 64),
        default=4,
        description="megabytes of cached float64 SMO kernel rows "
        "(LIBSVM -m; 0 disables)",
        default_for=_cache_default,
    ),
}


def knob_for(family: str) -> Knob:
    """Look up a family's knob; raises on unknown families."""
    try:
        return KNOBS[family]
    except KeyError:
        raise ValueError(
            f"unknown knob family {family!r}; expected one of "
            f"{KNOB_FAMILIES}"
        ) from None
