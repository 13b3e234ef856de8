"""Declarative knob catalogue: what ``repro tune`` searches.

Six knob families dominate measured kernel time yet were fixed (or
priced only analytically) before this module existed:

==================  ===================================================
``sell_chunk``      SELL slice height C (``formats.sell.DEFAULT_CHUNK``)
``sigma``           row-reorder window for the sorted layouts
                    (0 = global sort, the historical default)
``batch_k``         SpMM sweep width assumed at serving warm-up
``row_blocks``      minimum rows per parallel row block (partition
                    granularity of the threaded kernels)
``workers``         thread-pool width (machine-wide, data-independent)
``row_cache_mb``    SMO kernel-row cache budget (LIBSVM ``-m``)
==================  ===================================================

Each family is a :class:`SearchSpace` of one or more :class:`Knob`\\ s
with explicit candidate values and a *profile-conditioned* default —
the value the analytic model would run with, which the search harness
always keeps in the race (so a tuned entry can never be worse than the
analytic choice on its own measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.features.profile import DatasetProfile
from repro.formats.sell import DEFAULT_CHUNK

#: One concrete assignment of a family's knobs.
Config = Dict[str, int]

#: Canonical family names, in catalogue order.
KNOB_FAMILIES: Tuple[str, ...] = (
    "sell_chunk",
    "sigma",
    "batch_k",
    "row_blocks",
    "workers",
    "row_cache_mb",
)

#: The pseudo-family under which the measured-best storage format is
#: cached.  Not a knob (nothing numeric to sweep — the autotuner's
#: probe decides it), but it shares the cache key scheme so the
#: scheduler's warm path is one lookup.
FORMAT_FAMILY = "format"


@dataclass(frozen=True)
class Knob:
    """One named integer knob with its valid candidate values.

    ``default`` is the analytic/product default; ``default_for``
    optionally refines it from a dataset profile (profile-conditioned
    default).  Candidate values outside ``(lo, hi)`` validity bounds
    are rejected at construction, so a family can never race an
    illegal configuration.
    """

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


@dataclass(frozen=True)
class SearchSpace:
    """One knob family: the unit the search harness tunes and the
    cache stores."""

    family: str
    knobs: Tuple[Knob, ...]
    description: str = ""
    #: Whether the optimum depends on the data (profile-bucketed cache
    #: key) or on the machine alone (:data:`~repro.tune.fingerprint.
    #: MACHINE_BUCKET`).
    machine_wide: bool = False

    def __post_init__(self) -> None:
        if not self.knobs:
            raise ValueError(f"family {self.family!r} needs knobs")
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"family {self.family!r} has duplicate knobs")

    def default_config(
        self, profile: Optional[DatasetProfile] = None
    ) -> Config:
        return {k.name: k.default_value(profile) for k in self.knobs}

    def neighbours(self, knob: Knob, config: Config) -> List[Config]:
        """All configs that vary ``knob`` with the others held fixed."""
        out: List[Config] = []
        for v in knob.values:
            c = dict(config)
            c[knob.name] = v
            out.append(c)
        return out

    def grid(self, profile: Optional[DatasetProfile] = None) -> List[Config]:
        """Full cartesian grid, default config first (deterministic)."""
        configs: List[Config] = [self.default_config(profile)]
        frontier: List[Config] = [dict(configs[0])]
        for knob in self.knobs:
            frontier = [
                c for base in frontier for c in self.neighbours(knob, base)
            ]
        for c in frontier:
            if c not in configs:
                configs.append(c)
        return configs

    def validate(self, config: Config) -> Config:
        """Clamp-free validation: every knob present with a legal value."""
        out: Config = {}
        for knob in self.knobs:
            if knob.name not in config:
                raise ValueError(
                    f"family {self.family!r} config missing {knob.name!r}"
                )
            v = int(config[knob.name])
            if v not in knob.values:
                raise ValueError(
                    f"family {self.family!r}: {knob.name}={v} is not a "
                    f"candidate value"
                )
            out[knob.name] = v
        return out


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


#: The catalogue (family name -> search space).
SPACES: Dict[str, SearchSpace] = {
    "sell_chunk": SearchSpace(
        family="sell_chunk",
        description="SELL slice height C: padding-vs-locality trade",
        knobs=(
            Knob(
                name="chunk",
                values=(2, 4, 8, 16, 32, 64),
                default=DEFAULT_CHUNK,
                lo=1,
                hi=1 << 20,
                description="rows per SELL slice",
            ),
        ),
    ),
    "sigma": SearchSpace(
        family="sigma",
        description="reorder window for RSELL/RCSR (0 = global sort)",
        knobs=(
            Knob(
                name="sigma",
                values=(0, 16, 64, 256, 1024, 4096),
                default=0,
                description="rows per descending-length sort window "
                "(0 sorts the whole matrix)",
                default_for=_sigma_default,
            ),
        ),
    ),
    "batch_k": SearchSpace(
        family="batch_k",
        description="SpMM sweep width assumed at serving warm-up",
        knobs=(
            Knob(
                name="batch_k",
                values=(1, 2, 4, 8, 16, 32),
                default=1,
                lo=1,
                description="right-hand sides per blocked sweep",
            ),
        ),
    ),
    "row_blocks": SearchSpace(
        family="row_blocks",
        description="parallel partition granularity",
        machine_wide=True,
        knobs=(
            Knob(
                name="min_rows_per_block",
                values=(128, 256, 512, 1024, 2048, 4096),
                default=256,
                lo=1,
                description="smallest row block worth a pool dispatch",
            ),
        ),
    ),
    "workers": SearchSpace(
        family="workers",
        description="thread-pool width for the row-block kernels",
        machine_wide=True,
        knobs=(
            Knob(
                name="workers",
                values=(1, 2, 4, 8, 16),
                default=1,
                lo=1,
                hi=1024,
                description="pool threads (env REPRO_NUM_THREADS wins)",
            ),
        ),
    ),
    "row_cache_mb": SearchSpace(
        family="row_cache_mb",
        description="SMO kernel-row LRU cache budget (LIBSVM -m)",
        knobs=(
            Knob(
                name="row_cache_mb",
                values=(0, 1, 4, 16, 64),
                default=4,
                description="megabytes of cached float64 kernel rows "
                "(0 disables)",
                default_for=_cache_default,
            ),
        ),
    ),
}


def space_for(family: str) -> SearchSpace:
    """Look up a family's search space; raises on unknown families."""
    try:
        return SPACES[family]
    except KeyError:
        raise ValueError(
            f"unknown knob family {family!r}; expected one of "
            f"{KNOB_FAMILIES}"
        ) from None
