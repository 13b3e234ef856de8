"""The persisted tuning cache: measured knob optima, keyed per machine.

A versioned JSON store at ``~/.cache/repro/tune.json`` (override with
``REPRO_TUNE_CACHE=/path/to/tune.json``; ``REPRO_TUNE=0`` disables all
consultation).  Entries are keyed ``(machine fingerprint hash, profile
bucket, knob family)`` and carry the winning configuration plus the
measurements that justified it::

    {
      "schema": 1,
      "fingerprint": {...},          # human-readable provenance
      "entries": {
        "3f2a...|a3-mid-d2-square-m3|sell_chunk": {
          "params": {"chunk": 16},
          "median_seconds": 1.2e-05,
          "default_seconds": 1.9e-05,
          "fidelity": 4,
          "budget": 60
        }
      }
    }

Robustness contract (exercised by ``tests/tune/test_cache.py``): a
corrupted, truncated, schema-bumped or otherwise unreadable file is
*never* an error — consumers see an empty cache and fall back to the
analytic defaults.  Entries written under a different machine
fingerprint simply never match a lookup on this machine.  Writes are
atomic (temp file + ``os.replace`` in the same directory) so a reader
can never observe a torn file, and concurrent writers settle on
last-writer-wins with both writers' files intact.  All mutable state
is lock-guarded (the RDL009 discipline); the in-memory view is shared
process-wide via :func:`tune_cache`.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.analysis.race import make_lock, track_shared
from repro.features.profile import DatasetProfile
from repro.tune.fingerprint import (
    fingerprint_hash,
    machine_fingerprint,
    profile_bucket,
)
from repro.tune.space import KNOBS, knob_for

#: Bump when the entry layout changes; older files fall back cleanly.
SCHEMA_VERSION = 1

#: Environment knobs.
ENV_CACHE_PATH = "REPRO_TUNE_CACHE"
ENV_DISABLE = "REPRO_TUNE"


def tuning_enabled() -> bool:
    """Consultation kill-switch: ``REPRO_TUNE=0`` forces analytic
    defaults everywhere without touching the cache file."""
    return os.environ.get(ENV_DISABLE, "1").strip() != "0"


def default_cache_path() -> Path:
    """``$REPRO_TUNE_CACHE``, else ``$XDG_CACHE_HOME/repro/tune.json``,
    else ``~/.cache/repro/tune.json``."""
    env = os.environ.get(ENV_CACHE_PATH)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "tune.json"


def entry_key(fp_hash: str, bucket: str, family: str) -> str:
    """The flat string key one entry lives under."""
    return f"{fp_hash}|{bucket}|{family}"


def _valid_entry(family: str, payload: Any) -> bool:
    """Schema check for one loaded entry: params must satisfy the
    family's knob.  A family outside :data:`KNOBS` (a retired knob, an
    older file's ``format`` entry) passes with any string-keyed
    str/int params, so the entry survives the next save unread."""
    if not isinstance(payload, dict):
        return False
    params = payload.get("params")
    if not isinstance(params, dict):
        return False
    if family in KNOBS:
        try:
            KNOBS[family].validate(params)
        except (ValueError, TypeError):
            return False
        return True
    return all(
        isinstance(k, str) and isinstance(v, (str, int)) for k, v in params.items()
    )


class TuneCache:
    """One JSON-backed tuning store (usually the process singleton).

    Thread-safe: the scheduler, the serving tier and ``repro tune``
    may all consult or update one instance concurrently, so every
    access to the entry map goes through the internal lock, and
    persistence is an atomic whole-file replace under that lock.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        *,
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self.fingerprint = (
            dict(fingerprint) if fingerprint is not None else machine_fingerprint()
        )
        self.fp_hash = fingerprint_hash(self.fingerprint)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._loaded = False
        self._lock = make_lock("tune.cache")
        track_shared(self, ("_entries", "_loaded"))

    # -- persistence ------------------------------------------------------
    def _load_locked(self) -> None:
        """Read and validate the file; any problem yields an empty map.

        Called with the lock held.  Invalid *files* warn once (a human
        probably wants to know their tunings were dropped); invalid
        individual entries are skipped silently — partial salvage, the
        valid remainder keeps working.
        """
        if self._loaded:
            return
        self._loaded = True
        self._entries = {}
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return  # no cache yet: every key is cold
        try:
            doc = json.loads(raw)
        except ValueError:
            warnings.warn(
                f"tuning cache {self.path} is not valid JSON; falling "
                f"back to analytic defaults",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
            warnings.warn(
                f"tuning cache {self.path} has schema "
                f"{doc.get('schema') if isinstance(doc, dict) else '?'} "
                f"(expected {SCHEMA_VERSION}); falling back to analytic "
                f"defaults",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        entries = doc.get("entries")
        if not isinstance(entries, dict):
            return
        for key, payload in entries.items():
            if not isinstance(key, str) or key.count("|") != 2:
                continue
            family = key.rsplit("|", 1)[1]
            if _valid_entry(family, payload):
                self._entries[key] = payload

    def _save_locked(self) -> None:
        """Atomic whole-file write; called with the lock held."""
        doc = {
            "schema": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "fingerprint_hash": self.fp_hash,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=self.path.name + ".", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass  # repro: the temp file was already renamed away
            raise

    # -- lookups ----------------------------------------------------------
    def has_family(self, family: str) -> bool:
        """Whether *any* entry for ``family`` exists under this
        machine's fingerprint — the cheap precheck hot construction
        paths use before paying for a profile computation."""
        prefix = f"{self.fp_hash}|"
        suffix = f"|{family}"
        with self._lock:
            self._load_locked()
            return any(
                k.startswith(prefix) and k.endswith(suffix)
                for k in self._entries
            )

    def get(
        self, family: str, profile: DatasetProfile
    ) -> Optional[Dict[str, Any]]:
        """The warm entry for ``(this machine, profile bucket, family)``
        or ``None`` — cold keys mean "use the analytic default"."""
        if not tuning_enabled():
            return None
        key = entry_key(self.fp_hash, profile_bucket(profile), family)
        with self._lock:
            self._load_locked()
            entry = self._entries.get(key)
            return dict(entry) if entry is not None else None

    def get_params(
        self, family: str, profile: DatasetProfile
    ) -> Optional[Dict[str, Any]]:
        entry = self.get(family, profile)
        return dict(entry["params"]) if entry is not None else None

    def put(
        self,
        family: str,
        params: Mapping[str, Any],
        *,
        profile: DatasetProfile,
        stats: Optional[Mapping[str, Any]] = None,
        persist: bool = True,
    ) -> str:
        """Store one tuned entry (and by default persist the file).

        Returns the flat key written.  ``family`` must be a knob family
        and ``params`` must satisfy its knob; anything else raises
        ``ValueError`` before anything is stored, so neither a typo nor
        an impossible configuration can be persisted.
        """
        knob_for(family)  # raises ValueError on an unknown family
        payload: Dict[str, Any] = {"params": dict(params)}
        if stats:
            payload.update({k: stats[k] for k in sorted(stats)})
        if not _valid_entry(family, payload):
            raise ValueError(
                f"invalid tuned entry for family {family!r}: {params!r}"
            )
        key = entry_key(self.fp_hash, profile_bucket(profile), family)
        with self._lock:
            self._load_locked()
            self._entries[key] = payload
            if persist:
                self._save_locked()
        return key

    def save(self) -> None:
        with self._lock:
            self._load_locked()
            self._save_locked()

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """A snapshot of every valid entry (all fingerprints)."""
        with self._lock:
            self._load_locked()
            return {k: dict(v) for k, v in self._entries.items()}

    def clear(self, *, persist: bool = True) -> None:
        with self._lock:
            self._loaded = True
            self._entries = {}
            if persist:
                self._save_locked()

    def __len__(self) -> int:
        with self._lock:
            self._load_locked()
            return len(self._entries)


# -- the process-wide cache ----------------------------------------------

_shared: Optional[TuneCache] = None
_shared_lock = make_lock("tune.shared_cache")


def tune_cache() -> TuneCache:
    """The process-wide tuning cache for the *current* cache path.

    Re-resolves the path on every call so tests (and operators) can
    repoint ``REPRO_TUNE_CACHE`` mid-process; a path change swaps in a
    fresh instance, same-path calls share one.
    """
    global _shared
    path = default_cache_path()
    with _shared_lock:
        if _shared is None or _shared.path != path:
            _shared = TuneCache(path)
        return _shared


def reset_tune_cache() -> None:
    """Drop the process-wide instance (tests; cheap, state is on disk)."""
    global _shared
    with _shared_lock:
        _shared = None


# -- typed conveniences the consumers call -------------------------------


def tuned_value(
    family: str,
    profile: DatasetProfile,
    *,
    default: Optional[int] = None,
) -> Optional[int]:
    """The family's tuned knob value, or ``default`` on a cold key.

    The single entry point the consumers go through — it folds in the
    kill-switch, the fingerprint match and the schema validation, so
    call sites stay one line.
    """
    if not tuning_enabled():
        return default
    cache = tune_cache()
    if not cache.has_family(family):
        return default
    params = cache.get_params(family, profile)
    if params is None:
        return default
    return int(params[KNOBS[family].name])


def tuned_for_lengths(
    family: str,
    row_lengths,
    shape,
    *,
    default: Optional[int] = None,
) -> Optional[int]:
    """Tuned knob lookup for format constructors.

    Constructors hold per-row nnz counts, not a full profile; this
    derives the bucket from the lengths alone — and only after a cheap
    "is anything warm for this family?" check, so cold-cache builds pay
    one dict scan and no profile math.
    """
    if not tuning_enabled() or not tune_cache().has_family(family):
        return default
    from repro.tune.fingerprint import profile_from_lengths

    return tuned_value(
        family, profile_from_lengths(row_lengths, shape), default=default
    )
