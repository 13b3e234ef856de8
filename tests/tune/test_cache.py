"""Tuning-cache robustness: the contract is "never an error".

A corrupted, truncated, schema-bumped or foreign-fingerprint cache
file must always degrade to analytic defaults — a broken tuning cache
may cost performance, never correctness and never a traceback.
"""

import json
import threading
import warnings

import pytest

from repro.features.profile import DatasetProfile
from repro.tune.cache import (
    SCHEMA_VERSION,
    TuneCache,
    default_cache_path,
    entry_key,
    reset_tune_cache,
    tune_cache,
    tuned_value,
    tuning_enabled,
)


def _profile(**over):
    base = dict(
        m=1000, n=500, nnz=8000, ndig=10, dnnz=100.0, mdim=16,
        adim=8.0, vdim=1.0, density=0.016,
    )
    base.update(over)
    cap = base["m"] * base["n"]
    if base["nnz"] > cap:  # keep the profile's own invariant
        base["nnz"] = cap
        base["density"] = cap / (base["m"] * base["n"]) if cap else 0.0
    return DatasetProfile(**base)


@pytest.fixture
def cache_path(tmp_path, monkeypatch):
    path = tmp_path / "tune.json"
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
    reset_tune_cache()
    yield path
    reset_tune_cache()


class TestRoundtrip:
    def test_put_get(self, cache_path):
        cache = TuneCache(cache_path)
        key = cache.put(
            "sell_chunk", {"chunk": 16}, profile=_profile(),
            stats={"median_seconds": 1e-6},
        )
        assert key.count("|") == 2
        entry = cache.get("sell_chunk", _profile())
        assert entry["params"] == {"chunk": 16}
        assert entry["median_seconds"] == 1e-6
        # a fresh instance reads the persisted file
        again = TuneCache(cache_path)
        assert again.get_params("sell_chunk", _profile()) == {"chunk": 16}

    def test_cold_key_is_none(self, cache_path):
        cache = TuneCache(cache_path)
        assert cache.get("sell_chunk", _profile()) is None
        assert cache.get_params("sigma", _profile()) is None

    def test_put_validates(self, cache_path):
        cache = TuneCache(cache_path)
        with pytest.raises(ValueError, match="invalid tuned entry"):
            # not a candidate value
            cache.put("sell_chunk", {"chunk": 3}, profile=_profile())

    @pytest.mark.parametrize(
        "family, params",
        [
            ("sell_chunks", {"chunk": 16}),  # a typo
            ("workers", {"workers": 3}),  # a retired knob family
            ("format", {"fmt": "DIA", "batch_k": 1}),  # no longer tuned
        ],
    )
    def test_put_rejects_unknown_families(self, cache_path, family, params):
        cache = TuneCache(cache_path)
        with pytest.raises(ValueError, match="unknown knob family"):
            cache.put(family, params, profile=_profile())
        assert not cache_path.exists()
        cache.put("sell_chunk", {"chunk": 16}, profile=_profile())
        written = cache_path.read_text()
        with pytest.raises(ValueError, match="unknown knob family"):
            cache.put(family, params, profile=_profile())
        assert cache_path.read_text() == written
        assert len(cache) == 1

    def test_atomic_write_leaves_no_temp_files(self, cache_path):
        cache = TuneCache(cache_path)
        for chunk in (4, 8, 16):
            cache.put("sell_chunk", {"chunk": chunk}, profile=_profile())
        leftovers = [
            p for p in cache_path.parent.iterdir() if p != cache_path
        ]
        assert leftovers == []
        assert json.loads(cache_path.read_text())["schema"] == SCHEMA_VERSION


class TestCorruption:
    def test_garbage_file_warns_and_falls_back(self, cache_path):
        cache_path.write_text("{not json at all")
        cache = TuneCache(cache_path)
        with pytest.warns(RuntimeWarning, match="not valid JSON"):
            assert cache.get("sell_chunk", _profile()) is None
        assert len(cache) == 0

    def test_truncated_file_falls_back(self, cache_path):
        cache = TuneCache(cache_path)
        cache.put("sell_chunk", {"chunk": 16}, profile=_profile())
        full = cache_path.read_text()
        cache_path.write_text(full[: len(full) // 2])
        fresh = TuneCache(cache_path)
        with pytest.warns(RuntimeWarning):
            assert fresh.get("sell_chunk", _profile()) is None

    def test_schema_bump_falls_back(self, cache_path):
        cache = TuneCache(cache_path)
        cache.put("sell_chunk", {"chunk": 16}, profile=_profile())
        doc = json.loads(cache_path.read_text())
        doc["schema"] = SCHEMA_VERSION + 1
        cache_path.write_text(json.dumps(doc))
        fresh = TuneCache(cache_path)
        with pytest.warns(RuntimeWarning, match="schema"):
            assert fresh.get("sell_chunk", _profile()) is None

    def test_invalid_entries_skipped_silently(self, cache_path):
        good = TuneCache(cache_path)
        good.put("sell_chunk", {"chunk": 16}, profile=_profile())
        doc = json.loads(cache_path.read_text())
        doc["entries"]["bad-key-no-pipes"] = {"params": {"chunk": 8}}
        doc["entries"][entry_key(good.fp_hash, "b", "sell_chunk")] = {
            "params": {"chunk": 3}  # illegal candidate value
        }
        doc["entries"][entry_key(good.fp_hash, "b", "sigma")] = "not-a-dict"
        cache_path.write_text(json.dumps(doc))
        fresh = TuneCache(cache_path)
        # partial salvage: the valid entry survives, the rest vanish
        assert fresh.get_params("sell_chunk", _profile()) == {"chunk": 16}
        assert len(fresh) == 1

    def test_foreign_fingerprint_never_matches(self, cache_path):
        theirs = TuneCache(
            cache_path, fingerprint={"cpu_model": "other-box"}
        )
        theirs.put("sell_chunk", {"chunk": 64}, profile=_profile())
        ours = TuneCache(cache_path)
        assert ours.fp_hash != theirs.fp_hash
        assert ours.get("sell_chunk", _profile()) is None
        assert not ours.has_family("sell_chunk")
        # ... but the entry itself is preserved in the file
        assert len(ours.entries()) == 1

    def test_unknown_families_load_silently_and_survive_saves(
        self, cache_path
    ):
        cache = TuneCache(cache_path)
        cache.put("sell_chunk", {"chunk": 16}, profile=_profile())
        doc = json.loads(cache_path.read_text())
        foreign = {
            entry_key(cache.fp_hash, "b", "format"): {
                "params": {"fmt": "DIA", "batch_k": 1}
            },
            entry_key(cache.fp_hash, "machine", "workers"): {
                "params": {"workers": 16}
            },
        }
        doc["entries"].update(foreign)
        cache_path.write_text(json.dumps(doc))
        fresh = TuneCache(cache_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get_params("sell_chunk", _profile()) == {
                "chunk": 16
            }
            assert len(fresh) == 3
        fresh.put("sigma", {"sigma": 64}, profile=_profile())
        kept = json.loads(cache_path.read_text())["entries"]
        assert all(kept[k] == v for k, v in foreign.items())

    def test_concurrent_writers_keep_the_file_valid(self, cache_path):
        cache = TuneCache(cache_path)
        chunks = (2, 4, 8, 16, 32, 64)

        def write(c: int) -> None:
            cache.put("sell_chunk", {"chunk": c}, profile=_profile())

        threads = [
            threading.Thread(target=write, args=(c,)) for c in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        doc = json.loads(cache_path.read_text())  # never torn
        assert doc["schema"] == SCHEMA_VERSION
        fresh = TuneCache(cache_path)
        assert fresh.get_params("sell_chunk", _profile())["chunk"] in chunks

    def test_two_instances_last_writer_wins(self, cache_path):
        a = TuneCache(cache_path)
        b = TuneCache(cache_path)
        a.put("sell_chunk", {"chunk": 4}, profile=_profile())
        b.put("sigma", {"sigma": 64}, profile=_profile())
        # both writes went through an atomic whole-file replace; the
        # file is valid JSON either way
        doc = json.loads(cache_path.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        fresh = TuneCache(cache_path)
        assert fresh.get_params("sigma", _profile()) == {"sigma": 64}


class TestHelpers:
    def test_env_path_override_and_singleton_swap(
        self, tmp_path, monkeypatch
    ):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(p1))
        reset_tune_cache()
        assert default_cache_path() == p1
        first = tune_cache()
        assert first.path == p1
        assert tune_cache() is first  # same path, same instance
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(p2))
        assert tune_cache().path == p2  # path change swaps the instance
        reset_tune_cache()

    def test_kill_switch(self, cache_path, monkeypatch):
        tune_cache().put("sell_chunk", {"chunk": 64}, profile=_profile())
        assert tuned_value("sell_chunk", _profile()) == 64
        monkeypatch.setenv("REPRO_TUNE", "0")
        assert not tuning_enabled()
        assert tuned_value("sell_chunk", _profile(), default=8) == 8

    def test_tuned_value_cold_default(self, cache_path):
        assert tuned_value("sigma", _profile(), default=0) == 0
        assert tuned_value("sigma", _profile()) is None
