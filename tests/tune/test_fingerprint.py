"""Machine fingerprint and profile bucketing tests."""

import numpy as np

from repro.data.synthetic import uniform_rows_matrix
from repro.features.extract import profile_from_coo
from repro.features.profile import DatasetProfile
from repro.tune.fingerprint import (
    fingerprint_hash,
    machine_fingerprint,
    profile_bucket,
    profile_from_lengths,
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


class TestFingerprint:
    def test_stable_and_memoised(self):
        a = machine_fingerprint()
        b = machine_fingerprint()
        assert a == b
        assert a is not b  # defensive copies, not the memo itself

    def test_required_fields(self):
        fp = machine_fingerprint()
        for key in (
            "cpu_model", "cpu_count", "machine", "system",
            "page_size", "caches", "numpy", "blas", "python",
        ):
            assert key in fp
        assert fp["cpu_count"] >= 1
        assert fp["page_size"] >= 512

    def test_hash_short_stable_and_keyed(self):
        h = fingerprint_hash()
        assert len(h) == 12
        assert h == fingerprint_hash(machine_fingerprint())
        other = dict(machine_fingerprint(), cpu_model="other-cpu")
        assert fingerprint_hash(other) != h


class TestProfileBucket:
    def test_shape_of_key(self):
        b = profile_bucket(_profile())
        parts = b.split("-")
        assert len(parts) == 5
        assert parts[0].startswith("a")
        assert parts[1] in ("uni", "mid", "wide")
        assert parts[2].startswith("d")
        assert parts[3] in ("tall", "square", "wide", "empty")
        assert parts[4].startswith("m")

    def test_nearby_profiles_share_a_bucket(self):
        a = profile_bucket(_profile(adim=8.0))
        b = profile_bucket(_profile(adim=8.4, nnz=8400))
        assert a == b

    def test_row_decade_splits_buckets(self):
        small = profile_bucket(_profile(m=80))
        large = profile_bucket(_profile(m=8000))
        assert small != large

    def test_variability_class_splits_buckets(self):
        uni = profile_bucket(_profile(vdim=0.0))
        wide = profile_bucket(_profile(vdim=400.0))
        assert uni != wide


class TestProfileFromLengths:
    def test_bucket_matches_full_profile(self):
        # The constructors' lengths-only profile must land in the same
        # bucket as the scheduler's full COO profile — that is the whole
        # point of the shortcut.
        rows, cols, _vals, shape = uniform_rows_matrix(300, 120, 8, seed=3)
        full = profile_from_coo(rows, cols, shape)
        lengths = np.bincount(rows, minlength=shape[0])
        assert profile_bucket(
            profile_from_lengths(lengths, shape)
        ) == profile_bucket(full)

    def test_moment_fields(self):
        lengths = np.array([2, 4, 6])
        p = profile_from_lengths(lengths, (3, 10))
        assert p.nnz == 12
        assert p.adim == 4.0
        assert p.mdim == 6
        assert p.density == 12 / 30

    def test_empty_matrix(self):
        p = profile_from_lengths(np.zeros(0, dtype=np.int64), (0, 5))
        assert p.nnz == 0
        assert p.density == 0.0
