"""Knob catalogue tests: validity bounds, defaults, determinism."""

import pytest

from repro.features.profile import DatasetProfile
from repro.formats.sell import DEFAULT_CHUNK
from repro.tune.space import (
    KNOB_FAMILIES,
    KNOBS,
    Knob,
    knob_for,
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


class TestKnob:
    def test_default_must_be_candidate(self):
        with pytest.raises(ValueError, match="default"):
            Knob(family="f", name="k", values=(1, 2), default=3)

    def test_candidates_respect_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            Knob(family="f", name="k", values=(0, 2), default=2, lo=1)

    def test_needs_values(self):
        with pytest.raises(ValueError, match="candidate values"):
            Knob(family="f", name="k", values=(), default=0)

    def test_profile_conditioned_default(self):
        k = Knob(
            family="f",
            name="k",
            values=(1, 2, 4),
            default=1,
            default_for=lambda p: 4 if p.m > 100 else 1,
        )
        assert k.default_value() == 1
        assert k.default_value(_profile(m=1000)) == 4
        assert k.default_value(_profile(m=10)) == 1

    def test_conditioned_default_outside_values_falls_back(self):
        k = Knob(
            family="f", name="k", values=(1, 2), default=1,
            default_for=lambda p: 99,
        )
        assert k.default_value(_profile()) == 1


class TestSearchSpace:
    """A family's search space is its knob's candidate values."""

    def test_validate_roundtrip(self):
        knob = knob_for("sell_chunk")
        assert knob.validate({"chunk": 8}) == {"chunk": 8}

    def test_validate_rejects_missing_and_illegal(self):
        knob = knob_for("sell_chunk")
        with pytest.raises(ValueError, match="missing"):
            knob.validate({})
        with pytest.raises(ValueError, match="not a"):
            knob.validate({"chunk": 3})


class TestCatalogue:
    def test_every_family_registered(self):
        assert KNOB_FAMILIES == ("sell_chunk", "sigma", "row_cache_mb")
        assert set(KNOB_FAMILIES) == set(KNOBS)
        for family, knob in KNOBS.items():
            assert knob.family == family

    def test_format_family_is_not_a_knob_family(self):
        # The storage format is the scheduler's decision, never a
        # tuned entry.
        assert "format" not in KNOBS

    def test_sell_chunk_default_matches_builder(self):
        assert knob_for("sell_chunk").default_value() == DEFAULT_CHUNK

    def test_sigma_profile_conditioning(self):
        knob = knob_for("sigma")
        uniform = _profile(vdim=0.0)  # cv_dim = 0
        assert knob.default_value(uniform) == 64
        skewed = _profile(vdim=400.0)  # cv_dim >> 0.25
        assert knob.default_value(skewed) == 0

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown knob family"):
            knob_for("nope")
