"""Tests for RNG helpers and state serialization."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import child_rng, new_rng, spawn_rngs
from repro.utils.serialization import load_metadata, load_state, save_state


class TestRng:
    def test_new_rng_from_seed_is_deterministic(self):
        assert new_rng(5).integers(0, 100) == new_rng(5).integers(0, 100)

    def test_new_rng_passthrough(self):
        generator = np.random.default_rng(1)
        assert new_rng(generator) is generator

    def test_spawn_rngs_are_independent(self):
        rngs = spawn_rngs(0, 3)
        values = [r.integers(0, 10_000) for r in rngs]
        assert len(set(values)) > 1

    def test_child_rng_accepts_string_tags(self):
        parent = new_rng(0)
        child = child_rng(parent, "feature-factory")
        assert isinstance(child.integers(0, 10), (int, np.integer))


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        state = {"layer.weight": np.arange(6, dtype=float).reshape(2, 3), "layer.bias": np.zeros(3)}
        path = save_state(tmp_path / "model", state, metadata={"scenario": 3})
        assert path.exists()
        loaded = load_state(tmp_path / "model")
        np.testing.assert_allclose(loaded["layer.weight"], state["layer.weight"])
        assert load_metadata(tmp_path / "model")["scenario"] == 3

    def test_metadata_optional(self, tmp_path):
        save_state(tmp_path / "bare", {"w": np.ones(2)})
        assert load_metadata(tmp_path / "bare") == {}

    def test_explicit_npz_suffix(self, tmp_path):
        save_state(tmp_path / "explicit.npz", {"w": np.ones(2)})
        assert load_state(tmp_path / "explicit.npz")["w"].shape == (2,)
