"""Shared utilities: deterministic RNG handling and serialization."""

from repro.utils.rng import child_rng, new_rng, spawn_rngs
from repro.utils.serialization import load_json, load_state, save_json, save_state

__all__ = [
    "new_rng",
    "child_rng",
    "spawn_rngs",
    "save_state",
    "load_state",
    "save_json",
    "load_json",
]
