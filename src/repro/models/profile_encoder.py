"""Profile encoding module (the left branch of Fig. 2)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers.basic import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["ProfileEncoder"]


class ProfileEncoder(Module):
    """MLP that embeds the (relatively stable) user profile attributes.

    The paper fixes this module across all compared models (Sec. V-A3); its
    output dimensionality is the last entry of ``hidden_dims``.
    """

    def __init__(self, profile_dim: int, hidden_dims: Sequence[int] = (32, 16),
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer size")
        self.profile_dim = profile_dim
        self.output_dim = int(hidden_dims[-1])
        self.mlp = MLP([profile_dim, *hidden_dims], activation="relu", dropout=dropout,
                       final_activation=True, rng=rng)

    def _check(self, profiles) -> None:
        if profiles.shape[-1] != self.profile_dim:
            raise ValueError(
                f"expected profile vectors of dim {self.profile_dim}, got {profiles.shape[-1]}"
            )

    def forward(self, profiles: Tensor) -> Tensor:
        self._check(profiles)
        return self.mlp(profiles)

    def infer(self, profiles: np.ndarray) -> np.ndarray:
        self._check(profiles)
        return self.mlp.infer(profiles)

    def flops(self) -> int:
        """Per-sample FLOPs of the profile branch."""
        return self.mlp.flops(1)
