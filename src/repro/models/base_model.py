"""The ALT model family: profile branch + behaviour branch + prediction head (Fig. 2)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.data import Batch
from repro.nn.layers.basic import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate
from repro.models.behavior_encoders import BehaviorEncoder
from repro.models.profile_encoder import ProfileEncoder

__all__ = ["ALTModel", "BasicProfileModel"]


class _LogitModel(Module):
    """A model whose ``forward`` scores a batch with one logit per row."""

    def predict_logits(self, batch: Batch) -> np.ndarray:
        """Eval-mode logits as a fresh numpy array the caller owns.

        This is :meth:`infer`: the numpy arithmetic of an eval-mode
        ``forward``, bitwise equal to it, with no Tensor, no graph and no
        change to the model's train/eval mode.
        """
        return self.infer(batch)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Inference-mode default/click probabilities."""
        logits = self.predict_logits(batch)
        return 1.0 / (1.0 + np.exp(-logits))


class ALTModel(_LogitModel):
    """Profile encoder + behaviour encoder + prediction MLP, producing one logit.

    This is the shared skeleton of every compared model in Sec. V (SinH / MeH /
    MeL / Ours); only the behaviour encoder differs between the heavy,
    pre-defined light and NAS-searched variants.
    """

    def __init__(self, profile_encoder: ProfileEncoder, behavior_encoder: BehaviorEncoder,
                 head_hidden: tuple = (16,), dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.profile_encoder = profile_encoder
        self.behavior_encoder = behavior_encoder
        joint_dim = profile_encoder.output_dim + behavior_encoder.output_dim
        self.head = MLP([joint_dim, *head_hidden, 1], activation="relu", dropout=dropout, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        profile_vec = self.profile_encoder(Tensor(batch.profiles))
        behavior_vec = self.behavior_encoder(batch.sequences, mask=batch.mask)
        joint = concatenate([profile_vec, behavior_vec], axis=1)
        logits = self.head(joint)
        return logits.reshape(len(batch))

    def infer(self, batch: Batch) -> np.ndarray:
        profile_vec = self.profile_encoder.infer(np.asarray(batch.profiles, dtype=np.float64))
        behavior_vec = self.behavior_encoder.infer(batch.sequences, mask=batch.mask)
        logits = self.head.infer(np.concatenate([profile_vec, behavior_vec], axis=1))
        return logits.reshape(len(batch))

    def flops(self, seq_len: int) -> int:
        """Analytical per-sample inference FLOPs (the budget quantity of Eq. 4)."""
        profile = self.profile_encoder.flops()
        behavior = self.behavior_encoder.flops(seq_len)
        head = self.head.flops(1)
        return int(profile + behavior + head)


class BasicProfileModel(_LogitModel):
    """Profile-only baseline ("Basic" in Fig. 10 / Table VII): no behaviour sequence."""

    def __init__(self, profile_encoder: ProfileEncoder, head_hidden: tuple = (16,),
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.profile_encoder = profile_encoder
        self.head = MLP([profile_encoder.output_dim, *head_hidden, 1],
                        activation="relu", dropout=dropout, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        profile_vec = self.profile_encoder(Tensor(batch.profiles))
        logits = self.head(profile_vec)
        return logits.reshape(len(batch))

    def infer(self, batch: Batch) -> np.ndarray:
        profile_vec = self.profile_encoder.infer(np.asarray(batch.profiles, dtype=np.float64))
        return self.head.infer(profile_vec).reshape(len(batch))

    def flops(self, seq_len: int = 0) -> int:
        return int(self.profile_encoder.flops() + self.head.flops(1))
