"""Candidate operations for the budget-limited NAS search space (Sec. III-D).

The paper's candidate set (implementation details, Sec. V-A3):

* 1-D standard convolutions with kernel sizes {1, 3, 5, 7},
* 1-D dilated convolutions with kernel sizes {3, 5, 7},
* 1-D average pooling and max pooling with kernel size 3,
* an LSTM layer,
* a multi-head self-attention layer.

Every operation maps a (B, T, C) sequence to a (B, T, C) sequence of the same
shape so layers can be freely wired in cascade or in parallel (Fig. 6), and
each has an analytical FLOPs cost used for the budget constraint of Eq. 4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SearchSpaceError
from repro.nn.layers.attention import MultiHeadSelfAttention
from repro.nn.layers.conv import AvgPool1d, Conv1d, MaxPool1d
from repro.nn.layers.recurrent import LSTM
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = [
    "SequenceOp",
    "DEFAULT_CANDIDATES",
    "available_operations",
    "build_operation",
    "operation_flops",
]

DEFAULT_CANDIDATES: List[str] = [
    "std_conv_1",
    "std_conv_3",
    "std_conv_5",
    "std_conv_7",
    "dil_conv_3",
    "dil_conv_5",
    "dil_conv_7",
    "avg_pool_3",
    "max_pool_3",
    "lstm",
    "self_att",
]


class SequenceOp(Module):
    """Wrapper giving every candidate op a uniform (x, mask) -> x interface."""

    def __init__(self, name: str, inner: Module, channels: int, accepts_mask: bool = False) -> None:
        super().__init__()
        self.name = name
        self.inner = inner
        self.channels = channels
        self.accepts_mask = accepts_mask

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if self.accepts_mask:
            return self.inner(x, mask=mask)
        if isinstance(self.inner, LSTM):
            outputs, _ = self.inner(x)
            return outputs
        return self.inner(x)

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        if self.accepts_mask:
            return self.inner.infer(x, mask=mask)
        if isinstance(self.inner, LSTM):
            outputs, _ = self.inner.infer(x)
            return outputs
        return self.inner.infer(x)

    def flops(self, seq_len: int) -> int:
        return operation_flops(self.name, seq_len, self.channels)

    def __repr__(self) -> str:
        return f"SequenceOp({self.name}, C={self.channels})"


def _conv_factory(kernel: int, dilation: int) -> Callable[[int, np.random.Generator], Module]:
    def build(channels: int, rng: np.random.Generator) -> Module:
        return Conv1d(channels, channels, kernel_size=kernel, dilation=dilation, rng=rng)

    return build


def _pool_factory(kind: str, kernel: int) -> Callable[[int, np.random.Generator], Module]:
    def build(channels: int, rng: np.random.Generator) -> Module:
        return AvgPool1d(kernel) if kind == "avg" else MaxPool1d(kernel)

    return build


def _lstm_factory(channels: int, rng: np.random.Generator) -> Module:
    return LSTM(channels, channels, num_layers=1, rng=rng)


def _attention_factory(channels: int, rng: np.random.Generator) -> Module:
    heads = 2 if channels % 2 == 0 else 1
    return MultiHeadSelfAttention(channels, num_heads=heads, rng=rng)


_FACTORIES: Dict[str, Callable[[int, np.random.Generator], Module]] = {
    "std_conv_1": _conv_factory(1, 1),
    "std_conv_3": _conv_factory(3, 1),
    "std_conv_5": _conv_factory(5, 1),
    "std_conv_7": _conv_factory(7, 1),
    "std_conv_9": _conv_factory(9, 1),
    "dil_conv_3": _conv_factory(3, 2),
    "dil_conv_5": _conv_factory(5, 2),
    "dil_conv_7": _conv_factory(7, 2),
    "dil_conv_9": _conv_factory(9, 2),
    "avg_pool_3": _pool_factory("avg", 3),
    "max_pool_3": _pool_factory("max", 3),
    "lstm": _lstm_factory,
    "self_att": _attention_factory,
}

_MASK_AWARE = {"self_att"}


def available_operations() -> List[str]:
    """All operation names that can be used in a search space."""
    return sorted(_FACTORIES)


def build_operation(name: str, channels: int,
                    rng: Optional[np.random.Generator] = None) -> SequenceOp:
    """Instantiate a candidate operation by name."""
    if name not in _FACTORIES:
        raise SearchSpaceError(f"unknown operation {name!r}; available: {available_operations()}")
    rng = rng if rng is not None else np.random.default_rng(0)
    inner = _FACTORIES[name](channels, rng)
    return SequenceOp(name, inner, channels, accepts_mask=name in _MASK_AWARE)


def operation_flops(name: str, seq_len: int, channels: int) -> int:
    """Analytical per-sample FLOPs of an operation applied to a (T, C) sequence."""
    if name not in _FACTORIES:
        raise SearchSpaceError(f"unknown operation {name!r}")
    if name.startswith("std_conv_") or name.startswith("dil_conv_"):
        kernel = int(name.rsplit("_", 1)[1])
        per_step = 2 * kernel * channels * channels + channels
        return per_step * seq_len
    if name in ("avg_pool_3", "max_pool_3"):
        return 3 * channels * seq_len
    if name == "lstm":
        per_step = 2 * (channels + channels) * 4 * channels + 10 * channels
        return per_step * seq_len
    if name == "self_att":
        projections = 4 * 2 * seq_len * channels * channels
        heads = 2 if channels % 2 == 0 else 1
        head_dim = channels // heads
        attention = 2 * 2 * heads * seq_len * seq_len * head_dim
        softmax = 3 * heads * seq_len * seq_len
        return projections + attention + softmax
    raise SearchSpaceError(f"no FLOPs model for operation {name!r}")


def validate_candidates(candidates: Sequence[str]) -> List[str]:
    """Validate a candidate list, raising :class:`SearchSpaceError` on unknown names."""
    unknown = [c for c in candidates if c not in _FACTORIES]
    if unknown:
        raise SearchSpaceError(f"unknown operations {unknown}; available: {available_operations()}")
    if not candidates:
        raise SearchSpaceError("candidate operation list must not be empty")
    return list(candidates)
