"""Multi-head self-attention and BERT-style transformer encoder layers."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.layers.basic import Dropout, GELU, LayerNorm, Linear
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor, masked_fill_forward, softmax_forward

__all__ = ["MultiHeadSelfAttention", "TransformerEncoderLayer", "TransformerEncoder"]


class MultiHeadSelfAttention(Module):
    """Scaled dot-product multi-head self-attention over (B, T, D) inputs.

    ``mask`` (if given) is a boolean/0-1 array of shape (B, T) where 1 marks a
    valid position; padded positions receive ~-inf attention scores.
    """

    def __init__(self, dim: int, num_heads: int = 1, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x, batch: int, seq_len: int):
        """(B, T, D) -> (B, H, T, head_dim), for a Tensor or an ndarray."""
        return x.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    @staticmethod
    def _padded(mask: np.ndarray, shape) -> np.ndarray:
        """``mask`` (B, T) as the (B, H, T, T) score positions that are padded."""
        invalid = ~np.asarray(mask, dtype=bool)  # (B, T), True where padded
        invalid = invalid[:, None, None, :]  # broadcast over heads and query positions
        return np.broadcast_to(invalid, shape)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        batch, seq_len, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq_len)
        k = self._split_heads(self.key(x), batch, seq_len)
        v = self._split_heads(self.value(x), batch, seq_len)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = scores.masked_fill(self._padded(mask, scores.shape), -1e9)
        attn = scores.softmax(axis=-1)
        attn = self.dropout(attn)
        context = attn @ v  # (B, H, T, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.dim)
        return self.out(context)

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        batch, seq_len, _ = x.shape
        q = self._split_heads(self.query.infer(x), batch, seq_len)
        k = self._split_heads(self.key.infer(x), batch, seq_len)
        v = self._split_heads(self.value.infer(x), batch, seq_len)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = masked_fill_forward(scores, self._padded(mask, scores.shape), -1e9)
        context = softmax_forward(scores, -1)[0] @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.dim)
        return self.out.infer(context)

    def flops(self, seq_len: int) -> int:
        """FLOPs for one sequence of length ``seq_len``."""
        projections = 4 * 2 * seq_len * self.dim * self.dim
        attention = 2 * 2 * self.num_heads * seq_len * seq_len * self.head_dim
        softmax = 3 * self.num_heads * seq_len * seq_len
        return projections + attention + softmax


class TransformerEncoderLayer(Module):
    """Post-norm transformer encoder block (self-attention + position-wise FFN)."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.ff_dim = ff_dim
        self.attention = MultiHeadSelfAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff_act = GELU()
        self.ff2 = Linear(ff_dim, dim, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(x, mask=mask)
        x = self.norm1(x + self.dropout(attended))
        ff = self.ff2(self.ff_act(self.ff1(x)))
        return self.norm2(x + self.dropout(ff))

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        x = self.norm1.infer(x + self.attention.infer(x, mask=mask))
        ff = self.ff2.infer(self.ff_act.infer(self.ff1.infer(x)))
        return self.norm2.infer(x + ff)

    def flops(self, seq_len: int) -> int:
        attention = self.attention.flops(seq_len)
        ffn = 2 * 2 * seq_len * self.dim * self.ff_dim
        norms = 2 * 5 * seq_len * self.dim
        return attention + ffn + norms


class TransformerEncoder(Module):
    """A stack of transformer encoder layers (the 'BERT-based' behaviour encoder)."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int, num_layers: int,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: List[TransformerEncoderLayer] = [
            TransformerEncoderLayer(dim, num_heads, ff_dim, dropout=dropout, rng=rng)
            for _ in range(num_layers)
        ]
        self.layers = ModuleList(layers)
        self.num_layers = num_layers

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask)
        return x

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer(x, mask=mask)
        return x

    def flops(self, seq_len: int) -> int:
        return sum(layer.flops(seq_len) for layer in self.layers)
