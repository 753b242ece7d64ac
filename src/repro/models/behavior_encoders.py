"""Behaviour encoding modules (the right branch of Fig. 2).

Each encoder owns the token embedding table, consumes integer behaviour
sequences of shape (B, T) with a validity mask, and produces one vector per
sample.  The paper experiments with an LSTM-based and a BERT-based family
(Sec. V-A3: heavy = 6 layers, light = 3 layers, 15/32 hidden units); the NAS
encoder derived by the budget-limited search lives in
:mod:`repro.models.nas_encoder`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.attention import TransformerEncoder
from repro.nn.layers.basic import Dropout, Embedding, LayerNorm, PositionalEmbedding
from repro.nn.layers.pooling import AttentiveTimePool, MaskedMeanPool
from repro.nn.layers.recurrent import LSTM
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["BehaviorEncoder", "LSTMBehaviorEncoder", "BertBehaviorEncoder"]


class BehaviorEncoder(Module):
    """Base class: maps (sequences, mask) to a (B, embed_dim) representation."""

    def __init__(self, vocab_size: int, embed_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng)

    @property
    def output_dim(self) -> int:
        return self.embed_dim

    def embed(self, sequences: np.ndarray) -> Tensor:
        return self.embedding(np.asarray(sequences, dtype=np.int64))

    def forward(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        raise NotImplementedError

    def flops(self, seq_len: int) -> int:
        raise NotImplementedError


class LSTMBehaviorEncoder(BehaviorEncoder):
    """Stacked-LSTM behaviour encoder ("LSTM-based" models in Sec. V)."""

    def __init__(self, vocab_size: int, embed_dim: int = 16, num_layers: int = 6,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(vocab_size, embed_dim, rng=rng)
        self.num_layers = num_layers
        self.lstm = LSTM(embed_dim, embed_dim, num_layers=num_layers, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.pool = MaskedMeanPool()

    def forward(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        embedded = self.dropout(self.embed(sequences))
        outputs, _ = self.lstm(embedded)
        return self.pool(outputs, mask=mask)

    def infer(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        outputs, _ = self.lstm.infer(self.embedding.infer(sequences))
        return self.pool.infer(outputs, mask=mask)

    def flops(self, seq_len: int) -> int:
        lookup = seq_len * self.embed_dim
        return lookup + self.lstm.flops(seq_len) + seq_len * self.embed_dim


class BertBehaviorEncoder(BehaviorEncoder):
    """Transformer-encoder behaviour encoder ("BERT-based" models in Sec. V)."""

    def __init__(self, vocab_size: int, embed_dim: int = 16, num_layers: int = 6,
                 num_heads: int = 2, ff_dim: int = 32, max_seq_len: int = 128,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(vocab_size, embed_dim, rng=rng)
        self.num_layers = num_layers
        self.max_seq_len = max_seq_len
        self.positional = PositionalEmbedding(max_seq_len, embed_dim, rng=rng)
        self.input_norm = LayerNorm(embed_dim)
        self.encoder = TransformerEncoder(embed_dim, num_heads, ff_dim, num_layers,
                                          dropout=dropout, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.pool = AttentiveTimePool(embed_dim, rng=rng)

    def forward(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        embedded = self.embed(sequences)
        embedded = self.input_norm(self.positional(embedded))
        encoded = self.encoder(self.dropout(embedded), mask=mask)
        return self.pool(encoded, mask=mask)

    def infer(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        embedded = self.input_norm.infer(self.positional.infer(self.embedding.infer(sequences)))
        return self.pool.infer(self.encoder.infer(embedded, mask=mask), mask=mask)

    def flops(self, seq_len: int) -> int:
        lookup = 2 * seq_len * self.embed_dim
        return lookup + self.encoder.flops(seq_len) + self.pool.flops(seq_len)
