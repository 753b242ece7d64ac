"""Behaviour encoder built from a discrete NAS genotype (the searched light model)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.behavior_encoders import BehaviorEncoder
from repro.nas.genotype import Genotype
from repro.nas.operations import build_operation
from repro.nn.layers.pooling import AttentiveLayerSum
from repro.nn.module import ModuleList
from repro.nn.tensor import Tensor

__all__ = ["NASBehaviorEncoder"]


class NASBehaviorEncoder(BehaviorEncoder):
    """Instantiate the architecture described by a :class:`Genotype` (Fig. 9).

    Layer wiring follows the genotype: each layer reads one previous output
    (index 0 = embedded input sequence), applies its operation and adds the
    selected residual connections.  The final representation is the attentive
    sum of all layer outputs, mean-pooled over valid time steps.
    """

    def __init__(self, genotype: Genotype, vocab_size: int, embed_dim: int = 16,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(vocab_size, embed_dim, rng=rng)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.genotype = genotype
        self.ops = ModuleList([
            build_operation(gene.operation, embed_dim, rng=rng) for gene in genotype.layers
        ])
        self.output_pool = AttentiveLayerSum(embed_dim, genotype.num_layers, rng=rng)

    def forward(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        embedded = self.embed(sequences)
        outputs: List[Tensor] = [embedded]
        layer_outputs: List[Tensor] = []
        for gene, op in zip(self.genotype.layers, self.ops):
            layer_input = outputs[gene.input_index]
            out = op(layer_input, mask=mask)
            for residual in gene.residual_indices:
                out = out + outputs[residual]
            outputs.append(out)
            layer_outputs.append(out)
        return self.output_pool(layer_outputs, mask=mask)

    def infer(self, sequences: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        outputs: List[np.ndarray] = [self.embedding.infer(sequences)]
        for gene, op in zip(self.genotype.layers, self.ops):
            out = op.infer(outputs[gene.input_index], mask=mask)
            for residual in gene.residual_indices:
                out = out + outputs[residual]
            outputs.append(out)
        return self.output_pool.infer(outputs[1:], mask=mask)

    def flops(self, seq_len: int) -> int:
        lookup = seq_len * self.embed_dim
        return lookup + self.genotype.flops(seq_len, self.embed_dim)
