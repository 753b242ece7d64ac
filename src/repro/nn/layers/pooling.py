"""Pooling modules that reduce sequences or layer stacks to a single vector."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers.basic import Linear, affine_backward
from repro.nn.module import Module
from repro.nn.tensor import (Tensor, _sum_to_shape, masked_fill_forward, softmax_backward,
                              softmax_forward)

__all__ = ["MaskedMeanPool", "LastStepPool", "AttentiveLayerSum", "AttentiveTimePool"]


class MaskedMeanPool(Module):
    """Average a (B, T, D) sequence over time, ignoring padded positions."""

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if mask is None:
            return x.mean(axis=1)
        mask = np.asarray(mask, dtype=np.float64)
        weights = Tensor(mask[:, :, None])
        counts = Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        return (x * weights).sum(axis=1) / counts

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        if mask is None:
            return x.sum(axis=1) * (1.0 / x.shape[1])  # Tensor.mean
        mask = np.asarray(mask, dtype=np.float64)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        return (x * mask[:, :, None]).sum(axis=1) / counts


class LastStepPool(Module):
    """Take the representation of the last valid time step."""

    @staticmethod
    def _index(mask: Optional[np.ndarray], batch: int) -> tuple:
        if mask is None:
            return (slice(None), -1, slice(None))
        mask = np.asarray(mask, dtype=np.float64)
        last = np.maximum(mask.sum(axis=1).astype(np.int64) - 1, 0)
        return (np.arange(batch), last, slice(None))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        return x[self._index(mask, x.shape[0])]

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        return x[self._index(mask, x.shape[0])]


class AttentiveTimePool(Module):
    """Attention pooling over time with a learned query vector."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.score = Linear(dim, 1, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        scores = self.score(x)  # (B, T, 1)
        if mask is not None:
            invalid = ~np.asarray(mask, dtype=bool)
            scores = scores.masked_fill(invalid[:, :, None], -1e9)
        weights = scores.softmax(axis=1)
        return (x * weights).sum(axis=1)

    def infer(self, x: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        scores = self.score.infer(x)
        if mask is not None:
            invalid = ~np.asarray(mask, dtype=bool)
            scores = masked_fill_forward(scores, invalid[:, :, None], -1e9)
        return (x * softmax_forward(scores, 1)[0]).sum(axis=1)

    def flops(self, seq_len: int) -> int:
        return self.score.flops(seq_len) + 4 * seq_len


class AttentiveLayerSum(Module):
    """Sum the outputs of all searched layers attentively (Fig. 6, final output).

    Each layer output of shape (B, T, D) gets a learned scalar weight; the
    weighted layer outputs are summed and then mean-pooled over time.  The
    whole sum is one autograd node over the layer outputs and the
    ``score`` layer's parameters.
    """

    def __init__(self, dim: int, num_layers: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_layers = num_layers
        self.score = Linear(dim, 1, rng=rng)

    def _combine(self, layer_outputs: List[np.ndarray], mask: Optional[np.ndarray]
                 ) -> Tuple[np.ndarray, tuple]:
        """The pooled (B, D) output and the intermediates its backward reads."""
        if not layer_outputs:
            raise ValueError("AttentiveLayerSum requires at least one layer output")
        # (L, B, T, D) -> layer summaries (L, B, D) -> scores (L, B, 1)
        stacked = np.stack(layer_outputs)
        n_layers, _, steps, _ = stacked.shape
        summaries = stacked.sum(axis=2) * (1.0 / steps)
        weights, exp, den = softmax_forward(
            summaries @ self.score.weight.data + self.score.bias.data, 0)
        scale = weights.reshape(n_layers, -1, 1, 1)
        combined = (stacked * scale).sum(axis=0)  # (B, T, D)
        valid = counts = None
        if mask is None:
            data = combined.sum(axis=1) * (1.0 / steps)
        else:
            mask_arr = np.asarray(mask, dtype=np.float64)
            valid = mask_arr[:, :, None]
            counts = np.maximum(mask_arr.sum(axis=1, keepdims=True), 1.0)
            data = (combined * valid).sum(axis=1) / counts
        return data, (stacked, summaries, weights, exp, den, scale, combined, valid, counts)

    def forward(self, layer_outputs: List[Tensor], mask: Optional[np.ndarray] = None) -> Tensor:
        weight, bias = self.score.weight, self.score.bias
        data, saved = self._combine([t.data for t in layer_outputs], mask)
        stacked, summaries, weights, exp, den, scale, combined, valid, counts = saved
        steps = stacked.shape[2]
        out = layer_outputs[0]._make(data, (*layer_outputs, weight, bias), "attentive_layer_sum")

        def _backward() -> None:
            # The op graph's arithmetic, node by node from the output back.
            if mask is None:
                d_combined = np.expand_dims(out.grad * (1.0 / steps), 1)
            else:
                d_combined = np.expand_dims(out.grad / counts, 1) * valid
            d_combined = np.broadcast_to(d_combined, combined.shape)
            d_scale = _sum_to_shape(d_combined * stacked, scale.shape)
            d_scores = softmax_backward(d_scale.reshape(weights.shape), exp, den)
            need_inputs = any(t.requires_grad for t in layer_outputs)
            d_summaries = affine_backward(d_scores, summaries, weight, bias, need_inputs)
            if not need_inputs:
                return
            # The stacked outputs: the weighted-sum term, then the mean term.
            d_stacked = d_combined * scale + np.broadcast_to(
                np.expand_dims(d_summaries * (1.0 / steps), 2), stacked.shape)
            for i, tensor in enumerate(layer_outputs):
                if tensor.requires_grad:
                    tensor._accumulate(d_stacked[i])

        if out.requires_grad:
            out._backward = _backward
        return out

    def infer(self, layer_outputs: List[np.ndarray], mask: Optional[np.ndarray] = None
              ) -> np.ndarray:
        return self._combine(layer_outputs, mask)[0]

    def flops(self, seq_len: int, dim: int) -> int:
        per_layer = seq_len * dim + self.score.flops(1)
        return self.num_layers * per_layer + self.num_layers * seq_len * dim
