"""Op-graph references for the layers that run as one autograd node.

Each function here builds the graph of small ``Tensor`` ops that the layer
used before it was fused: SAME padding and window unfolding, matmul plus
bias, the max-shifted softmax, the relu/mul/abs BCE graph and the stacked
attentive layer sum.  The fused layers must match these bitwise, forward
and backward; :func:`install` swaps them in so a whole pipeline can run on
the references.
"""

from __future__ import annotations

import sys
from typing import List, Optional

import numpy as np

from repro.nn import losses
from repro.nn.layers.basic import Linear
from repro.nn.layers.conv import AvgPool1d, Conv1d, MaxPool1d, _same_padding
from repro.nn.layers.pooling import AttentiveLayerSum
from repro.nn.tensor import Tensor, stack


def pad1d(x: Tensor, left: int, right: int, axis: int = 1) -> Tensor:
    """Zero-pad along ``axis`` (used by SAME-padded temporal convolutions)."""
    pad_width = [(0, 0)] * x.data.ndim
    pad_width[axis] = (left, right)
    out = x._make(np.pad(x.data, pad_width), (x,), "pad1d")
    slicer = [slice(None)] * x.data.ndim
    slicer[axis] = slice(left, left + x.data.shape[axis])
    slicer = tuple(slicer)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad[slicer])

    if out.requires_grad:
        out._backward = _backward
    return out


def unfold(x: Tensor, size: int, step: int = 1, axis: int = 1) -> Tensor:
    """Extract sliding windows of ``size`` along ``axis``.

    For an input of shape ``(..., L, ...)`` the output has shape
    ``(..., L', size, ...)`` where ``L' = (L - size) // step + 1`` and the
    window dimension is inserted right after ``axis``.
    """
    length = x.data.shape[axis]
    n_windows = (length - size) // step + 1
    idx = np.arange(size)[None, :] + step * np.arange(n_windows)[:, None]
    gathered = np.take(x.data, idx.reshape(-1), axis=axis)
    new_shape = list(x.data.shape)
    new_shape[axis: axis + 1] = [n_windows, size]
    out = x._make(gathered.reshape(new_shape), (x,), "unfold")

    def _backward() -> None:
        if not x.requires_grad:
            return
        grad = np.zeros_like(x.data)
        flat = out.grad.reshape(
            x.data.shape[:axis] + (n_windows * size,) + x.data.shape[axis + 1:]
        )
        # Scatter-add each window position back into the source.
        moved_grad = np.moveaxis(grad, axis, 0)
        moved_flat = np.moveaxis(flat, axis, 0)
        np.add.at(moved_grad, idx.reshape(-1), moved_flat)
        x._accumulate(np.moveaxis(moved_grad, 0, axis))

    if out.requires_grad:
        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def linear_forward(layer: Linear, x: Tensor) -> Tensor:
    out = x @ layer.weight
    if layer.use_bias:
        out = out + layer.bias
    return out


def conv1d_forward(layer: Conv1d, x: Tensor) -> Tensor:
    batch, seq_len, channels = x.shape
    if channels != layer.in_channels:
        raise ValueError(f"expected {layer.in_channels} channels, got {channels}")
    if layer.kernel_size == 1:
        return linear_forward(layer, x)
    left, right = _same_padding(layer.kernel_size, layer.dilation)
    padded = pad1d(x, left, right, axis=1)
    if layer.dilation == 1:
        windows = unfold(padded, layer.kernel_size, step=1, axis=1)
    else:
        # Build dilated windows by unfolding with the dilated span and
        # selecting every ``dilation``-th element inside each window.
        span = layer.dilation * (layer.kernel_size - 1) + 1
        windows = unfold(padded, span, step=1, axis=1)
        windows = windows[:, :, :: layer.dilation, :]
    # windows: (B, T, K, C) -> (B, T, K*C)
    flat = windows.reshape(batch, seq_len, layer.kernel_size * layer.in_channels)
    out = flat @ layer.weight
    if layer.use_bias:
        out = out + layer.bias
    return out


def avg_pool_forward(layer: AvgPool1d, x: Tensor) -> Tensor:
    left, right = _same_padding(layer.kernel_size, 1)
    windows = unfold(pad1d(x, left, right, axis=1), layer.kernel_size, step=1, axis=1)
    return windows.mean(axis=2)


def max_pool_forward(layer: MaxPool1d, x: Tensor) -> Tensor:
    left, right = _same_padding(layer.kernel_size, 1)
    windows = unfold(pad1d(x, left, right, axis=1), layer.kernel_size, step=1, axis=1)
    return windows.max(axis=2)


def attentive_layer_sum_forward(layer: AttentiveLayerSum, layer_outputs: List[Tensor],
                                mask: Optional[np.ndarray] = None) -> Tensor:
    if not layer_outputs:
        raise ValueError("AttentiveLayerSum requires at least one layer output")
    # (L, B, T, D) -> layer summaries (L, B, D) -> scores (L, B, 1)
    stacked = stack(layer_outputs, axis=0)
    summaries = stacked.mean(axis=2)
    scores = linear_forward(layer.score, summaries)  # (L, B, 1)
    weights = softmax(scores, axis=0)
    weighted = stacked * weights.reshape(len(layer_outputs), -1, 1, 1)
    combined = weighted.sum(axis=0)  # (B, T, D)
    if mask is None:
        return combined.mean(axis=1)
    mask_arr = np.asarray(mask, dtype=np.float64)
    counts = Tensor(np.maximum(mask_arr.sum(axis=1, keepdims=True), 1.0))
    return (combined * Tensor(mask_arr[:, :, None])).sum(axis=1) / counts


def binary_cross_entropy_with_logits(logits: Tensor, targets,
                                     sample_weight: Optional[np.ndarray] = None) -> Tensor:
    targets_t = losses._as_tensor(targets)
    if targets_t.shape != logits.shape:
        targets_t = targets_t.reshape(logits.shape)
    relu_z = logits.relu()
    abs_z = logits.abs()
    loss = relu_z - logits * targets_t + ((abs_z * -1.0).exp() + 1.0).log()
    if sample_weight is not None:
        loss = loss * Tensor(np.asarray(sample_weight, dtype=np.float64).reshape(loss.shape))
    return loss.mean()


def soft_binary_cross_entropy(logits: Tensor, soft_targets: Tensor) -> Tensor:
    probs_target = losses._as_tensor(soft_targets)
    if probs_target.shape != logits.shape:
        probs_target = probs_target.reshape(logits.shape)
    relu_z = logits.relu()
    abs_z = logits.abs()
    loss = relu_z - logits * probs_target + ((abs_z * -1.0).exp() + 1.0).log()
    return loss.mean()


def install(monkeypatch) -> None:
    """Run every fused layer, softmax and BCE loss through its reference.

    The losses are replaced in every loaded ``repro`` module that imported
    them by name, as well as in :mod:`repro.nn.losses` itself.
    """
    monkeypatch.setattr(Tensor, "softmax", softmax)
    monkeypatch.setattr(Linear, "forward", linear_forward)
    monkeypatch.setattr(Conv1d, "forward", conv1d_forward)
    monkeypatch.setattr(AvgPool1d, "forward", avg_pool_forward)
    monkeypatch.setattr(MaxPool1d, "forward", max_pool_forward)
    monkeypatch.setattr(AttentiveLayerSum, "forward", attentive_layer_sum_forward)
    references = [
        (losses.binary_cross_entropy_with_logits, binary_cross_entropy_with_logits),
        (losses.soft_binary_cross_entropy, soft_binary_cross_entropy),
    ]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            for fused, reference in references:
                if value is fused:
                    monkeypatch.setattr(module, attr, reference)
