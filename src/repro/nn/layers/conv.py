"""Temporal (1-D) convolution and pooling layers.

All layers operate on sequences laid out as ``(batch, time, channels)`` —
the layout used by the behaviour encoders and the NAS search space (Sec.
III-D of the paper).  Convolutions use SAME padding with stride 1 so the
output length always matches the input length, exactly as the paper requires
for stacking searched layers.

Each layer is one autograd node.  The forward zero-pads the input into a
fresh array and reads its K shifted windows; the backward adds each
window's gradient back into a zeroed padded buffer, offsets in descending
order (the order in which a scatter-add over unfolded windows adds into a
position), so every sum rounds the same way.  ``infer`` runs the same
padding, window reads and matmul on an ndarray.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init as initializers
from repro.nn.layers.basic import affine, affine_forward
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Conv1d", "AvgPool1d", "MaxPool1d"]


def _same_padding(kernel_size: int, dilation: int) -> tuple[int, int]:
    """Left/right zero padding that keeps the sequence length unchanged."""
    span = dilation * (kernel_size - 1)
    left = span // 2
    right = span - left
    return left, right


def _pad(data: np.ndarray, left: int, right: int) -> np.ndarray:
    """``data`` (B, T, C) with ``left``/``right`` zero steps around its time axis."""
    batch, length, channels = data.shape
    padded = np.zeros((batch, left + length + right, channels))
    padded[:, left:left + length] = data
    return padded


def _fold_windows(window_grads: List[np.ndarray], dilation: int, left: int,
                  shape: Tuple[int, int, int]) -> np.ndarray:
    """Gradient wrt the (B, T, C) input of its SAME-padded windows.

    ``window_grads[k]`` is the gradient of the window slice at offset ``k``
    (padded steps ``k * dilation`` onwards).  The padding's share is dropped.
    """
    batch, length, channels = shape
    span = dilation * (len(window_grads) - 1)
    grad = np.zeros((batch, length + span, channels))
    for offset in reversed(range(len(window_grads))):
        start = offset * dilation
        grad[:, start:start + length] += window_grads[offset]
    return grad[:, left:left + length]


class Conv1d(Module):
    """SAME-padded 1-D convolution (standard or dilated) over (B, T, C) inputs.

    With ``kernel_size=1`` this is equivalent to a position-wise linear layer,
    matching the note in the paper's search-space description.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if dilation < 1:
            raise ValueError("dilation must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.use_bias = bias
        # Weight layout: (kernel_size * in_channels, out_channels) so the
        # convolution reduces to a window gather + matmul.
        self.weight = Parameter(
            initializers.kaiming_uniform((kernel_size * in_channels, out_channels), rng)
        )
        if bias:
            self.bias = Parameter(np.zeros(out_channels))

    def _rows(self, data: np.ndarray) -> np.ndarray:
        """The matmul operand for a (B, T, C) input: the input itself for
        kernel 1, else row t holds the K dilated steps of window t (B, T, K*C)."""
        batch, seq_len, channels = data.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        kernel, dilation = self.kernel_size, self.dilation
        if kernel == 1:
            return data
        taps = np.arange(seq_len)[:, None] + dilation * np.arange(kernel)
        rows = np.take(_pad(data, *_same_padding(kernel, dilation)), taps.reshape(-1), axis=1)
        return rows.reshape(batch, seq_len, kernel * channels)

    def forward(self, x: Tensor) -> Tensor:
        rows = self._rows(x.data)
        bias = self.bias if self.use_bias else None
        if self.kernel_size == 1:
            return affine(x, self.weight, bias)
        kernel, dilation = self.kernel_size, self.dilation
        left = _same_padding(kernel, dilation)[0]

        def fold(grad: np.ndarray) -> np.ndarray:
            windows = grad.reshape(*x.shape[:2], kernel, self.in_channels)
            return _fold_windows([windows[:, :, k] for k in range(kernel)], dilation,
                                 left, x.shape)

        return affine(x, self.weight, bias, rows, fold)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return affine_forward(self._rows(x), self.weight.data,
                              self.bias.data if self.use_bias else None)

    def flops(self, seq_len: int) -> int:
        """FLOPs for one sequence of length ``seq_len`` (multiply-adds counted as 2)."""
        per_step = 2 * self.kernel_size * self.in_channels * self.out_channels
        if self.use_bias:
            per_step += self.out_channels
        return per_step * seq_len

    def __repr__(self) -> str:
        kind = "dil_conv" if self.dilation > 1 else "std_conv"
        return f"Conv1d[{kind}](C_in={self.in_channels}, C_out={self.out_channels}, k={self.kernel_size}, d={self.dilation})"


class AvgPool1d(Module):
    """SAME-padded average pooling with stride 1 over (B, T, C) inputs."""

    def __init__(self, kernel_size: int = 3) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size

    def _pool(self, data: np.ndarray) -> np.ndarray:
        kernel, length = self.kernel_size, data.shape[1]
        padded = _pad(data, *_same_padding(kernel, 1))
        # numpy's sum over a window axis starts from +0.0 (a window of -0.0
        # sums to +0.0), so this one does too.
        total = 0.0
        for k in range(kernel):
            total = total + padded[:, k:k + length]
        return total * (1.0 / kernel)

    def forward(self, x: Tensor) -> Tensor:
        kernel = self.kernel_size
        out = x._make(self._pool(x.data), (x,), "avg_pool1d")

        def _backward() -> None:
            share = out.grad * (1.0 / kernel)
            x._accumulate(_fold_windows([share] * kernel, 1, _same_padding(kernel, 1)[0],
                                        x.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self._pool(x)

    def flops(self, seq_len: int, channels: int) -> int:
        return self.kernel_size * channels * seq_len

    def __repr__(self) -> str:
        return f"AvgPool1d(k={self.kernel_size})"


class MaxPool1d(Module):
    """SAME-padded max pooling with stride 1 over (B, T, C) inputs."""

    def __init__(self, kernel_size: int = 3) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size

    def _pool(self, data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pooled (B, T, C) values and the padded input they were read from."""
        kernel, length = self.kernel_size, data.shape[1]
        padded = _pad(data, *_same_padding(kernel, 1))
        peak = padded[:, 0:length]
        for k in range(1, kernel):
            peak = np.maximum(peak, padded[:, k:k + length])
        return peak, padded

    def forward(self, x: Tensor) -> Tensor:
        kernel, length = self.kernel_size, x.shape[1]
        peak, padded = self._pool(x.data)
        out = x._make(peak, (x,), "max_pool1d")

        def _backward() -> None:
            # Ties share the gradient equally; a padded zero that wins keeps
            # its share, which is dropped with the padding.
            wins = [padded[:, k:k + length] == out.data for k in range(kernel)]
            counts = np.sum(wins, axis=0)
            x._accumulate(_fold_windows([win * out.grad / counts for win in wins], 1,
                                        _same_padding(kernel, 1)[0], x.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self._pool(x)[0]

    def flops(self, seq_len: int, channels: int) -> int:
        return self.kernel_size * channels * seq_len

    def __repr__(self) -> str:
        return f"MaxPool1d(k={self.kernel_size})"
