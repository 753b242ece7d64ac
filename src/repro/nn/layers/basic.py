"""Dense, embedding, normalisation and activation layers."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.nn import init as initializers
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.tensor import Tensor

__all__ = [
    "Linear",
    "Embedding",
    "PositionalEmbedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MLP",
]


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(0)


def affine_backward(grad: np.ndarray, rows: np.ndarray, weight: Tensor,
                    bias: Optional[Tensor], need_rows: bool) -> Optional[np.ndarray]:
    """Backward of ``rows @ weight + bias``: accumulate the weight and bias
    gradients and return the gradient wrt ``rows`` (``None`` unless
    ``need_rows``).

    These are the numpy calls of a matmul node followed by a bias-add node,
    so the result is bitwise that of the op graph: the bias gets ``grad``
    summed to its shape, and the matmul sees a C-contiguous copy of
    ``grad``, as the add node's ``_accumulate`` hands it on.
    """
    if bias is not None:
        if bias.requires_grad:
            bias._accumulate(grad)
        grad = np.ascontiguousarray(grad)
    if weight.requires_grad:
        if rows.ndim == 1:
            weight._accumulate(np.outer(rows, grad))
        else:
            weight._accumulate(np.swapaxes(rows, -1, -2) @ grad)
    return grad @ np.swapaxes(weight.data, -1, -2) if need_rows else None


def affine_forward(rows: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray] = None) -> np.ndarray:
    """``rows @ weight + bias`` on arrays: the data path of :func:`affine`."""
    data = rows @ weight
    if bias is not None:
        data = data + bias
    return data


def affine(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           rows: Optional[np.ndarray] = None,
           fold: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> Tensor:
    """``rows @ weight + bias`` as one autograd node over ``x``, ``weight``
    and ``bias``.

    ``rows`` defaults to ``x.data``.  A layer that multiplies an array built
    from ``x`` (a convolution's windows) passes it as ``rows`` together with
    ``fold``, which maps the gradient wrt ``rows`` onto ``x``.
    """
    rows = x.data if rows is None else rows
    data = affine_forward(rows, weight.data, None if bias is None else bias.data)
    out = x._make(data, (x, weight) if bias is None else (x, weight, bias), "affine")

    def _backward() -> None:
        grad = affine_backward(out.grad, rows, weight, bias, x.requires_grad)
        if grad is not None:
            x._accumulate(grad if fold is None else fold(grad))

    if out.requires_grad:
        out._backward = _backward
    return out


class Linear(Module):
    """Affine transform ``y = x W + b`` over the last dimension."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializers.xavier_uniform((in_features, out_features), rng))
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias if self.use_bias else None)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return affine_forward(x, self.weight.data, self.bias.data if self.use_bias else None)

    def flops(self, batch_elements: int = 1) -> int:
        """Multiply-add count for ``batch_elements`` rows."""
        per_row = 2 * self.in_features * self.out_features
        if self.use_bias:
            per_row += self.out_features
        return per_row * batch_elements

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.use_bias})"


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(initializers.normal((num_embeddings, embedding_dim), rng))

    def _checked(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.min() < 0 or token_ids.max() >= self.num_embeddings:
            raise ValueError(
                f"token ids must lie in [0, {self.num_embeddings}); "
                f"got range [{token_ids.min()}, {token_ids.max()}]"
            )
        return token_ids

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.weight.take_rows(self._checked(token_ids))

    def infer(self, token_ids: np.ndarray) -> np.ndarray:
        return self.weight.data[self._checked(token_ids)]

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class PositionalEmbedding(Module):
    """Learned positional embeddings added to a sequence of shape (B, T, D)."""

    def __init__(self, max_len: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = _default_rng(rng)
        self.max_len = max_len
        self.weight = Parameter(initializers.normal((max_len, embedding_dim), rng))

    def _positions(self, seq_len: int) -> np.ndarray:
        if seq_len > self.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {self.max_len}")
        return np.arange(seq_len)

    def forward(self, x: Tensor) -> Tensor:
        seq_len = x.shape[1]
        positions = self.weight.take_rows(self._positions(seq_len))
        return x + positions.reshape(1, seq_len, -1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1]
        positions = self.weight.data[self._positions(seq_len)]
        return x + positions.reshape(1, seq_len, -1)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / ((variance + self.eps) ** 0.5)
        return normalized * self.gamma + self.beta

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Tensor.mean is a sum times the reciprocal of the count.
        scale = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * scale
        centered = x - mean
        variance = (centered * centered).sum(axis=-1, keepdims=True) * scale
        normalized = centered / ((variance + self.eps) ** 0.5)
        return normalized * self.gamma.data + self.beta.data


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p).astype(np.float64) / (1.0 - self.p)
        return x * Tensor(mask)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    def forward(self, x: Tensor) -> Tensor:
        inner = (x + (x ** 3) * 0.044715) * 0.7978845608028654
        return x * 0.5 * (inner.tanh() + 1.0)

    def infer(self, x: np.ndarray) -> np.ndarray:
        inner = (x + (x ** 3) * 0.044715) * 0.7978845608028654
        return x * 0.5 * (np.tanh(inner) + 1.0)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x


class MLP(Module):
    """Multi-layer perceptron used by the profile encoder and prediction head (Fig. 2)."""

    def __init__(self, dims: Sequence[int], activation: str = "relu", dropout: float = 0.0,
                 final_activation: bool = False, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP requires at least an input and an output dimension")
        rng = _default_rng(rng)
        self.dims: List[int] = list(dims)
        activations = {"relu": ReLU, "gelu": GELU, "tanh": Tanh, "sigmoid": Sigmoid}
        if activation not in activations:
            raise ValueError(f"unknown activation {activation!r}; options: {sorted(activations)}")
        layers: List[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                layers.append(activations[activation]())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.net.infer(x)

    def flops(self, batch_elements: int = 1) -> int:
        total = 0
        for layer in self.net:
            if isinstance(layer, Linear):
                total += layer.flops(batch_elements)
        return total
