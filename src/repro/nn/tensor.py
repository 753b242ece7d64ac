"""A small reverse-mode automatic differentiation engine on top of numpy.

The whole ALT reproduction (profile/behaviour encoders, LSTMs, transformers,
the GDAS supernet, distillation, meta-learning) is built on the :class:`Tensor`
defined here.  The design follows the familiar define-by-run style: every
operation records a backward closure and the parents it depends on; calling
:meth:`Tensor.backward` runs a topological sort and accumulates gradients into
``tensor.grad`` (a plain ``numpy.ndarray``).  An operation records its graph
exactly when one of its inputs requires grad; there is no grad mode, so the
engine keeps no state shared between threads.  Inference does not come here:
each module's ``infer`` makes the numpy calls of its ``forward`` on plain
arrays.

Broadcasting is fully supported: gradients flowing into a broadcast operand are
summed back to the operand's original shape.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "concatenate", "stack"]


def _sum_to_shape(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (undoing numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed tensor that records operations for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _children: Sequence["Tensor"] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] = lambda: None
        self._prev: Tuple[Tensor, ...] = tuple(_children)
        self._op = _op

    # ------------------------------------------------------------------ #
    # Basic introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph management
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _sum_to_shape(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to ones (so scalars can call ``loss.backward()``).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for child in node._prev:
                build(child)
            topo.append(node)

        build(self)
        self._accumulate(grad)
        for node in reversed(topo):
            node._backward()

    @staticmethod
    def _needs_graph(*tensors: "Tensor") -> bool:
        return any(t.requires_grad for t in tensors)

    def _make(self, data: np.ndarray, children: Sequence["Tensor"], op: str) -> "Tensor":
        requires = self._needs_graph(*children)
        out = Tensor(data, requires_grad=requires, _children=children if requires else (), _op=op)
        return out

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make(self.data + other_t.data, (self, other_t), "add")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other_t.requires_grad:
                other_t._accumulate(out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,), "neg")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make(self.data - other_t.data, (self, other_t), "sub")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other_t.requires_grad:
                other_t._accumulate(-out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make(self.data * other_t.data, (self, other_t), "mul")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(out.grad * self.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make(self.data / other_t.data, (self, other_t), "div")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-out.grad * self.data / (other_t.data ** 2))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)).__truediv__(self)

    def __pow__(self, power: float) -> "Tensor":
        if not isinstance(power, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = self._make(self.data ** power, (self,), "pow")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * power * self.data ** (power - 1))

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make(self.data @ other_t.data, (self, other_t), "matmul")

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.expand_dims(grad, -1) * other_t.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad))
                else:
                    other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make(value, (self,), "exp")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value)

        if out.requires_grad:
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,), "log")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make(value, (self,), "tanh")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - value ** 2))

        if out.requires_grad:
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(value, (self,), "sigmoid")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value * (1.0 - value))

        if out.requires_grad:
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,), "relu")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        if out.requires_grad:
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make(np.abs(self.data), (self,), "abs")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * sign)

        if out.requires_grad:
            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        clipped = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)
        out = self._make(clipped, (self,), "clip")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make(value, (self,), "sum")

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is None:
                self._accumulate(np.ones_like(self.data) * grad)
                return
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(value, (self,), "max")

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is None:
                mask = (self.data == value)
                self._accumulate(mask * grad / mask.sum())
                return
            expanded = value if keepdims else np.expand_dims(value, axis=axis)
            mask = (self.data == expanded)
            counts = mask.sum(axis=axis, keepdims=True)
            grad_e = grad if keepdims else np.expand_dims(grad, axis=axis)
            self._accumulate(mask * grad_e / counts)

        if out.requires_grad:
            out._backward = _backward
        return out

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self._make(self.data.reshape(shape), (self,), "reshape")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(original))

        if out.requires_grad:
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        out = self._make(self.data.transpose(axes), (self,), "transpose")

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        if out.requires_grad:
            out._backward = _backward
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows by integer index (embedding-style lookup with scatter-add backward)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make(self.data[indices], (self,), "take_rows")

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, indices.reshape(-1), out.grad.reshape(-1, self.data.shape[-1]))
                self._accumulate(grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Composite convenience ops
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        probs, exp, den = softmax_forward(self.data, axis)
        out = self._make(probs, (self,), "softmax")

        def _backward() -> None:
            self._accumulate(softmax_backward(out.grad, exp, den))

        if out.requires_grad:
            out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor where positions with ``mask`` True are set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        keep = Tensor((~mask).astype(np.float64))
        fill = Tensor(mask.astype(np.float64) * value)
        return self * keep + fill


def masked_fill_forward(x: np.ndarray, mask: np.ndarray, value: float) -> np.ndarray:
    """The data path of :meth:`Tensor.masked_fill`: ``x * keep + fill``."""
    mask = np.asarray(mask, dtype=bool)
    return x * (~mask).astype(np.float64) + mask.astype(np.float64) * value


def softmax_forward(x: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(probs, exp, den)`` of a softmax over ``axis``: shift by the max, exp, sum, divide."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    den = exp.sum(axis=axis, keepdims=True)
    return exp / den, exp, den


def softmax_backward(grad: np.ndarray, exp: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Gradient wrt a softmax's input, given ``grad`` wrt its output.

    This is the arithmetic of the sub/exp/sum/div op graph in the order its
    backward ran: the quotient's two terms into ``exp``, then the shift.
    """
    d_exp = grad / den + np.broadcast_to(_sum_to_shape(-grad * exp / (den ** 2), den.shape),
                                         exp.shape)
    return d_exp * exp


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each input."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _children=tuple(tensors) if requires else (), _op="concat")

    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * data.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(out.grad[tuple(slicer)])

    if out.requires_grad:
        out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _children=tuple(tensors) if requires else (), _op="stack")

    def _backward() -> None:
        for i, tensor in enumerate(tensors):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * data.ndim
            slicer[axis] = i
            tensor._accumulate(out.grad[tuple(slicer)])

    if out.requires_grad:
        out._backward = _backward
    return out
