"""Gradient-descent optimisers (SGD, Adam) for the numpy substrate.

The paper optimises every model with Adam (lr 0.001, batch 512, Sec. V-A3);
SGD is provided for the meta outer updates and for tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients in-place to a maximum global L2 norm; returns the pre-clip norm."""
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm > 0:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.parameters:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel = self._velocity.get(id(p))
                vel = self.momentum * vel + grad if vel is not None else grad
                self._velocity[id(p)] = vel
                grad = vel
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for p in self.parameters:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
            v = self._v.get(id(p))
            if v is None:
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad ** 2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / (1 - self.beta1 ** self._t)
            v_hat = v / (1 - self.beta2 ** self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, object]:
        return {"t": self._t, "lr": self.lr}
