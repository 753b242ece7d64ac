"""Loss functions: cross entropy, BCE-with-logits and the distillation loss of Eq. 5."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "mse_loss",
    "distillation_loss",
    "soft_binary_cross_entropy",
]


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def _bce(logits: Tensor, targets: Tensor, weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean of ``(max(z, 0) - z*y + log(1 + exp(-|z|))) * weight`` as one autograd node."""
    z = logits.data
    positive = z > 0
    sign = np.sign(z)
    exp = np.exp(np.abs(z) * -1.0)
    shifted = exp + 1.0
    loss = z * positive - z * targets.data + np.log(shifted)
    if weight is not None:
        loss = loss * weight
    out = logits._make(loss.sum() * (1.0 / loss.size), (logits, targets), "bce")

    def _backward() -> None:
        grad = np.ones_like(loss) * (out.grad * (1.0 / loss.size))
        if weight is not None:
            grad = grad * weight
        # One term per branch of the relu/mul/abs op graph, in the order its
        # backward reached the logits: exp(-|z|), then z*y, then relu.
        if logits.requires_grad:
            logits._accumulate(grad / shifted * exp * -1.0 * sign)
            logits._accumulate(-grad * targets.data)
        if targets.requires_grad:
            targets._accumulate(-grad * z)
        if logits.requires_grad:
            logits._accumulate(grad * positive)

    if out.requires_grad:
        out._backward = _backward
    return out


def binary_cross_entropy_with_logits(logits: Tensor, targets, sample_weight: Optional[np.ndarray] = None) -> Tensor:
    """Numerically stable binary cross entropy on raw logits.

    Uses the identity ``BCE = max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    targets_t = _as_tensor(targets)
    if targets_t.shape != logits.shape:
        targets_t = targets_t.reshape(logits.shape)
    weight = None
    if sample_weight is not None:
        weight = np.asarray(sample_weight, dtype=np.float64).reshape(logits.shape)
    return _bce(logits, targets_t, weight)


def soft_binary_cross_entropy(logits: Tensor, soft_targets: Tensor) -> Tensor:
    """Binary cross entropy against soft (probability) targets, on raw logits."""
    probs_target = _as_tensor(soft_targets)
    if probs_target.shape != logits.shape:
        probs_target = probs_target.reshape(logits.shape)
    return _bce(logits, probs_target)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multi-class cross entropy from (B, C) logits and integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), labels]
    return picked.mean() * -1.0


def mse_loss(predictions: Tensor, targets) -> Tensor:
    """Mean squared error."""
    targets_t = _as_tensor(targets)
    if targets_t.shape != predictions.shape:
        targets_t = targets_t.reshape(predictions.shape)
    diff = predictions - targets_t
    return (diff * diff).mean()


def distillation_loss(student_logits: Tensor, hard_labels, teacher_logits, delta: float = 1.0,
                      temperature: float = 1.0) -> Tensor:
    """Knowledge-distillation loss of Eq. 5.

    ``L = CE(student, hard) + delta * CE(student, soft)`` where the soft label is
    the teacher model's prediction.  ``teacher_logits`` may be a Tensor or numpy
    array; it is always detached so no gradient flows into the teacher.
    """
    hard_term = binary_cross_entropy_with_logits(student_logits, hard_labels)
    teacher_arr = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    soft_probs = 1.0 / (1.0 + np.exp(-teacher_arr / max(temperature, 1e-8)))
    soft_term = soft_binary_cross_entropy(student_logits, Tensor(soft_probs))
    return hard_term + soft_term * delta
