"""Supervised training loop for ALT models.

All models in the paper are optimised with Adam on the cross-entropy loss
(Sec. V-A3); when a teacher model is provided the distillation objective of
Eq. 5 is used instead, with the teacher's predictions as soft labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.metrics.classification import auc_score
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import binary_cross_entropy_with_logits, distillation_loss
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.utils.rng import new_rng

__all__ = ["TrainingConfig", "TrainingHistory", "train_supervised", "evaluate_auc"]

#: Rows per inference pass; bounds memory when a whole dataset is scored.
_INFERENCE_BATCH = 1024


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one supervised training run.

    Attributes:
        epochs: number of passes over the data (paper: 5).
        learning_rate: Adam learning rate (paper: 0.001).
        batch_size: mini-batch size (paper: 512).
        max_batches_per_epoch: optional cap for fast benchmark runs.
        grad_clip: max global gradient norm (0 disables clipping).
        distill_delta: weight of the soft-label term in Eq. 5.
    """

    epochs: int = 5
    learning_rate: float = 0.001
    batch_size: int = 512
    max_batches_per_epoch: Optional[int] = None
    grad_clip: float = 5.0
    distill_delta: float = 1.0


@dataclass
class TrainingHistory:
    """Per-epoch mean training loss (and optional validation AUC)."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_auc: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def train_supervised(model: Module, dataset: ArrayDataset, config: TrainingConfig,
                     rng: Optional[np.random.Generator] = None,
                     teacher: Optional[Module] = None,
                     validation: Optional[ArrayDataset] = None) -> TrainingHistory:
    """Train ``model`` on ``dataset``; distil from ``teacher`` when provided.

    The model must expose ``forward(batch) -> Tensor`` of per-sample logits and
    (for the teacher) ``predict_logits(batch) -> np.ndarray``.  The teacher
    is frozen and scores each row on its own, so its soft labels are computed
    once, before the first epoch, and each batch reads its rows by
    ``batch.indices``.  (BLAS may round a row's logit differently with other
    rows beside it, so they can differ from per-batch scores in the last bit.)
    """
    rng = new_rng(rng if rng is not None else 0)
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    soft_labels = None
    if teacher is not None:
        chunks = DataLoader(dataset, batch_size=_INFERENCE_BATCH, shuffle=False)
        soft_labels = np.concatenate([teacher.predict_logits(chunk) for chunk in chunks])
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
    history = TrainingHistory()
    model.train()
    for _ in range(config.epochs):
        losses: List[float] = []
        for batch_index, batch in enumerate(loader):
            if config.max_batches_per_epoch is not None and batch_index >= config.max_batches_per_epoch:
                break
            optimizer.zero_grad()
            logits = model(batch)
            if soft_labels is not None:
                loss = distillation_loss(logits, batch.labels, soft_labels[batch.indices],
                                         delta=config.distill_delta)
            else:
                loss = binary_cross_entropy_with_logits(logits, batch.labels)
            loss.backward()
            if config.grad_clip > 0:
                clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            losses.append(loss.item())
        history.epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        if validation is not None and len(validation) > 0:
            history.validation_auc.append(evaluate_auc(model, validation))
    model.eval()
    return history


def evaluate_auc(model: Module, dataset: ArrayDataset, batch_size: int = _INFERENCE_BATCH) -> float:
    """AUC of ``model`` on ``dataset`` (inference mode, batched)."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    scores: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    for batch in loader:
        scores.append(model.predict_proba(batch))
        labels.append(batch.labels)
    return auc_score(np.concatenate(labels), np.concatenate(scores))
