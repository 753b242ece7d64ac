"""The budget-limited NAS search procedure (Sec. III-D, Eq. 4-9).

The search trains a weight-sharing supernet over the Fig. 6 space with a
bilevel scheme: network weights are optimised on the train split, the
architecture distribution parameters on the validation split, where the
validation objective adds ``lambda * normalized FLOPs`` (Eq. 4).  Knowledge is
simultaneously distilled from the scenario specific heavy model (Eq. 5).
After search, the discrete architecture with maximal joint probability that
satisfies the hard FLOPs constraint is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.models.profile_encoder import ProfileEncoder
from repro.nas.genotype import Genotype
from repro.nas.operations import DEFAULT_CANDIDATES
from repro.nas.supernet import SequenceSuperNet
from repro.nn.data import ArrayDataset, Batch, DataLoader
from repro.nn.layers.basic import MLP, Embedding
from repro.nn.losses import binary_cross_entropy_with_logits, distillation_loss
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, concatenate
from repro.utils.rng import new_rng

__all__ = ["NASConfig", "NASResult", "SupernetLightModel", "BudgetLimitedNAS"]

# The paper's candidate set for the budget NAS (Sec. V-A3): convolutions with
# kernels {1,3,5,7}, average/max pooling with kernel 3, LSTM and self-attention.
PAPER_CANDIDATES: List[str] = [
    "std_conv_1", "std_conv_3", "std_conv_5", "std_conv_7",
    "dil_conv_3", "dil_conv_5", "dil_conv_7",
    "avg_pool_3", "max_pool_3", "lstm", "self_att",
]


@dataclass(frozen=True)
class NASConfig:
    """Hyper-parameters of the budget-limited architecture search.

    Attributes:
        num_layers: depth of the searched behaviour encoder.
        candidates: candidate operation names.
        lambda_flops: weight of the normalised FLOPs term in Eq. 4.
        epochs: bilevel search epochs.
        batch_size: mini-batch size for both splits.
        weights_lr: Adam learning rate for network weights (Eq. 6).
        arch_lr: Adam learning rate for architecture logits.
        tau_start: initial Gumbel-softmax temperature.
        tau_end: final temperature (annealed linearly over epochs).
        distill_delta: soft-label weight when a teacher is given (Eq. 5).
        max_batches_per_epoch: optional cap for fast runs.
        grad_clip: max gradient norm.
    """

    num_layers: int = 3
    candidates: tuple = tuple(PAPER_CANDIDATES)
    lambda_flops: float = 0.15
    epochs: int = 2
    batch_size: int = 128
    weights_lr: float = 0.005
    arch_lr: float = 0.05
    tau_start: float = 5.0
    tau_end: float = 1.0
    distill_delta: float = 1.0
    max_batches_per_epoch: Optional[int] = None
    grad_clip: float = 5.0


@dataclass
class NASResult:
    """Outcome of one budget-limited search."""

    genotype: Genotype
    flops: int
    flops_budget: Optional[float]
    search_losses: List[float] = field(default_factory=list)
    arch_losses: List[float] = field(default_factory=list)


class SupernetLightModel(Module):
    """Profile encoder + supernet behaviour encoder + head, used only during search."""

    def __init__(self, config: ModelConfig, nas_config: NASConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else new_rng(0)
        self.config = config
        self.profile_encoder = ProfileEncoder(config.profile_dim, hidden_dims=config.profile_hidden,
                                              dropout=config.dropout, rng=rng)
        self.embedding = Embedding(config.vocab_size, config.embed_dim, rng=rng)
        self.supernet = SequenceSuperNet(nas_config.num_layers, config.embed_dim,
                                         list(nas_config.candidates), rng=rng)
        joint = self.profile_encoder.output_dim + config.embed_dim
        self.head = MLP([joint, *config.head_hidden, 1], activation="relu", rng=rng)

    def forward(self, batch: Batch, tau: float = 1.0, sample: bool = True) -> Tensor:
        profile_vec = self.profile_encoder(Tensor(batch.profiles))
        embedded = self.embedding(batch.sequences)
        behavior_vec = self.supernet(embedded, mask=batch.mask, tau=tau, sample=sample)
        joint = concatenate([profile_vec, behavior_vec], axis=1)
        return self.head(joint).reshape(len(batch))

    def architecture_parameters(self):
        return self.supernet.architecture_parameters()

    def weight_parameters(self):
        arch_ids = {id(p) for p in self.supernet.architecture_parameters()}
        return [p for p in self.parameters() if id(p) not in arch_ids]


class BudgetLimitedNAS:
    """Run the Eq. 4-9 search and derive a budget-satisfying genotype."""

    def __init__(self, model_config: ModelConfig, nas_config: Optional[NASConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.model_config = model_config
        self.nas_config = nas_config or NASConfig()
        self._rng = new_rng(rng if rng is not None else 0)

    def _temperature(self, epoch: int) -> float:
        cfg = self.nas_config
        if cfg.epochs <= 1:
            return cfg.tau_end
        fraction = epoch / (cfg.epochs - 1)
        return cfg.tau_start + fraction * (cfg.tau_end - cfg.tau_start)

    def search(self, train_data: ArrayDataset, val_data: ArrayDataset,
               teacher: Optional[Module] = None,
               flops_budget: Optional[float] = None) -> NASResult:
        """Search for a light behaviour-encoder architecture.

        Args:
            train_data: split used to optimise network weights (Eq. 6).
            val_data: split used to optimise architecture parameters (Eq. 4).
            teacher: scenario specific heavy model used as distillation teacher.
            flops_budget: hard upper bound on the derived encoder's FLOPs
                (per-sample, at ``model_config.max_seq_len``); ``None`` disables
                the hard constraint (the soft lambda term still applies).
        """
        cfg = self.nas_config
        seq_len = self.model_config.max_seq_len
        supermodel = SupernetLightModel(self.model_config, cfg, rng=self._rng)
        weight_params = supermodel.weight_parameters()
        arch_params = supermodel.architecture_parameters()
        weight_optimizer = Adam(weight_params, lr=cfg.weights_lr)
        arch_optimizer = Adam(arch_params, lr=cfg.arch_lr)
        result_losses: List[float] = []
        arch_losses: List[float] = []

        for epoch in range(cfg.epochs):
            tau = self._temperature(epoch)
            train_loader = DataLoader(train_data, batch_size=cfg.batch_size, shuffle=True, rng=self._rng)
            val_loader = DataLoader(val_data, batch_size=cfg.batch_size, shuffle=True, rng=self._rng)
            val_iter = iter(val_loader)
            for step, train_batch in enumerate(train_loader):
                if cfg.max_batches_per_epoch is not None and step >= cfg.max_batches_per_epoch:
                    break
                # --- weight step on the train split (Eq. 6) -----------------
                weight_optimizer.zero_grad()
                logits = supermodel(train_batch, tau=tau, sample=True)
                loss = self._loss(logits, train_batch, teacher)
                loss.backward()
                if cfg.grad_clip > 0:
                    clip_grad_norm(weight_params, cfg.grad_clip)
                weight_optimizer.step()
                result_losses.append(loss.item())
                # --- architecture step on the validation split (Eq. 4) ------
                try:
                    val_batch = next(val_iter)
                except StopIteration:
                    val_iter = iter(DataLoader(val_data, batch_size=cfg.batch_size,
                                               shuffle=True, rng=self._rng))
                    val_batch = next(val_iter)
                arch_optimizer.zero_grad()
                val_logits = supermodel(val_batch, tau=tau, sample=True)
                val_loss = self._loss(val_logits, val_batch, teacher)
                flops_term = supermodel.supernet.normalized_expected_flops(seq_len)
                total = val_loss + flops_term * cfg.lambda_flops
                total.backward()
                if cfg.grad_clip > 0:
                    clip_grad_norm(arch_params, cfg.grad_clip)
                arch_optimizer.step()
                arch_losses.append(total.item())

        genotype = supermodel.supernet.derive(seq_len, flops_budget=flops_budget)
        return NASResult(
            genotype=genotype,
            flops=genotype.flops(seq_len, self.model_config.embed_dim),
            flops_budget=flops_budget,
            search_losses=result_losses,
            arch_losses=arch_losses,
        )

    def _loss(self, logits: Tensor, batch: Batch, teacher: Optional[Module]) -> Tensor:
        if teacher is None:
            return binary_cross_entropy_with_logits(logits, batch.labels)
        return distillation_loss(logits, batch.labels, teacher.predict_logits(batch),
                                 delta=self.nas_config.distill_delta)
