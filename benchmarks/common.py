"""Shared presets for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (Sec. V).  The presets here scale the workloads down so the whole
harness runs on a laptop-class CPU with the pure-numpy substrate:

* sequence length 12 instead of 128,
* a few hundred samples per scenario instead of tens of thousands to millions,
* heavy encoder depth 2 / light depth 1 instead of 6 / 3 (the heavy:light
  FLOPs ratio of roughly 2x matches Table V),
* 1-4 training epochs.

The *relative* comparisons (who wins, by roughly what factor, where the
crossovers are) are what the benchmarks check against the paper; absolute AUC
and latency values are not comparable to the paper's GPU-scale numbers.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.data import make_dataset_a, make_dataset_b
from repro.data.synthetic import ScenarioCollection
from repro.meta import DistillationConfig, FineTuneConfig, MetaUpdateConfig
from repro.nas import NASConfig
from repro.strategies import StrategyRunConfig
from repro.training.trainer import TrainingConfig

#: Where runs write their tables: untracked, so running the suite leaves the
#: checkout clean.  ``benchmarks/results/`` holds the committed copies.
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "results"

BENCH_SEQ_LEN = 12
BENCH_NAS_CANDIDATES = (
    "std_conv_1", "std_conv_3", "std_conv_5", "std_conv_7",
    "dil_conv_3", "dil_conv_5",
    "avg_pool_3", "max_pool_3", "lstm", "self_att",
)


@functools.lru_cache(maxsize=None)
def dataset_a_small() -> ScenarioCollection:
    """Scaled-down replica of Dataset A (18 risk-control scenarios, Table I skew)."""
    return make_dataset_a(scale=4e-4, min_size=200, max_size=500, seq_len=BENCH_SEQ_LEN,
                          profile_dim=24, vocab_size=24, seed=7)


@functools.lru_cache(maxsize=None)
def dataset_b_small() -> ScenarioCollection:
    """Scaled-down replica of Dataset B (32 advertising scenarios, Table II skew)."""
    return make_dataset_b(scale=1.5e-3, min_size=150, max_size=400, seq_len=BENCH_SEQ_LEN,
                          profile_dim=32, vocab_size=40, seed=11)


def bench_strategy_config(encoder_type: str, n_initial: int = 8, seed: int = 1,
                          initial_ids=None) -> StrategyRunConfig:
    """The benchmark-scale equivalent of the Sec. V-A3 implementation details."""
    return StrategyRunConfig(
        encoder_type=encoder_type,
        embed_dim=8,
        heavy_layers=2,
        light_layers=1,
        num_heads=2,
        ff_dim=16,
        n_initial=n_initial,
        initial_ids=tuple(initial_ids) if initial_ids is not None else None,
        pretrain=TrainingConfig(epochs=3, batch_size=64, learning_rate=0.01),
        scenario_train=TrainingConfig(epochs=6, batch_size=64, learning_rate=0.01),
        fine_tune=FineTuneConfig(inner_lr=0.005, epochs=3, batch_size=64),
        meta=MetaUpdateConfig(outer_lr=0.02),
        nas=NASConfig(num_layers=2, epochs=1, batch_size=64, max_batches_per_epoch=4,
                      candidates=BENCH_NAS_CANDIDATES),
        distillation=DistillationConfig(epochs=6, batch_size=64, learning_rate=0.01),
        seed=seed,
    )


def save_result(name: str, text: str) -> None:
    """Persist a rendered table under ``.benchmarks/results`` and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
