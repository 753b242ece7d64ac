"""AntTune example: tune the pre-designed architecture with the HPO service (Fig. 3/8).

The scenario agnostic heavy model can be initialised by tuning the Fig. 3
hyper-parameters of the pre-designed architecture.  This example submits that
search space to the simulated AntTune server with the RACOS optimiser (the
paper's default), early stopping and fault tolerance, and compares a few of
the implemented optimisers on the same budget.

Run with ``python examples/anttune_hpo.py`` (add ``--workers 4`` to evaluate
trials concurrently on the server's worker pool).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.automl import (
    RACOS,
    AntTuneServer,
    BayesianOptimization,
    EvolutionarySearch,
    MedianPruner,
    RandomSearch,
    StudyConfig,
    apply_params_to_config,
    pre_designed_model_space,
)
from repro.data.synthetic import ScenarioSpec, SyntheticWorld, WorldConfig
from repro.models import ModelConfig, build_model
from repro.nn.data import train_test_split
from repro.training.trainer import TrainingConfig, evaluate_auc, train_supervised


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker-pool size for concurrent trial execution (default: 1)")
    args = parser.parse_args()

    world = SyntheticWorld(WorldConfig(profile_dim=16, vocab_size=24, seq_len=12), seed=2)
    scenario = world.generate(ScenarioSpec(scenario_id=1, name="pool", size=700),
                              rng=np.random.default_rng(0))
    train, val = train_test_split(scenario.train, test_fraction=0.25,
                                  rng=np.random.default_rng(1))

    base_config = ModelConfig(profile_dim=16, vocab_size=24, max_seq_len=12, embed_dim=8,
                              encoder_type="lstm", num_encoder_layers=2,
                              profile_hidden=(16, 8), head_hidden=(8,))
    space = pre_designed_model_space(max_encoder_layers=3)

    def objective(trial):
        config = apply_params_to_config(base_config, trial.params)
        model = build_model(config, rng=np.random.default_rng(trial.trial_id))
        training = TrainingConfig(epochs=2, batch_size=64, learning_rate=config.learning_rate)
        train_supervised(model, train, training, validation=val,
                         rng=np.random.default_rng(trial.trial_id + 100))
        auc = evaluate_auc(model, val)
        trial.report(auc)
        return auc

    algorithms = {
        "RACOS (default)": RACOS(rng=np.random.default_rng(0)),
        "Random search": RandomSearch(rng=np.random.default_rng(0)),
        "Evolutionary": EvolutionarySearch(rng=np.random.default_rng(0)),
        "Bayesian (GP + EI)": BayesianOptimization(n_initial=3, rng=np.random.default_rng(0)),
    }
    print(f"Tuning the Fig. 3 search space with 8 trials per optimiser "
          f"({args.workers} worker(s)):\n")
    with AntTuneServer(num_workers=args.workers) as server:
        for name, algorithm in algorithms.items():
            best = server.wait(server.submit(
                space, objective, algorithm=algorithm,
                config=StudyConfig(maximize=True, n_trials=8, max_retries=1),
                pruner=MedianPruner(), rng=np.random.default_rng(1)))
            print(f"{name:20s} best validation AUC = {best.value:.3f}  params = {best.params}")

        status = server.status(len(algorithms) - 1)
    print(f"\nLast job status from the tune server: {status}")


if __name__ == "__main__":
    main()
