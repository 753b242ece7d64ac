"""Early-stopping (pruning) policies for futureless trials (Sec. IV-C).

A pruner judges a *running* trial against the study's history and decides
whether finishing it is worth the remaining compute.  It is consulted from
two directions:

* **Cooperatively** — objectives call ``trial.should_prune()`` between
  training steps and raise :class:`~repro.automl.trial.PrunedTrial`
  themselves (the only option for the inline ``sync`` backend).
* **From the trial loop** — each time it publishes a batch of streamed
  intermediate values (live telemetry, including process-backend trials) it
  feeds them to the pruner and kills a futureless trial mid-run, so even an
  objective that never checks ``should_prune()`` is stopped early.

Pruners must therefore be safe to call from the scheduling thread while the
trial's worker appends reports; the study serialises calls under its lock.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.automl.trial import Trial, TrialState

__all__ = ["Pruner", "NoPruner", "MedianPruner"]


class Pruner:
    """Decide whether a running trial should be stopped early."""

    def should_prune(self, trial: Trial, history: List[Trial], maximize: bool) -> bool:
        """Judge a running trial against the study history.

        Args:
            trial: the in-flight trial (its ``intermediate_values`` carry
                everything reported so far).
            history: all trials of the study, finished and running.
            maximize: the study's optimisation direction.

        Returns:
            True when the trial should be stopped as futureless.
        """
        raise NotImplementedError


class NoPruner(Pruner):
    """Never prune (the default; telemetry is still streamed for status)."""

    def should_prune(self, trial: Trial, history: List[Trial], maximize: bool) -> bool:
        return False


class MedianPruner(Pruner):
    """Prune a trial whose latest intermediate value is worse than the median
    of completed trials' values at the same step.

    Attributes:
        warmup_steps: number of intermediate reports to wait before pruning.
        min_trials: number of completed trials required before pruning starts.
    """

    def __init__(self, warmup_steps: int = 1, min_trials: int = 3) -> None:
        self.warmup_steps = warmup_steps
        self.min_trials = min_trials

    def should_prune(self, trial: Trial, history: List[Trial], maximize: bool) -> bool:
        """Compare the trial's latest report to the per-step completed median.

        Args:
            trial: the in-flight trial.
            history: all trials of the study; only COMPLETED ones that
                reached the same step form the reference.
            maximize: the study's optimisation direction.

        Returns:
            True once the trial has passed warm-up, enough completed trials
            reached its step, and its latest value falls on the wrong side of
            their median.
        """
        step = len(trial.intermediate_values)
        if step <= self.warmup_steps:
            return False
        completed = [t for t in history
                     if t.state == TrialState.COMPLETED and len(t.intermediate_values) >= step]
        if len(completed) < self.min_trials:
            return False
        reference = np.median([t.intermediate_values[step - 1] for t in completed])
        latest = trial.intermediate_values[-1]
        return latest < reference if maximize else latest > reference
