"""Gaussian-process Bayesian optimisation with expected improvement.

A compact implementation of the classic GP-EI loop (Snoek et al., 2012, [33]
in the paper): an RBF-kernel Gaussian process is fit to the unit-cube encoded
history, and the next configuration maximises expected improvement over a
random candidate pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.automl.algorithms.base import SearchAlgorithm, completed_trials
from repro.automl.search_space import SearchSpace
from repro.automl.trial import Trial

__all__ = ["BayesianOptimization"]


def _rbf_kernel(a: np.ndarray, b: np.ndarray, length_scale: float, variance: float) -> np.ndarray:
    sq_dist = np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :] - 2 * a @ b.T
    return variance * np.exp(-0.5 * np.maximum(sq_dist, 0.0) / length_scale ** 2)


class BayesianOptimization(SearchAlgorithm):
    """GP + expected improvement in the unit hyper-cube."""

    name = "bayesian"

    def __init__(self, n_initial: int = 5, candidate_pool: int = 256,
                 length_scale: float = 0.25, variance: float = 1.0, noise: float = 1e-4,
                 exploration: float = 0.01, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rng=rng)
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        self.n_initial = n_initial
        self.candidate_pool = candidate_pool
        self.length_scale = length_scale
        self.variance = variance
        self.noise = noise
        self.exploration = exploration

    # ------------------------------------------------------------------ #
    # GP posterior
    # ------------------------------------------------------------------ #
    def _posterior(self, x_train: np.ndarray, y_train: np.ndarray,
                   x_query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # scipy is imported here, not at module level: importing
        # repro.automl needs numpy alone.
        from scipy import linalg

        k_train = _rbf_kernel(x_train, x_train, self.length_scale, self.variance)
        k_train[np.diag_indices_from(k_train)] += self.noise
        k_cross = _rbf_kernel(x_train, x_query, self.length_scale, self.variance)
        k_query = _rbf_kernel(x_query, x_query, self.length_scale, self.variance)
        try:
            chol = linalg.cho_factor(k_train, lower=True)
            alpha = linalg.cho_solve(chol, y_train)
            v = linalg.cho_solve(chol, k_cross)
        except linalg.LinAlgError:
            # Fall back to a ridge-regularised solve if the kernel is ill-conditioned.
            k_train[np.diag_indices_from(k_train)] += 1e-3
            alpha = np.linalg.solve(k_train, y_train)
            v = np.linalg.solve(k_train, k_cross)
        mean = k_cross.T @ alpha
        cov_diag = np.diag(k_query) - np.sum(k_cross * v, axis=0)
        std = np.sqrt(np.maximum(cov_diag, 1e-12))
        return mean, std

    def _expected_improvement(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        from scipy.stats import norm

        improvement = mean - best - self.exploration
        z = improvement / std
        return improvement * norm.cdf(z) + std * norm.pdf(z)

    # ------------------------------------------------------------------ #
    # ask
    # ------------------------------------------------------------------ #
    def ask(self, space: SearchSpace, history: List[Trial], maximize: bool) -> Dict[str, object]:
        finished = completed_trials(history)
        if len(finished) < self.n_initial:
            return space.sample(self._rng)
        x_train = np.array([space.to_unit(t.params) for t in finished])
        y_train = np.array([t.value for t in finished], dtype=np.float64)
        if not maximize:
            y_train = -y_train
        # Standardise targets for a better-behaved GP.
        y_mean, y_std = y_train.mean(), y_train.std()
        y_norm = (y_train - y_mean) / (y_std + 1e-12)
        candidates = self._rng.random((self.candidate_pool, space.dimension))
        mean, std = self._posterior(x_train, y_norm, candidates)
        ei = self._expected_improvement(mean, std, y_norm.max())
        best_index = int(np.argmax(ei))
        return space.from_unit(candidates[best_index])
