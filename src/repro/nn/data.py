"""Minimal dataset / dataloader utilities for batching scenario samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Batch", "ArrayDataset", "DataLoader", "train_test_split", "support_query_split"]


@dataclass
class Batch:
    """One mini-batch of scenario samples.

    Attributes:
        profiles: float array (B, profile_dim) of user profile features.
        sequences: int array (B, T) of behaviour token ids.
        mask: float array (B, T) with 1 for valid positions.
        labels: float array (B,) of binary labels.
        indices: the dataset rows the batch was gathered from, when it was
            built by :meth:`ArrayDataset.batch`.
    """

    profiles: np.ndarray
    sequences: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    indices: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.labels)


class ArrayDataset:
    """A dataset over parallel arrays (profiles, sequences, mask, labels)."""

    def __init__(self, profiles: np.ndarray, sequences: np.ndarray,
                 mask: Optional[np.ndarray] = None, labels: Optional[np.ndarray] = None) -> None:
        self.profiles = np.asarray(profiles, dtype=np.float64)
        self.sequences = np.asarray(sequences, dtype=np.int64)
        if mask is None:
            mask = np.ones(self.sequences.shape, dtype=np.float64)
        self.mask = np.asarray(mask, dtype=np.float64)
        if labels is None:
            labels = np.zeros(len(self.profiles), dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        n = len(self.profiles)
        if not (len(self.sequences) == len(self.mask) == len(self.labels) == n):
            raise ValueError("all arrays must have the same number of rows")

    def __len__(self) -> int:
        return len(self.profiles)

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(self.profiles[idx], self.sequences[idx], self.mask[idx], self.labels[idx])

    def batch(self, indices: Sequence[int]) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(self.profiles[idx], self.sequences[idx], self.mask[idx], self.labels[idx], idx)

    def as_batch(self) -> Batch:
        return Batch(self.profiles, self.sequences, self.mask, self.labels)

    @property
    def positive_rate(self) -> float:
        return float(self.labels.mean()) if len(self.labels) else 0.0


class DataLoader:
    """Iterate a dataset in shuffled mini-batches."""

    def __init__(self, dataset: ArrayDataset, batch_size: int = 64, shuffle: bool = True,
                 drop_last: bool = False, rng: Optional[np.random.Generator] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            chunk = indices[start:start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield self.dataset.batch(chunk)


def train_test_split(dataset: ArrayDataset, test_fraction: float = 0.2,
                     rng: Optional[np.random.Generator] = None) -> Tuple[ArrayDataset, ArrayDataset]:
    """Randomly split a dataset into train and test parts (paper: 20% test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = len(dataset)
    indices = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = indices[:n_test], indices[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)


def support_query_split(dataset: ArrayDataset, support_fraction: float = 0.7,
                        rng: Optional[np.random.Generator] = None) -> Tuple[ArrayDataset, ArrayDataset]:
    """Split scenario data into support and query sets (Sec. III-C, Fig. 5)."""
    if not 0.0 < support_fraction < 1.0:
        raise ValueError("support_fraction must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = len(dataset)
    indices = rng.permutation(n)
    n_support = max(1, int(round(n * support_fraction)))
    n_support = min(n_support, n - 1) if n > 1 else n_support
    return dataset.subset(indices[:n_support]), dataset.subset(indices[n_support:])
