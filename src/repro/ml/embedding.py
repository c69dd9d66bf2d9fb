"""Embedding layers for the (delta, VID) input pairs (Fig. 9).

The address delta is a categorical value (the XOR of two consecutive
addresses); a vocabulary keeps the most frequent deltas and buckets the
rest into an out-of-vocabulary id, as learned-prefetching work does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError

__all__ = ["Embedding", "DeltaVocabulary"]


class Embedding:
    """A lookup table with sparse gradient accumulation."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        params: dict[str, np.ndarray],
        prefix: str,
        rng: np.random.Generator,
    ):
        if vocab_size < 1 or dim < 1:
            raise TrainingError("vocab size and dim must be positive")
        self.vocab_size = vocab_size
        self.dim = dim
        self.prefix = prefix
        params[f"{prefix}.table"] = rng.normal(0, 0.1, (vocab_size, dim))
        self.params = params

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """The table rows of ``ids``: shape ``ids.shape + (dim,)``."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise TrainingError("embedding id out of range")
        return self.params[f"{self.prefix}.table"][ids]

    def backward(
        self, ids: np.ndarray, d_vectors: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Accumulate gradients for the layer's backward pass."""
        key = f"{self.prefix}.table"
        grads.setdefault(key, np.zeros_like(self.params[key]))
        flat_ids = np.asarray(ids).reshape(-1)
        flat_grad = d_vectors.reshape(-1, self.dim)
        np.add.at(grads[key], flat_ids, flat_grad)


class DeltaVocabulary:
    """Top-K address deltas -> dense ids; everything else -> OOV (id 0).

    Ids go by descending count, ties by first occurrence in the fitted
    deltas (the order ``collections.Counter.most_common`` gives).
    """

    OOV = 0

    def __init__(self, max_size: int = 256):
        if max_size < 2:
            raise TrainingError("vocabulary needs room for OOV plus one delta")
        self.max_size = max_size
        self._keys = np.zeros(0, dtype=np.uint64)  # sorted known deltas
        self._key_ids = np.zeros(0, dtype=np.int64)  # id of each key

    def fit(self, deltas: np.ndarray) -> "DeltaVocabulary":
        """Keep the ``max_size - 1`` most frequent deltas; returns self."""
        values, first, counts = np.unique(
            np.asarray(deltas, dtype=np.uint64),
            return_index=True,
            return_counts=True,
        )
        # rank[i] is the index into ``values`` of the delta with id i + 1.
        rank = np.lexsort((first, -counts))[: self.max_size - 1]
        by_value = np.argsort(rank)
        self._keys = values[rank[by_value]]
        self._key_ids = by_value + 1
        return self

    @property
    def size(self) -> int:
        """Number of ids, the OOV id included."""
        return len(self._keys) + 1

    def encode(self, deltas: np.ndarray) -> np.ndarray:
        """Map raw values to vocabulary ids (OOV for unknown)."""
        deltas = np.asarray(deltas, dtype=np.uint64)
        if not self._keys.size:
            return np.full(deltas.shape, self.OOV, dtype=np.int64)
        slot = np.searchsorted(self._keys, deltas)
        slot[slot == len(self._keys)] = 0
        return np.where(
            self._keys[slot] == deltas, self._key_ids[slot], self.OOV
        )

    def coverage(self, deltas: np.ndarray) -> float:
        """Fraction of deltas that map to a real (non-OOV) id."""
        if len(deltas) == 0:
            return 0.0
        ids = self.encode(deltas)
        return float((ids != self.OOV).mean())
