"""Deterministic random-stream helpers.

Every stochastic element of the reproduction (irregular access patterns,
random tie-breaking in placement, jittered compute times) draws from a
:class:`SeededStream`, which wraps ``numpy.random.Generator`` seeded via
``SeedSequence`` spawning.  Two rules keep runs reproducible:

1. Each component gets its *own* stream via :func:`split_seed`, so adding
   randomness to one component never perturbs another.
2. Streams are created from ``(root_seed, label)`` pairs, so the same
   label always yields the same stream for a given experiment seed.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

__all__ = ["split_seed", "SeededStream"]


def _label_entropy(label: str) -> int:
    """Stable 32-bit entropy derived from a component label."""
    return zlib.crc32(label.encode("utf-8"))


def split_seed(root_seed: int, label: str) -> np.random.SeedSequence:
    """Derive an independent seed sequence for component ``label``."""
    return np.random.SeedSequence(entropy=root_seed, spawn_key=(_label_entropy(label),))


class SeededStream:
    """A labelled, reproducible random stream.

    Thin convenience wrapper over ``numpy.random.Generator`` exposing just
    the draws the reproduction needs, all returning plain Python types so
    call sites stay simple.
    """

    def __init__(self, root_seed: int, label: str):
        self.root_seed = int(root_seed)
        self.label = label
        self._gen = np.random.default_rng(split_seed(root_seed, label))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float uniformly drawn from ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def uniform_array(self, n: int) -> np.ndarray:
        """``n`` floats from ``[0, 1)``: the same values, in order, as
        ``n`` calls of :meth:`uniform`, leaving the stream in the same state."""
        return self._gen.random(n)

    def randint(self, low: int, high: int) -> int:
        """An int uniformly drawn from ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, seq: Sequence):
        """A uniformly drawn element of ``seq``."""
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> list:
        """Shuffle ``seq`` in place (and return it)."""
        self._gen.shuffle(seq)
        return seq

    def exponential(self, mean: float) -> float:
        """An exponential draw with the given mean."""
        return float(self._gen.exponential(mean))

    def normal(self, mean: float, std: float) -> float:
        """A normal draw."""
        return float(self._gen.normal(mean, std))

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``range(n)``."""
        return self._gen.permutation(n)

    def integers_array(self, low: int, high: int, size: int) -> np.ndarray:
        """An array of ints drawn from ``[low, high)``."""
        return self._gen.integers(low, high, size=size)

    def spawn(self, sublabel: str) -> "SeededStream":
        """Create a child stream with a derived label."""
        return SeededStream(self.root_seed, f"{self.label}/{sublabel}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SeededStream seed={self.root_seed} label={self.label!r}>"
