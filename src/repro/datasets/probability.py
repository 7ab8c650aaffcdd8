"""Probability models used to turn deterministic benchmarks into uncertain ones.

The paper takes classic deterministic FIMI datasets and assigns each item
occurrence an existence probability drawn from a Gaussian distribution
(truncated to ``[0, 1]``) or, for the uncertainty-sensitivity study, a Zipf
distribution over a small grid of probability levels.  These models
reproduce that methodology.  All models are deterministic given a seed so
experiments are repeatable.

Generators hand a model every unit of a database at once
(:meth:`ProbabilityModel.draw`).  The built-in i.i.d. models answer with
one array draw from their generator; NumPy's array draws equal the same
number of successive scalar draws, so the result is bit for bit what
calling the model once per unit, in row-major order, would give.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = [
    "ProbabilityModel",
    "GaussianProbabilityModel",
    "ZipfProbabilityModel",
    "ConstantProbabilityModel",
    "UniformProbabilityModel",
]


class ProbabilityModel(ABC):
    """Assigns an existence probability to every ``(tid, item)`` occurrence.

    Subclasses implement :meth:`sample` (one i.i.d. draw) or override
    :meth:`__call__` for coordinate-dependent probabilities.  A class that
    defines :meth:`sample` may also define ``_sample_array(n)``, the same
    ``n`` draws in one call; :meth:`draw` uses it only when that class's
    :meth:`sample` is the one in force and :meth:`__call__` is not
    overridden, so any subclass that changes the per-unit semantics is
    asked unit by unit.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    @abstractmethod
    def sample(self) -> float:
        """Draw one probability value."""

    def __call__(self, tid: int, item: int) -> float:
        """Probability of ``item`` existing in transaction ``tid``.

        The default implementation ignores the coordinates and simply draws
        from the model's distribution, which matches the paper's methodology
        (probabilities are i.i.d. across occurrences).
        """
        return self.sample()

    def draw(self, tids: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Probabilities of the units ``(tids[k], items[k])``, drawn in order.

        Equal, bit for bit, to ``[self(tid, item) for tid, item in
        zip(tids, items)]``.
        """
        if self._draws_in_one_call():
            return self._sample_array(len(items))
        return np.fromiter(
            map(self, tids.tolist(), items.tolist()), dtype=np.float64, count=len(items)
        )

    def _draws_in_one_call(self) -> bool:
        cls = type(self)
        if cls.__call__ is not ProbabilityModel.__call__:
            return False
        owner = next(klass for klass in cls.__mro__ if "sample" in vars(klass))
        return "_sample_array" in vars(owner)


class ConstantProbabilityModel(ProbabilityModel):
    """Every occurrence gets the same probability (handy for tests)."""

    def __init__(self, probability: float = 1.0) -> None:
        super().__init__(seed=0)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.probability = probability

    def sample(self) -> float:
        return self.probability

    def _sample_array(self, n: int) -> np.ndarray:
        return np.full(n, float(self.probability))


class UniformProbabilityModel(ProbabilityModel):
    """Probabilities drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.0, high: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed)
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("require 0 <= low <= high <= 1")
        self.low = low
        self.high = high

    def sample(self) -> float:
        return float(self._rng.uniform(self.low, self.high))

    def _sample_array(self, n: int) -> np.ndarray:
        return self._rng.uniform(self.low, self.high, size=n)


class GaussianProbabilityModel(ProbabilityModel):
    """Truncated Gaussian probabilities, the paper's default model.

    The paper parameterises its scenarios by ``(mean, variance)`` — e.g. the
    dense Connect dataset uses mean 0.95 / variance 0.05 and Accident uses
    mean 0.5 / variance 0.5 (Table 7).  Draws are clipped into ``(0, 1]``;
    values that clip to zero are raised to ``minimum`` so every unit retains
    a (possibly tiny) chance of existing, mirroring the reference
    implementations which never emit zero-probability units.
    """

    def __init__(
        self,
        mean: float = 0.5,
        variance: float = 0.1,
        seed: int = 0,
        minimum: float = 1e-3,
    ) -> None:
        super().__init__(seed)
        if variance < 0:
            raise ValueError("variance must be non-negative")
        self.mean = mean
        self.variance = variance
        self.minimum = minimum
        self._std = float(np.sqrt(variance))

    def sample(self) -> float:
        value = float(self._rng.normal(self.mean, self._std))
        return float(min(1.0, max(self.minimum, value)))

    def _sample_array(self, n: int) -> np.ndarray:
        values = self._rng.normal(self.mean, self._std, size=n)
        return np.minimum(1.0, np.maximum(self.minimum, values))


class ZipfProbabilityModel(ProbabilityModel):
    """Zipf-distributed probabilities over a grid of levels.

    The paper studies the effect of skew by drawing probabilities from a Zipf
    law: a rank ``k`` is drawn with probability proportional to ``k**-skew``
    and mapped onto an *ascending* grid of probability levels whose first
    (most likely) level is zero.  Increasing the skew therefore pushes more
    and more occurrences to zero probability — the behaviour the paper
    reports: with higher skew, items effectively disappear, fewer itemsets
    are frequent and both running time and memory drop.
    """

    def __init__(
        self,
        skew: float = 1.2,
        levels: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if skew <= 0:
            raise ValueError("skew must be positive")
        self.skew = skew
        if levels is None:
            # Ascending grid: rank 1 -> zero probability, deep ranks -> high.
            levels = np.array([0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
        self.levels = np.asarray(levels, dtype=float)
        ranks = np.arange(1, len(self.levels) + 1, dtype=float)
        weights = ranks ** (-self.skew)
        self._rank_probabilities = weights / weights.sum()

    def sample(self) -> float:
        rank = int(self._rng.choice(len(self.levels), p=self._rank_probabilities))
        return float(self.levels[rank])

    def _sample_array(self, n: int) -> np.ndarray:
        ranks = self._rng.choice(len(self.levels), size=n, p=self._rank_probabilities)
        return self.levels[ranks]
