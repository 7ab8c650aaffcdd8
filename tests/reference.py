"""Brute-force references the test-suite checks every miner against.

Everything here trades every optimisation for obviousness and reads the
database only through :meth:`UncertainTransaction.itemset_probability
<repro.db.transaction.UncertainTransaction.itemset_probability>`, one
transaction at a time — the per-transaction oracle.  None of it is reachable
from the production registry:

* :func:`itemset_probabilities` — the oracle's ``p_i(X)`` vector.  Its
  products run in itemset order starting from 1.0, the operand order the
  columnar engine keeps, so engine vectors must equal it bit for bit;
* :func:`exhaustive_expected` / :func:`exhaustive_probabilistic` — enumerate
  every itemset over the database's items and score each one from the
  oracle vector (expected support, or the exact frequent probability from
  the full support PMF);
* :func:`possible_world_expected_support` — a Monte-Carlo estimate of an
  expected support from sampled possible worlds.

They are exponential in the number of items and are only meant for the
small databases of the test-suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.itemset import Itemset
from repro.core.results import FrequentItemset, MiningResult
from repro.core.support import SupportDistribution
from repro.core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from repro.db import UncertainDatabase, sample_worlds

__all__ = [
    "exact_frequent_probability",
    "exhaustive_expected",
    "exhaustive_probabilistic",
    "itemset_probabilities",
    "moments",
    "possible_world_expected_support",
]

#: ``score(probabilities, min_count) -> frequent probability`` of one itemset,
#: from its dense oracle vector
Score = Callable[[np.ndarray, int], float]


def itemset_probabilities(
    database: UncertainDatabase, itemset: Iterable[int]
) -> np.ndarray:
    """The oracle's dense ``p_i(X)``: one entry per transaction, in order."""
    itemset = tuple(itemset)
    return np.array(
        [transaction.itemset_probability(itemset) for transaction in database],
        dtype=float,
    ).reshape(len(database))


def moments(probabilities: np.ndarray) -> Tuple[float, float]:
    """``(esup, Var[sup])`` of a per-transaction probability vector."""
    return (
        float(probabilities.sum()),
        float((probabilities * (1.0 - probabilities)).sum()),
    )


def exact_frequent_probability(probabilities: np.ndarray, min_count: int) -> float:
    """``Pr[sup >= min_count]`` from the full Poisson-Binomial support PMF."""
    return SupportDistribution(probabilities).frequent_probability(min_count)


def _itemsets(
    database: UncertainDatabase, max_size: Optional[int]
) -> List[Tuple[int, ...]]:
    """Every non-empty itemset over the database's items, up to ``max_size``."""
    items = database.items()
    limit = len(items) if max_size is None else min(max_size, len(items))
    return [
        itemset
        for size in range(1, limit + 1)
        for itemset in combinations(items, size)
    ]


def exhaustive_expected(
    database: UncertainDatabase, min_esup: float, max_size: Optional[int] = None
) -> MiningResult:
    """Every itemset with ``esup >= min_esup`` (Definition 2), by enumeration.

    ``min_esup`` is a ratio of the database size (``0 < x <= 1``) or an
    absolute expected support, as for the miners.
    """
    bar = ExpectedSupportThreshold(min_esup).absolute(len(database))
    records: List[FrequentItemset] = []
    for itemset in _itemsets(database, max_size):
        expected, variance = moments(itemset_probabilities(database, itemset))
        if expected >= bar:
            records.append(FrequentItemset(Itemset(itemset), expected, variance))
    return MiningResult(records)


def exhaustive_probabilistic(
    database: UncertainDatabase,
    min_sup: float,
    pft: float = 0.9,
    max_size: Optional[int] = None,
    score: Score = exact_frequent_probability,
) -> MiningResult:
    """Every itemset with ``score > pft`` (Definition 4), by enumeration.

    ``score`` defaults to the exact frequent probability; pass an
    approximation (Normal, Poisson) to enumerate what that approximation
    calls frequent.
    """
    threshold = ProbabilisticThreshold(min_sup, pft)
    min_count = threshold.min_count(len(database))
    records: List[FrequentItemset] = []
    for itemset in _itemsets(database, max_size):
        probabilities = itemset_probabilities(database, itemset)
        probability = score(probabilities, min_count)
        if probability > threshold.pft:
            expected, variance = moments(probabilities)
            records.append(
                FrequentItemset(Itemset(itemset), expected, variance, probability)
            )
    return MiningResult(records)


def possible_world_expected_support(
    database: UncertainDatabase,
    itemset: Sequence[int],
    n_worlds: int = 2000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the expected support of ``itemset``.

    Averages the deterministic support over sampled possible worlds, tying
    the analytic expected support back to the possible-world semantics.
    """
    wanted = set(Itemset(itemset))
    total = 0
    for world in sample_worlds(database, n_worlds, seed):
        total += sum(1 for items in world if wanted <= set(items))
    return total / n_worlds
