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
  expected support from sampled possible worlds;
* :func:`apriori_join_tuples` / :func:`has_infrequent_subset_tuples` — frozen
  copies of the tuple Apriori join and subset check the array join and
  prune of :mod:`repro.algorithms.common` replaced;
* :func:`uh_mine_expand_dict` — a frozen copy of the dict-per-cell UH-Mine
  expander the array expander replaced (a ``MinerSpec`` ``expander``):
  tuple-of-cells transactions, one head-table dict per prefix;
* :func:`reference_attach_probabilities`, :class:`ReferenceQuestGenerator`,
  :class:`ReferenceDenseSparseGenerator`, :func:`reference_sample` and
  :func:`reference_columns` — frozen scalar copies of the data generation
  the array generators replaced: one RNG call per draw, one dict per
  transaction, and the dict-of-lists column pass.

They are exponential in the number of items and are only meant for the
small databases of the test-suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.itemset import Itemset
from repro.core.results import FrequentItemset, MiningResult
from repro.core.search import SearchContext
from repro.core.support import SupportDistribution
from repro.core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from repro.datasets import (
    ConstantProbabilityModel,
    DenseSparseGenerator,
    GaussianProbabilityModel,
    ProbabilityModel,
    UniformProbabilityModel,
    ZipfProbabilityModel,
)
from repro.db import UncertainDatabase, UncertainTransaction, sample_worlds

__all__ = [
    "apriori_join_tuples",
    "exact_frequent_probability",
    "exhaustive_expected",
    "exhaustive_probabilistic",
    "has_infrequent_subset_tuples",
    "itemset_probabilities",
    "moments",
    "possible_world_expected_support",
    "reference_attach_probabilities",
    "reference_columns",
    "reference_sample",
    "ReferenceDenseSparseGenerator",
    "ReferenceQuestGenerator",
    "uh_mine_expand_dict",
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


def apriori_join_tuples(frequent_itemsets: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """The tuple Apriori join: sorted k-itemsets sharing a (k-1)-prefix."""
    ordered = sorted(frequent_itemsets)
    candidates: List[Tuple[int, ...]] = []
    for index, left in enumerate(ordered):
        prefix = left[:-1]
        for right in ordered[index + 1 :]:
            if right[:-1] != prefix:
                break
            candidates.append(left + (right[-1],))
    return candidates


def has_infrequent_subset_tuples(
    candidate: Tuple[int, ...], frequent_itemsets: Iterable[Tuple[int, ...]]
) -> bool:
    """True if some (k-1)-subset of ``candidate`` is not frequent (downward closure)."""
    frequent = set(frequent_itemsets)
    return any(
        subset not in frequent for subset in combinations(candidate, len(candidate) - 1)
    )


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


# -- the dict-based UH-Mine expander, frozen -------------------------------------------
#: One stored transaction: a tuple of (item, probability) cells in global order.
UHTransaction = Tuple[Tuple[int, float], ...]
#: One projection: (index of the transaction in the UH-Struct, position after
#: which extensions may start, probability of the current prefix).
Projection = Tuple[int, int, float]


def uh_mine_expand_dict(ctx: SearchContext) -> None:
    """The UH-Mine depth-first growth over tuple transactions and dict head tables."""
    frequent_items = ctx.seed_items
    if not frequent_items:
        return
    statistics = ctx.statistics

    item_order = {
        item: rank
        for rank, (item, _) in enumerate(
            sorted(frequent_items.items(), key=lambda kv: (-kv[1][0], kv[0]))
        )
    }
    struct: List[UHTransaction] = [
        tuple(cells)
        for cells in ctx.database.columnar().rows_as_ordered_units(item_order)
        if cells
    ]
    statistics.database_scans += 1
    statistics.notes["uh_struct_cells"] = float(sum(len(cells) for cells in struct))

    # The initial projections: every item starts its own depth-first branch.
    for item in sorted(frequent_items, key=lambda i: item_order[i]):
        projections: List[Projection] = []
        for index, cells in enumerate(struct):
            for position, (cell_item, probability) in enumerate(cells):
                if cell_item == item:
                    projections.append((index, position, probability))
                    break
                if item_order[cell_item] > item_order[item]:
                    break
        _expand_prefix_dict(ctx, struct, (item,), projections, item_order)


def _expand_prefix_dict(
    ctx: SearchContext,
    struct: List[UHTransaction],
    prefix: Tuple[int, ...],
    projections: List[Projection],
    item_order: Dict[int, int],
) -> None:
    """Recursively extend ``prefix`` by items occurring after its projections."""
    # Head table for this prefix: item -> [expected support, variance].
    head: Dict[int, List[float]] = {}
    for index, position, prefix_probability in projections:
        cells = struct[index]
        for cell_item, probability in cells[position + 1 :]:
            joint = prefix_probability * probability
            entry = head.get(cell_item)
            if entry is None:
                head[cell_item] = [joint, joint * (1.0 - joint)]
            else:
                entry[0] += joint
                entry[1] += joint * (1.0 - joint)

    statistics = ctx.statistics
    bar = ctx.search_min_esup
    track_variance = ctx.spec.track_variance
    statistics.candidates_generated += len(head)
    for item in sorted(head, key=lambda i: item_order[i]):
        expected, variance = head[item]
        if expected < bar:
            statistics.candidates_pruned += 1
            continue
        extended = prefix + (item,)
        ctx.record(extended, expected, variance if track_variance else None)
        # Build the projections of the extended prefix.
        extended_projections: List[Projection] = []
        for index, position, prefix_probability in projections:
            cells = struct[index]
            for offset in range(position + 1, len(cells)):
                cell_item, probability = cells[offset]
                if cell_item == item:
                    extended_projections.append(
                        (index, offset, prefix_probability * probability)
                    )
                    break
                if item_order[cell_item] > item_order[item]:
                    break
        _expand_prefix_dict(ctx, struct, extended, extended_projections, item_order)


# -- frozen scalar data generation ---------------------------------------------
#
# The bodies below are verbatim copies of the scalar generation code, with
# ``self`` bound to the model or generator; only the function headers differ.


def _constant_sample(self: ConstantProbabilityModel) -> float:
    return self.probability


def _uniform_sample(self: UniformProbabilityModel) -> float:
    return float(self._rng.uniform(self.low, self.high))


def _gaussian_sample(self: GaussianProbabilityModel) -> float:
    value = float(self._rng.normal(self.mean, self._std))
    return float(min(1.0, max(self.minimum, value)))


def _zipf_sample(self: ZipfProbabilityModel) -> float:
    rank = int(self._rng.choice(len(self.levels), p=self._rank_probabilities))
    return float(self.levels[rank])


_SAMPLES = {
    ConstantProbabilityModel: _constant_sample,
    UniformProbabilityModel: _uniform_sample,
    GaussianProbabilityModel: _gaussian_sample,
    ZipfProbabilityModel: _zipf_sample,
}


def reference_sample(model: ProbabilityModel, tid: int, item: int) -> float:
    """One unit's probability: the frozen scalar ``sample`` of a built-in model.

    Any other model (a subclass overriding ``sample`` or ``__call__``) is
    asked through its own ``__call__``, unit by unit.
    """
    sample = _SAMPLES.get(type(model))
    if sample is None:
        return model(tid, item)
    return sample(model)


def reference_attach_probabilities(
    item_lists: Sequence[Sequence[int]],
    probability_model: Optional[ProbabilityModel] = None,
    name: str = "",
) -> UncertainDatabase:
    """The per-unit, dict-per-transaction ``attach_probabilities``."""
    model = probability_model or ConstantProbabilityModel(1.0)
    transactions: List[UncertainTransaction] = []
    for tid, items in enumerate(item_lists):
        units: Dict[int, float] = {}
        for item in items:
            units[int(item)] = reference_sample(model, tid, int(item))
        transactions.append(UncertainTransaction(tid, units))
    return UncertainDatabase(transactions, name=name)


class ReferenceQuestGenerator:
    """``QuestGenerator`` with one ``Generator.choice`` call per pick."""

    def __init__(
        self,
        n_items: int = 994,
        avg_transaction_length: float = 25.0,
        avg_pattern_length: float = 15.0,
        n_patterns: int = 200,
        correlation: float = 0.5,
        seed: int = 7,
    ) -> None:
        self.n_items = n_items
        self.avg_transaction_length = avg_transaction_length
        self.avg_pattern_length = avg_pattern_length
        self.n_patterns = n_patterns
        self.correlation = correlation
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._patterns = self._build_patterns()
        pattern_weights = self._rng.exponential(scale=1.0, size=len(self._patterns))
        self._pattern_probabilities = pattern_weights / pattern_weights.sum()

    def _build_patterns(self) -> List[List[int]]:
        popularity = self._rng.exponential(scale=1.0, size=self.n_items)
        popularity /= popularity.sum()
        patterns: List[List[int]] = []
        previous: List[int] = []
        for _ in range(self.n_patterns):
            length = max(1, int(self._rng.poisson(self.avg_pattern_length)))
            length = min(length, self.n_items)
            pattern: List[int] = []
            if previous and self._rng.random() < self.correlation:
                carry = max(1, int(len(previous) * self._rng.random()))
                pattern.extend(previous[:carry])
            while len(pattern) < length:
                item = int(self._rng.choice(self.n_items, p=popularity))
                if item not in pattern:
                    pattern.append(item)
            patterns.append(pattern)
            previous = pattern
        return patterns

    def generate_item_lists(self, n_transactions: int) -> List[List[int]]:
        if n_transactions < 0:
            raise ValueError("n_transactions must be non-negative")
        transactions: List[List[int]] = []
        for _ in range(n_transactions):
            target_length = max(1, int(self._rng.poisson(self.avg_transaction_length)))
            target_length = min(target_length, self.n_items)
            chosen: List[int] = []
            chosen_set = set()
            while len(chosen) < target_length:
                pattern_index = int(
                    self._rng.choice(len(self._patterns), p=self._pattern_probabilities)
                )
                for item in self._patterns[pattern_index]:
                    if item not in chosen_set:
                        chosen.append(item)
                        chosen_set.add(item)
                    if len(chosen) >= target_length:
                        break
            transactions.append(chosen)
        return transactions


class ReferenceDenseSparseGenerator:
    """``DenseSparseGenerator`` with one ``random(n_items)`` draw per row.

    The inclusion profile comes from the production generator built with
    the same arguments (its calibration is not under test); the draws come
    from a fresh generator seeded alike.
    """

    def __init__(self, **kwargs) -> None:
        source = DenseSparseGenerator(**kwargs)
        self.n_items = source.n_items
        self._inclusion = source.inclusion_probabilities
        self._rng = np.random.default_rng(source.seed)

    def generate_item_lists(self, n_transactions: int) -> List[List[int]]:
        transactions: List[List[int]] = []
        for _ in range(n_transactions):
            draws = self._rng.random(self.n_items)
            items = np.nonzero(draws < self._inclusion)[0]
            if len(items) == 0:
                # Guarantee non-empty transactions: fall back to the most popular item.
                items = np.array([0])
            transactions.append([int(item) for item in items])
        return transactions


def reference_columns(database: UncertainDatabase) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """The dict-of-lists column pass over the transaction objects."""
    rows_by_item: Dict[int, List[int]] = {}
    probs_by_item: Dict[int, List[float]] = {}
    for row, transaction in enumerate(database):
        for item, probability in transaction.units.items():
            rows_by_item.setdefault(item, []).append(row)
            probs_by_item.setdefault(item, []).append(probability)
    columns: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for item in rows_by_item:
        rows = np.asarray(rows_by_item[item], dtype=np.int64)
        probs = np.asarray(probs_by_item[item], dtype=np.float64)
        columns[item] = (rows, probs)
    return columns
