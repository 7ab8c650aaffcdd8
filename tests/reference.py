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
* :func:`uh_mine_expand_dict` — a frozen copy of the dict-per-cell UH-Mine
  expander the array expander replaced (a ``MinerSpec`` ``expander``):
  tuple-of-cells transactions, one head-table dict per prefix.

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
from repro.db import UncertainDatabase, sample_worlds

__all__ = [
    "exact_frequent_probability",
    "exhaustive_expected",
    "exhaustive_probabilistic",
    "itemset_probabilities",
    "moments",
    "possible_world_expected_support",
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
    if ctx.executor.n_shards > 1:
        # Each shard yields its rows' ordered unit lists; shard order is row
        # order, so the concatenation matches the serial struct exactly.
        struct: List[UHTransaction] = []
        for shard_units in ctx.executor.map_shard_method(
            "rows_as_ordered_units", item_order
        ):
            struct.extend(tuple(cells) for cells in shard_units if cells)
    else:
        struct = [
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
