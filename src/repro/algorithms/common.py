"""Common subroutines shared by every miner.

The paper's central methodological complaint is that published comparisons
were run over *different* implementation frameworks (different number
types, different low-level containers), so observed gaps mixed algorithmic
and engineering effects.  This module is the analogue of the paper's
"common implementation framework": every miner in this library uses the
same instrumentation, the same item-statistics pass, the same candidate
join and the same transaction-trimming helper, so the differences that
remain are attributable to the algorithms themselves.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.parallel import ParallelExecutor
from ..core.results import MiningStatistics
from ..db.database import UncertainDatabase

__all__ = [
    "instrumented_run",
    "item_statistics",
    "frequent_items_by_expected_support",
    "apriori_join",
    "has_infrequent_subset",
    "trim_transactions",
    "make_candidate_source",
]


@contextmanager
def instrumented_run(statistics: MiningStatistics, track_memory: bool = False):
    """Record elapsed wall-clock time (and optionally peak memory) of a run.

    Memory tracking uses :mod:`tracemalloc`; it measures Python-heap peak
    allocation during the run, the uniform measure the evaluation harness
    reports for every algorithm.  It is opt-in because it roughly doubles
    running time.
    """
    started_tracing = False
    if track_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    if track_memory:
        tracemalloc.reset_peak()
    start = time.perf_counter()
    try:
        yield statistics
    finally:
        statistics.elapsed_seconds = time.perf_counter() - start
        if track_memory:
            _, peak = tracemalloc.get_traced_memory()
            statistics.peak_memory_bytes = int(peak)
            if started_tracing:
                tracemalloc.stop()


def item_statistics(database: UncertainDatabase) -> Dict[int, Tuple[float, float]]:
    """Return ``{item: (expected_support, variance)}`` for every item.

    One full database scan; the first step of every miner in the paper,
    computed as a pair of NumPy reductions per item column.
    """
    return database.columnar().item_statistics()


def frequent_items_by_expected_support(
    database: UncertainDatabase, min_expected_support: float
) -> Dict[int, Tuple[float, float]]:
    """Return the items whose expected support reaches ``min_expected_support``."""
    return {
        item: stats
        for item, stats in item_statistics(database).items()
        if stats[0] >= min_expected_support
    }


def apriori_join(
    frequent_itemsets: Sequence[Tuple[int, ...]], presorted: bool = False
) -> List[Tuple[int, ...]]:
    """Join frequent k-itemsets sharing a (k-1)-prefix into (k+1)-candidates.

    Input and output itemsets are canonical sorted tuples.  The classic
    Apriori join: two k-itemsets that agree on their first ``k - 1`` items
    produce one candidate; the subsequent subset check
    (:func:`has_infrequent_subset`) completes the pruning.

    ``presorted`` skips the defensive sort.  The search driver maintains
    the invariant once per run: its seed level is sorted, the join of a
    sorted level is itself sorted (candidates are emitted in left-operand
    order with ascending extensions), and survivor filtering preserves
    order — so no level ever needs re-sorting.
    """
    ordered = (
        list(frequent_itemsets) if presorted else sorted(frequent_itemsets)
    )
    candidates: List[Tuple[int, ...]] = []
    for index, left in enumerate(ordered):
        prefix = left[:-1]
        for right in ordered[index + 1 :]:
            if right[:-1] != prefix:
                break
            candidates.append(left + (right[-1],))
    return candidates


def has_infrequent_subset(
    candidate: Tuple[int, ...], frequent_itemsets: Set[Tuple[int, ...]]
) -> bool:
    """True if some (k-1)-subset of ``candidate`` is not frequent (downward closure)."""
    for subset in combinations(candidate, len(candidate) - 1):
        if subset not in frequent_itemsets:
            return True
    return False


def trim_transactions(
    database: UncertainDatabase, frequent_items: Iterable[int]
) -> List[Dict[int, float]]:
    """Project the database onto the frequent items.

    Returns plain ``{item: probability}`` dictionaries (the representation
    the level-wise miners iterate over), dropping units of globally
    infrequent items — they can never contribute to a frequent itemset by
    downward closure.  Empty projections are kept so the transaction count
    and every ``N * threshold`` conversion stay unchanged.
    """
    keep = set(frequent_items)
    projected: List[Dict[int, float]] = []
    for transaction in database:
        projected.append(
            {item: p for item, p in transaction.units.items() if item in keep}
        )
    return projected


def make_candidate_source(
    database: UncertainDatabase, executor: Optional[ParallelExecutor] = None
) -> Callable[[Sequence[Tuple[int, ...]], float], List[np.ndarray]]:
    """The level evaluator of a run: ``(candidates, min_count) -> vectors``.

    Unsharded runs evaluate through the database's columnar view
    (:meth:`~repro.db.columnar.ColumnarView.batch_vectors`), sharded ones
    through the executor's per-shard fan-out
    (:meth:`~repro.core.parallel.ParallelExecutor.shard_vectors`) — same
    vectors, bit for bit.  ``min_count`` is the caller's sound stage-1 kill
    threshold: a candidate with fewer supporting rows may come back as an
    empty vector, because the caller's decision rule already rejects it
    (``esup <= count`` for Definition 2; ``Pr[sup >= minsup] = 0`` for
    Definition 4).  Pass ``0`` when every score matters.
    """
    if executor is not None and executor.n_shards > 1:
        return executor.shard_vectors
    return database.columnar().batch_vectors
