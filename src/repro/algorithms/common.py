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
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.results import MiningStatistics
from ..core.search import CandidateLevel, ScoredLevel
from ..core.support import SupportEngine
from ..db.columnar import ranges
from ..db.database import UncertainDatabase

__all__ = [
    "instrumented_run",
    "item_statistics",
    "frequent_items_by_expected_support",
    "apriori_join",
    "has_infrequent_subset",
    "trim_transactions",
    "make_candidate_source",
    "make_level_source",
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


def item_statistics(database: UncertainDatabase) -> Mapping[int, Tuple[float, float]]:
    """Return ``{item: (expected_support, variance)}`` for every item.

    One full database scan; the first step of every miner in the paper,
    computed as a pair of NumPy reductions per item column, once per view
    (the read-only mapping is the view's memo).
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


def _join_rows(items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` row pairs of the Apriori join of a sorted level.

    The level's rows are grouped into runs sharing their ``k - 1``-prefix;
    every row joins each later row of its run, so the pairs come out in
    left-row order with ascending right rows — the lexicographic order of
    the candidates they make.
    """
    m = len(items)
    if m < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    boundary = np.ones(m, dtype=bool)
    boundary[1:] = (items[1:, :-1] != items[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(boundary)
    run_ends = np.repeat(np.append(starts[1:], m), np.diff(np.append(starts, m)))
    rows = np.arange(m, dtype=np.int64)
    partners = run_ends - rows - 1
    return np.repeat(rows, partners), ranges(rows + 1, partners)


def apriori_join(frequent_itemsets, presorted: bool = False):
    """Join frequent k-itemsets sharing a (k-1)-prefix into (k+1)-candidates.

    The classic Apriori join: two k-itemsets that agree on their first
    ``k - 1`` items produce one candidate; the subsequent subset check
    (:func:`has_infrequent_subset`) completes the pruning.  Given a
    :class:`~repro.core.search.CandidateLevel` it returns the joined level,
    whose ``parents`` are the left rows and whose ``source`` is the input;
    given canonical sorted tuples it returns the candidates as tuples.

    ``presorted`` skips the defensive sort of a tuple list (a
    :class:`~repro.core.search.CandidateLevel` is always sorted).  The
    search driver maintains the invariant once per run: its seed level is
    sorted, the join of a sorted level is itself sorted (candidates are
    emitted in left-operand order with ascending extensions), and survivor
    filtering preserves order — so no level ever needs re-sorting.

    >>> apriori_join([(1, 2), (1, 3), (1, 4), (2, 3)])
    [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    """
    if isinstance(frequent_itemsets, CandidateLevel):
        level = frequent_itemsets
        left, right = _join_rows(level.items)
        items = np.concatenate([level.items[left], level.items[right, -1:]], axis=1)
        return CandidateLevel(items, parents=left, source=level)
    ordered = list(frequent_itemsets) if presorted else sorted(frequent_itemsets)
    return apriori_join(CandidateLevel.from_tuples(ordered)).tuples()


def _packed_keys(*matrices: np.ndarray) -> List[np.ndarray]:
    """Order-preserving int64 keys of the rows of equally wide item matrices.

    Columns are packed left to right at the bit width of the largest item
    offset; whenever the next column would not fit in 63 bits, the partial
    keys of all matrices are first replaced by their dense ranks
    (``np.unique``), which keeps their order.  Equal rows get equal keys
    and lexicographic row order is key order, so a sorted level's keys
    are sorted.
    """
    filled = [matrix for matrix in matrices if matrix.size]
    low = min(int(matrix.min()) for matrix in filled)
    bits = max(max(int(matrix.max()) - low for matrix in filled).bit_length(), 1)
    if bits > 31:
        # Item ids too wide to share a key with a rank: pack their dense ranks.
        ranks = np.unique(np.concatenate([m.ravel() for m in matrices]), return_inverse=True)[1]
        sizes = np.cumsum([m.size for m in matrices])[:-1]
        matrices = tuple(
            part.reshape(m.shape) for part, m in zip(np.split(ranks.astype(np.int64), sizes), matrices)
        )
        low, bits = 0, max(int(ranks.max()).bit_length(), 1)
    keys = [matrix[:, 0] - low for matrix in matrices]
    used = bits
    for column in range(1, matrices[0].shape[1]):
        if used + bits > 63:
            ranks = np.unique(np.concatenate(keys), return_inverse=True)[1]
            keys = np.split(ranks.astype(np.int64), np.cumsum([len(k) for k in keys])[:-1])
            used = max(int(ranks.max()).bit_length(), 1)
        keys = [(key << bits) | (matrix[:, column] - low) for key, matrix in zip(keys, matrices)]
        used += bits
    return keys


def has_infrequent_subset(candidates: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Which candidates have a k-subset outside ``level`` (downward closure).

    ``candidates`` is an ``(n, k + 1)`` item matrix and ``level`` the
    sorted, duplicate-free ``(m, k)`` matrix of frequent k-itemsets.  Every
    subset that drops one position is packed into an int64 key
    (:func:`_packed_keys`) and looked up by ``searchsorted`` in the level's
    keys; the result is a boolean mask over the candidates.

    >>> level = np.array([[1, 2], [1, 3], [2, 3]])
    >>> has_infrequent_subset(np.array([[1, 2, 3], [1, 2, 4]]), level).tolist()
    [False, True]
    """
    n, width = candidates.shape
    infrequent = np.zeros(n, dtype=bool)
    if n == 0 or width < 2:
        return infrequent
    if len(level) == 0:
        infrequent[:] = True
        return infrequent
    subsets = [np.delete(candidates, position, axis=1) for position in range(width)]
    level_keys, *subset_keys = _packed_keys(level, *subsets)
    last = len(level_keys) - 1
    for keys in subset_keys:
        found = np.minimum(np.searchsorted(level_keys, keys), last)
        infrequent |= level_keys[found] != keys
    return infrequent


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
    database: UncertainDatabase,
) -> Callable[[Sequence[Tuple[int, ...]], float], List[np.ndarray]]:
    """The level evaluator of a run: ``(candidates, min_count) -> vectors``.

    Candidates evaluate through the database's columnar view
    (:meth:`~repro.db.columnar.ColumnarView.batch_vectors`).  ``min_count``
    is the caller's sound stage-1 kill threshold: a candidate with fewer
    supporting rows may come back as an empty vector, because the caller's
    decision rule already rejects it (``esup <= count`` for Definition 2;
    ``Pr[sup >= minsup] = 0`` for Definition 4).  Pass ``0`` when every
    score matters.
    """
    return database.columnar().batch_vectors


def make_level_source(
    database: UncertainDatabase,
) -> Callable[[CandidateLevel, float], ScoredLevel]:
    """The levelwise loop's ``level(candidates, kill) -> ScoredLevel``.

    The level evaluates through the columnar view
    (:meth:`~repro.db.columnar.ColumnarView.batch_vectors`): the
    statistics cover only the candidates that survive the occupancy kill,
    and carry their column block to the next level.
    """
    view = database.columnar()

    def columnar(level: CandidateLevel, kill: float) -> ScoredLevel:
        columns = view.batch_vectors(level, kill)
        engine = SupportEngine(columns.block.vectors())
        return ScoredLevel(level, engine, columns.positions, columns.block)

    return columnar
