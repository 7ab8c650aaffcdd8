"""Row-sharding of the columnar database view.

A :class:`ColumnarPartition` splits a :class:`~repro.db.columnar.ColumnarView`
into ``K`` contiguous row ranges, each materialised as an independent
``ColumnarView`` over re-based row indices.  The split is *exact* in a
strong sense that the parallel mining engine relies on:

* the per-transaction probability products are computed row-locally, so a
  candidate's compressed probability vector over shard ``s`` is precisely
  the slice of its full compressed vector falling into shard ``s``'s row
  range, bit for bit;
* concatenating the per-shard compressed vectors in shard order therefore
  reproduces the unpartitioned vector exactly — and with it every moment,
  tail probability and mining decision derived downstream.

Shards carry no references back to the parent view or database, which makes
them cheap to ship to worker processes (one pickle per shard per pool, via
the :class:`~repro.core.parallel.ParallelExecutor` initializer).

>>> from repro.db import UncertainDatabase
>>> db = UncertainDatabase.from_records(
...     [{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}, {1: 0.2, 2: 0.9}]
... )
>>> partition = db.partition(2)
>>> [len(shard) for shard in partition.shards]
[2, 2]
>>> partition.batch_vectors([(1,)])[0].tolist()  # == unpartitioned vector
[0.5, 1.0, 0.2]
>>> db.columnar().batch_vectors([(1,)])[0].tolist()
[0.5, 1.0, 0.2]
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .columnar import ColumnarView

__all__ = ["ColumnarPartition", "shard_bounds", "two_phase_kill"]

_EMPTY_VECTOR = np.empty(0, dtype=np.float64)
_EMPTY_VECTOR.flags.writeable = False


def two_phase_kill(
    candidates: Sequence[Tuple[int, ...]],
    counts: np.ndarray,
    min_count: float,
    evaluate_alive,
) -> List[np.ndarray]:
    """Shared kill phase of every sharded cascade evaluation.

    A shard must never kill against the global threshold on local evidence,
    so sharded callers first sum per-shard occupancy counts into ``counts``
    and only then kill globally: candidates below ``min_count`` become the
    empty vector, the survivors are evaluated through ``evaluate_alive``
    (serial shard loop or pooled fan-out) and spliced back in candidate
    order.  One implementation, used by both
    :meth:`ColumnarPartition.batch_vectors` and
    :meth:`repro.core.parallel.ParallelExecutor.shard_vectors`, so the two
    paths cannot drift apart.
    """
    alive_mask = counts >= min_count
    alive = [candidate for candidate, keep in zip(candidates, alive_mask) if keep]
    merged = iter(evaluate_alive(alive))
    return [next(merged) if keep else _EMPTY_VECTOR for keep in alive_mask]


def shard_bounds(n_transactions: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` row ranges covering the database.

    Args:
        n_transactions: Total number of rows to cover.
        n_shards: Requested shard count; clamped to ``n_transactions`` so no
            shard is empty (an empty database yields a single empty shard).

    Returns:
        One ``(start, stop)`` pair per shard, in row order, partitioning
        ``range(n_transactions)``.

    >>> shard_bounds(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> shard_bounds(2, 5)
    [(0, 1), (1, 2)]
    """
    n_transactions = int(n_transactions)
    n_shards = max(1, min(int(n_shards), max(n_transactions, 1)))
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        size = n_transactions // n_shards + (1 if index < n_transactions % n_shards else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class ColumnarPartition:
    """``K`` independent row shards of one columnar view.

    Args:
        view: The columnar view to shard.
        n_shards: Requested shard count (clamped so no shard is empty).

    The partition itself also answers level queries by fanning out to its
    shards serially and concatenating — the reference implementation of the
    merge the parallel executor performs across processes.
    """

    def __init__(self, view: ColumnarView, n_shards: int) -> None:
        self._n_transactions = view.n_transactions
        self.bounds = shard_bounds(view.n_transactions, n_shards)
        #: the shard views, in row order
        self.shards: List[ColumnarView] = [
            view.slice_rows(start, stop) for start, stop in self.bounds
        ]

    # -- shape -------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    # -- merged level evaluation ---------------------------------------------------
    def level_occupancy_counts(
        self, candidates: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        """Global supporting-row counts, summed over per-shard bitmap popcounts.

        Each shard builds and ANDs its own packed occupancy bitmaps over its
        re-based rows; occupancy is row-local, so the per-shard popcounts
        sum to exactly the unpartitioned
        :meth:`~repro.db.columnar.ColumnarView.level_occupancy_counts`.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        totals = np.zeros(len(candidates), dtype=np.int64)
        for shard in self.shards:
            totals += shard.level_occupancy_counts(candidates)
        return totals

    def batch_vectors(
        self,
        candidates: Sequence[Tuple[int, ...]],
        min_count: float = 0.0,
    ) -> List[np.ndarray]:
        """Compressed probability vectors of a level, merged across shards.

        Per-shard vectors are concatenated in shard order; the result is
        bitwise identical to the unpartitioned
        :meth:`~repro.db.columnar.ColumnarView.batch_vectors`.

        With ``min_count > 0`` the kill phase runs in two global steps: per-shard occupancy counts are
        summed first (a candidate may clear ``min_count`` only across
        shards, so no shard may kill locally), then only the surviving
        candidates are evaluated on every shard — the same kill decisions,
        and the same survivor vectors, as the unpartitioned cascade.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        if min_count > 0 and candidates:
            return two_phase_kill(
                candidates,
                self.level_occupancy_counts(candidates),
                min_count,
                self._merged_vectors,
            )
        return self._merged_vectors(candidates)

    def _merged_vectors(
        self, candidates: Sequence[Tuple[int, ...]]
    ) -> List[np.ndarray]:
        per_shard = [shard.batch_vectors(candidates) for shard in self.shards]
        return [
            np.concatenate([vectors[index] for vectors in per_shard])
            for index in range(len(candidates))
        ]

    def itemset_column(self, itemset) -> Tuple[np.ndarray, np.ndarray]:
        """Merged ``(rows, probabilities)`` of one itemset (rows in global ids)."""
        rows_parts: List[np.ndarray] = []
        probs_parts: List[np.ndarray] = []
        for (start, _), shard in zip(self.bounds, self.shards):
            rows, probs = shard.itemset_column(itemset)
            rows_parts.append(rows + start)
            probs_parts.append(probs)
        return np.concatenate(rows_parts), np.concatenate(probs_parts)
