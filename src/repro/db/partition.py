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

The merge itself lives in one place,
:class:`~repro.core.parallel.ParallelExecutor`, which evaluates every shard
(in-process at ``workers=1``, pooled otherwise) and concatenates.  Shards
carry no references back to the parent view or database, which makes them
cheap to ship to worker processes (one descriptor per shard per pool, via
the executor's initializer).

>>> from repro.core.parallel import ParallelExecutor
>>> from repro.db import UncertainDatabase
>>> db = UncertainDatabase.from_records(
...     [{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}, {1: 0.2, 2: 0.9}]
... )
>>> partition = db.partition(2)
>>> partition.bounds, [len(shard) for shard in partition.shards]
([(0, 2), (2, 4)], [2, 2])
>>> with ParallelExecutor(1, shard_views=partition.shards) as executor:
...     executor.shard_vectors([(1,)])[0].tolist()  # == unpartitioned vector
[0.5, 1.0, 0.2]
>>> db.columnar().batch_vectors([(1,)])[0].tolist()
[0.5, 1.0, 0.2]
"""

from __future__ import annotations

from typing import List, Tuple

from .columnar import ColumnarView

__all__ = ["ColumnarPartition", "shard_bounds"]


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
    """

    def __init__(self, view: ColumnarView, n_shards: int) -> None:
        #: the ``[start, stop)`` row range of each shard, in row order
        self.bounds = shard_bounds(view.n_transactions, n_shards)
        #: the shard views, in row order
        self.shards: List[ColumnarView] = [
            view.slice_rows(start, stop) for start, stop in self.bounds
        ]
