"""Columnar probability store: the evaluation engine of the database.

Row-major data (the row CSR of :data:`RowCSR`, or transaction dicts)
makes every probability query a walk over all ``N`` transactions.  A
:class:`ColumnarView` holds the same database as CSR-style per-item
columns — for every item, the NumPy arrays of the transaction indices
containing it and the matching existence probabilities, built from the
row CSR by one stable argsort on item — so that

* per-item statistics become a handful of NumPy reductions,
* the probability vector ``p_i(X)`` of an itemset becomes a sparse sorted
  intersection of columns with an elementwise product, and
* a whole Apriori level of candidates is evaluated in one
  :meth:`batch_vectors` call that reuses shared prefix intersections
  (candidates produced by the Apriori join share their ``k - 1``-prefix by
  construction).

Per-transaction products are accumulated in itemset order, exactly like
:meth:`UncertainTransaction.itemset_probability
<repro.db.transaction.UncertainTransaction.itemset_probability>` (the
per-transaction reference oracle of the test-suite), so the non-zero
probabilities are bitwise identical to the oracle's; only full-vector
reductions may differ in the last ulp (different summation orders).

Because every per-transaction product is row-local, a view can also be
:meth:`sliced by row range <ColumnarView.slice_rows>` into independent
shards whose results concatenate back bitwise — the primitive behind the
partition-parallel engine (:mod:`repro.db.partition`).

Level evaluation runs through the **bitset cascade**: per-item occupancy
is packed into bitmaps (:meth:`ColumnarView.item_bitmap`), a whole level's
supporting-row counts come from word-wide bitwise AND + popcount
(:meth:`ColumnarView.level_occupancy_counts`), candidates whose count is
already below the caller's ``minsup`` are killed before any float work,
and the survivors resolve their ``k - 1``-prefixes through a cross-level
byte-budgeted LRU so each costs one gather-and-multiply.  Every surviving
column equals the non-zeros of the reference oracle's ``p_i(X)`` bit for
bit.

>>> from repro.db import UncertainDatabase
>>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}])
>>> view = db.columnar()
>>> view.expected_support((1,))          # esup(X) = sum_i p_i(X)
1.5
>>> view.itemset_probabilities((1, 2)).tolist()
[0.4, 0.0, 0.0]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .cache import ByteBudgetLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import UncertainDatabase

__all__ = [
    "ColumnarView",
    "ItemColumn",
    "RowCSR",
    "BITMAP_CACHE_BYTES",
    "DENSE_CACHE_BYTES",
    "DENSE_CROSSOVER_FRACTION",
    "PREFIX_CACHE_BYTES",
    "csr_offsets",
    "csr_row_ids",
    "popcount_rows",
]

#: One item column: sorted transaction indices and the matching probabilities.
ItemColumn = Tuple[np.ndarray, np.ndarray]

#: A database's rows as a CSR ``(offsets, items, probabilities)``: row ``r``
#: holds the units ``offsets[r]:offsets[r + 1]`` of the int64 ``items`` and
#: float64 ``probabilities``, in the row's own item order.
RowCSR = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_COLUMN: ItemColumn = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)
_EMPTY_COLUMN[0].flags.writeable = False
_EMPTY_COLUMN[1].flags.writeable = False

#: Occupancy fraction of ``N`` at or above which
#: :meth:`ColumnarView._combine_gather` multiplies against the item's dense
#: column instead of running the sorted ``searchsorted`` merge.  A sweep of
#: the two kernels over N in [2e3, 1e5] put them within noise of each other
#: for occupancies of ~15-35% of ``N``; below that band the sparse merge
#: wins by the ratio of occupancy to ``N``, above it the dense path wins
#: because it avoids the searchsorted log-factor and the mask gathers.
#: 0.25 sits inside the indifference band.
DENSE_CROSSOVER_FRACTION = 0.25

# Byte budgets of the view's three derived-array caches (tests monkeypatch
# them to force evictions).
#: A dense column is 8N bytes: ~1000 columns of an N=2000 database, far more
#: than a level-wise run touches, at a fixed worst case.
DENSE_CACHE_BYTES = 16 << 20
#: A bitmap is N/8 bytes, so this is a hard safety bound only.
BITMAP_CACHE_BYTES = 16 << 20
#: A prefix column costs 16 * nnz bytes; 32 MiB keeps every frequent level
#: of the benchmark workloads resident across levels.
PREFIX_CACHE_BYTES = 32 << 20


def csr_offsets(lengths: Sequence[int]) -> np.ndarray:
    """Row offsets (``len(lengths) + 1`` int64, from 0) of rows of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def csr_row_ids(offsets: np.ndarray) -> np.ndarray:
    """The row index of every unit of a row CSR with these ``offsets``."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def _columns_from_rows(
    offsets: np.ndarray, items: np.ndarray, probabilities: np.ndarray
) -> Dict[int, ItemColumn]:
    """The item columns of a row CSR: the one column builder.

    One stable argsort on item groups the units by item while keeping each
    group in row order, so every column's rows come out ascending.  The
    first unit of a group is its item's first appearance scanning row by
    row, and the columns are inserted in that order.  All columns are
    slices of two shared arrays, frozen because columns are handed out
    directly (e.g. single-item candidates in ``batch_columns``): an
    in-place write by a consumer raises instead of corrupting the view.
    """
    if len(items) == 0:
        return {}
    row_ids = csr_row_ids(offsets)
    # A stable order depends only on the values, so a narrow key gives the
    # same order; NumPy sorts it by radix, several times faster than int64.
    keys = items.astype(np.uint16) if int(items.max()) < 1 << 16 else items
    order = np.argsort(keys, kind="stable")
    sorted_items = items[order]
    rows = row_ids[order]
    probs = probabilities[order]
    rows.flags.writeable = False
    probs.flags.writeable = False
    starts = np.flatnonzero(np.diff(sorted_items)) + 1
    bounds = np.concatenate(([0], starts, [len(items)])).tolist()
    group_items = sorted_items[bounds[:-1]].tolist()
    first_appearance = np.argsort(order[bounds[:-1]])
    return {
        group_items[g]: (rows[bounds[g] : bounds[g + 1]], probs[bounds[g] : bounds[g + 1]])
        for g in first_appearance.tolist()
    }


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Per-row population count of a packed ``(rows, width)`` uint8 bitmap.

    Rows are zero-padded to a multiple of 8 bytes, reinterpreted as uint64
    words and counted with the branch-free SWAR reduction — ~4x faster
    than a 256-entry byte lookup table on whole-level bitmaps.

    >>> popcount_rows(np.array([[0b10110000], [0b11111111]], dtype=np.uint8)).tolist()
    [3, 8]
    """
    n_rows, width = packed.shape
    pad = (-width) % 8
    if pad:
        padded = np.zeros((n_rows, width + pad), dtype=np.uint8)
        padded[:, :width] = packed
    else:
        padded = np.ascontiguousarray(packed)
    words = padded.view(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    words = words - ((words >> np.uint64(1)) & m1)
    words = (words & m2) + ((words >> np.uint64(2)) & m2)
    words = (words + (words >> np.uint64(4))) & m4
    return ((words * h01) >> np.uint64(56)).sum(axis=1).astype(np.int64)


class ColumnarView:
    """Immutable columnar projection of an :class:`UncertainDatabase`.

    Parameters
    ----------
    database:
        The database to project.  The view captures the transaction order at
        construction time; databases are effectively immutable so the view
        can be cached on the instance (see :meth:`UncertainDatabase.columnar`).

    Subclassing contract
    --------------------
    Every kernel reads columns exclusively through ``self._columns`` (any
    ``Mapping[int, ItemColumn]`` whose arrays are sorted by row and
    read-only) and ``self._n_transactions``; a subclass may therefore swap
    in a lazy mapping — the out-of-core
    :class:`~repro.db.store.MappedColumnarView` resolves columns as
    ``np.memmap`` slices on demand — and inherit the entire evaluation
    cascade, bit for bit.
    """

    def __init__(self, database: "UncertainDatabase") -> None:
        offsets, items, probabilities = database.row_csr()
        self._n_transactions = len(offsets) - 1
        self._columns = _columns_from_rows(offsets, items, probabilities)
        self._init_caches()

    def _init_caches(self) -> None:
        """(Re)build the lazily filled, byte-budgeted derived-array caches.

        All three caches memoise pure functions of the immutable columns, so
        dropping them (fresh view, unpickle, eviction) can only cost time,
        never correctness.
        """
        #: lazily scattered dense columns, built per item on first dense combine
        self._dense_columns = ByteBudgetLRU(DENSE_CACHE_BYTES)
        #: packed per-item occupancy bitmaps (stage 1 of the cascade)
        self._bitmaps = ByteBudgetLRU(BITMAP_CACHE_BYTES)
        #: cross-level prefix columns (stage 2 of the cascade): the frequent
        #: ``k-1``-columns of one level are exactly the join prefixes of the
        #: next, so persisting them across ``batch_columns`` calls turns a
        #: full prefix rebuild into a single gather-and-multiply
        self._prefix_cache = ByteBudgetLRU(PREFIX_CACHE_BYTES)

    # -- pickling ----------------------------------------------------------------------
    def __getstate__(self):
        # Shard views are shipped to worker processes once per pool; the
        # derived-array caches are cheap to rebuild and would only bloat the
        # pickle, so only the authoritative columns travel.
        return {"n_transactions": self._n_transactions, "columns": self._columns}

    def __setstate__(self, state) -> None:
        self._n_transactions = state["n_transactions"]
        self._columns = state["columns"]
        self._init_caches()

    @classmethod
    def from_columns(
        cls, columns: Mapping[int, ItemColumn], n_transactions: int
    ) -> "ColumnarView":
        """Build a view directly from item columns (no database walk).

        Args:
            columns: ``{item: (row_indices, probabilities)}`` with row
                indices sorted ascending within each column.  The arrays
                are adopted as-is (callers hand over ownership) — including
                zero-copy sources such as shared-memory buffer slices.
            n_transactions: Number of rows the columns index into.

        Returns:
            A view equivalent to one built from the matching database.
        """
        view = cls.__new__(cls)
        view._n_transactions = int(n_transactions)
        view._columns = dict(columns)
        view._init_caches()
        return view

    def slice_rows(self, start: int, stop: int) -> "ColumnarView":
        """An independent view of the row range ``[start, stop)``.

        Row indices are re-based to the slice, so the shard is a
        self-contained columnar database of ``stop - start`` transactions.
        Because per-transaction products are row-local, any candidate's
        compressed probability vector over the shard is exactly the
        corresponding slice of its full-view vector — the exactness
        guarantee the partition-parallel engine builds on.

        Args:
            start: First row (inclusive), ``0 <= start <= stop``.
            stop: Last row (exclusive), ``stop <= n_transactions``.

        Returns:
            A new :class:`ColumnarView` over the selected rows.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5}, {1: 1.0}, {1: 0.2}])
        >>> db.columnar().slice_rows(1, 3).itemset_probabilities((1,)).tolist()
        [1.0, 0.2]
        """
        if not 0 <= start <= stop <= self._n_transactions:
            raise ValueError(
                f"invalid row range [{start}, {stop}) for {self._n_transactions} rows"
            )
        columns: Dict[int, ItemColumn] = {}
        for item, (rows, probs) in self._columns.items():
            lo = int(np.searchsorted(rows, start, side="left"))
            hi = int(np.searchsorted(rows, stop, side="left"))
            if lo == hi:
                continue
            sub_rows = rows[lo:hi] - start
            sub_probs = probs[lo:hi]
            sub_rows.flags.writeable = False
            columns[item] = (sub_rows, sub_probs)
        return ColumnarView.from_columns(columns, stop - start)

    # -- shape -------------------------------------------------------------------------
    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    def __len__(self) -> int:
        return self._n_transactions

    def items(self) -> List[int]:
        """The sorted distinct items of the database."""
        return sorted(self._columns)

    def column(self, item: int) -> ItemColumn:
        """Return the ``(row_indices, probabilities)`` column of ``item``.

        Items absent from the database yield a pair of empty arrays, so the
        sparse algebra below needs no special-casing.
        """
        return self._columns.get(item, _EMPTY_COLUMN)

    def nnz(self) -> int:
        """Total number of stored units (non-zero probabilities)."""
        return sum(len(rows) for rows, _ in self._columns.values())

    def row_csr(self) -> RowCSR:
        """The view back as a row CSR, each row's items ascending.

        Columns are concatenated in ascending item order and one stable
        argsort on row regroups them, so within a row the items keep that
        order.
        """
        items = self.items()
        columns = [self.column(item) for item in items]
        lengths = [len(rows) for rows, _ in columns]
        row_ids = np.concatenate([_EMPTY_COLUMN[0]] + [rows for rows, _ in columns])
        probs = np.concatenate([_EMPTY_COLUMN[1]] + [probs for _, probs in columns])
        item_ids = np.repeat(np.asarray(items, dtype=np.int64), lengths)
        order = np.argsort(row_ids, kind="stable")
        offsets = csr_offsets(np.bincount(row_ids, minlength=self._n_transactions))
        return offsets, item_ids[order], probs[order]

    # -- item statistics ---------------------------------------------------------------
    def item_statistics(self) -> Dict[int, Tuple[float, float]]:
        """Expected support and variance of every single item.

        Implements Definition 1 of the paper per item: ``esup({x}) =
        sum_i p_i(x)`` and, since the support is a sum of independent
        Bernoulli variables, ``Var[sup({x})] = sum_i p_i(x)(1 - p_i(x))``.

        Returns:
            ``{item: (expected_support, variance)}`` for every item that
            occurs in the database.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{7: 0.5}, {7: 0.5}])
        >>> stats = db.columnar().item_statistics()
        >>> stats[7]
        (1.0, 0.5)
        """
        return {
            item: (
                float(probs.sum()),
                float((probs * (1.0 - probs)).sum()),
            )
            for item, (_, probs) in self._columns.items()
        }

    def item_probabilities(self, item: int) -> np.ndarray:
        """Dense per-transaction probability vector of a single item."""
        return self._dense_column(item).copy()

    def rows_as_ordered_units(
        self, item_order: Dict[int, int]
    ) -> List[List[Tuple[int, float]]]:
        """Reconstruct per-transaction ``(item, probability)`` lists in rank order.

        Walking the columns by ascending ``item_order`` rank appends each
        row's units already sorted, so consumers that need rank-ordered
        transactions (the UFP-tree builder) skip the per-transaction sort.
        Rows without any ordered item come back as empty lists so indices
        stay aligned with transaction positions.
        """
        units_per_row: List[List[Tuple[int, float]]] = [
            [] for _ in range(self._n_transactions)
        ]
        for item in sorted(item_order, key=item_order.__getitem__):
            rows, probs = self.column(item)
            for row, probability in zip(rows.tolist(), probs.tolist()):
                units_per_row[row].append((item, probability))
        return units_per_row

    # -- sparse itemset algebra --------------------------------------------------------
    def itemset_column(self, itemset: Iterable[int]) -> ItemColumn:
        """Compressed ``(rows, probabilities)`` of an itemset.

        Implements the independence model of Equation (1) of the paper:
        ``p_i(X) = prod_{x in X} p_i(x)``, evaluated only on the rows that
        contain every member of ``X``.

        Args:
            itemset: The items of ``X`` (any iterable; order defines the
                multiplication order, which matches the reference oracle).

        Returns:
            ``(rows, probabilities)``: the sorted transaction indices
            containing all of ``X`` and the matching per-transaction
            products.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}])
        >>> rows, probs = db.columnar().itemset_column((1, 2))
        >>> rows.tolist(), probs.tolist()
        ([0], [0.4])
        """
        items = tuple(itemset)
        if not items:
            return (
                np.arange(self._n_transactions, dtype=np.int64),
                np.ones(self._n_transactions, dtype=np.float64),
            )
        rows, probs = self.column(items[0])
        for item in items[1:]:
            rows, probs = self._combine_gather(rows, probs, item)
            if len(rows) == 0:
                break
        return rows, probs

    def itemset_probabilities(self, itemset: Iterable[int]) -> np.ndarray:
        """Dense per-transaction probability vector ``p_i(X)`` of ``itemset``."""
        rows, probs = self.itemset_column(itemset)
        dense = np.zeros(self._n_transactions, dtype=np.float64)
        dense[rows] = probs
        return dense

    def expected_support(self, itemset: Iterable[int]) -> float:
        """Expected support ``esup(X) = sum_i p_i(X)`` (Definition 1).

        Args:
            itemset: The items of ``X``.

        Returns:
            The expected support as a float (one vectorized reduction).

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5}, {1: 0.25}])
        >>> db.columnar().expected_support((1,))
        0.75
        """
        return float(self.itemset_column(itemset)[1].sum())

    def support_variance(self, itemset: Iterable[int]) -> float:
        """Support variance ``Var[sup(X)] = sum_i p_i(X)(1 - p_i(X))``.

        The per-transaction occurrences are independent Bernoulli trials,
        so the variance of their sum is the sum of Bernoulli variances —
        the second moment behind the paper's Normal approximation.

        Args:
            itemset: The items of ``X``.

        Returns:
            The variance of the support as a float.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5}, {1: 1.0}])
        >>> db.columnar().support_variance((1,))
        0.25
        """
        probs = self.itemset_column(itemset)[1]
        return float((probs * (1.0 - probs)).sum())

    # -- packed occupancy bitmaps (stage 1 of the cascade) -----------------------------
    def item_bitmap(self, item: int) -> np.ndarray:
        """Packed occupancy bitmap of ``item``: bit ``i`` set iff ``p_i(item) > 0``.

        The bitmap is ``ceil(N / 8)`` bytes (``np.packbits`` layout: bit 7 of
        byte 0 is row 0), built once per item and memoised in a
        byte-budgeted LRU.  Padding bits past row ``N - 1`` are always zero,
        so bitwise ANDs of bitmaps never create phantom rows.
        """
        bitmap = self._bitmaps.get(item)
        if bitmap is None:
            occupied = np.zeros(self._n_transactions, dtype=bool)
            rows, _ = self.column(item)
            occupied[rows] = True
            bitmap = np.packbits(occupied)
            bitmap.flags.writeable = False
            self._bitmaps.put(item, bitmap)
        return bitmap

    def level_bitmaps(self, candidates: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """Packed occupancy of a whole level: one AND-of-members row per candidate.

        Returns:
            A ``(len(candidates), ceil(N / 8))`` uint8 array; row ``c`` is
            the bitwise AND of the member bitmaps of ``candidates[c]`` (an
            empty candidate occupies every row).  The whole level is
            evaluated with word-wide NumPy ANDs — no float work at all.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        width = (self._n_transactions + 7) // 8
        packed = np.empty((len(candidates), width), dtype=np.uint8)
        if not candidates or width == 0:
            return packed
        lengths = np.fromiter(
            (len(candidate) for candidate in candidates),
            dtype=np.int64,
            count=len(candidates),
        )
        if (lengths == 0).any():
            full = np.packbits(np.ones(self._n_transactions, dtype=bool))
            packed[lengths == 0] = full
        distinct = sorted({item for candidate in candidates for item in candidate})
        if not distinct:
            return packed
        stack = np.stack([self.item_bitmap(item) for item in distinct])
        distinct_array = np.asarray(distinct, dtype=np.int64)
        if lengths.min() == lengths.max():
            # One Apriori level: every candidate has the same length, so the
            # member lookup is a single (C, k) searchsorted against the
            # distinct items and the AND reduces over the k id columns.
            members = np.asarray(candidates, dtype=np.int64)
            ids = np.searchsorted(distinct_array, members)
            acc = stack[ids[:, 0]]
            for position in range(1, members.shape[1]):
                acc &= stack[ids[:, position]]
            packed[:] = acc
            return packed
        index = {item: position for position, item in enumerate(distinct)}
        for position in range(int(lengths.max())):
            has = lengths > position
            ids = np.fromiter(
                (
                    index[candidate[position]]
                    for candidate, alive in zip(candidates, has)
                    if alive
                ),
                dtype=np.int64,
                count=int(has.sum()),
            )
            if position == 0:
                packed[has] = stack[ids]
            else:
                packed[has] &= stack[ids]
        return packed

    def level_occupancy_counts(
        self, candidates: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        """Supporting-row count of every candidate via bitmap AND + popcount.

        ``counts[c]`` is the number of transactions containing every member
        of ``candidates[c]`` with positive probability — each candidate's
        maximum attainable support, computed without touching a single
        float.  Row-local, so per-shard counts sum to the global count
        exactly (the property the partitioned kill phase relies on).

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}])
        >>> db.columnar().level_occupancy_counts([(1,), (2,), (1, 2)]).tolist()
        [2, 1, 1]
        """
        if not len(candidates):
            return np.zeros(0, dtype=np.int64)
        packed = self.level_bitmaps(candidates)
        if packed.shape[1] == 0:
            return np.zeros(len(candidates), dtype=np.int64)
        return popcount_rows(packed)

    # -- batched level evaluation ------------------------------------------------------
    def batch_columns(
        self,
        candidates: Sequence[Tuple[int, ...]],
        min_count: float = 0.0,
    ) -> List[ItemColumn]:
        """Evaluate one Apriori level of candidates with shared prefix reuse.

        Candidates are canonical sorted tuples.  Evaluation runs in three
        stages:

        1. when ``min_count > 0``, the whole level's supporting-row counts
           are computed by bitmap AND + popcount and candidates whose count
           is already below ``min_count`` are *killed* — they get the empty
           column without any float work.  Sound for both of the paper's
           definitions: the count is the maximum attainable support, so
           ``count < minsup`` implies ``esup < minsup`` (each probability
           is at most 1) and ``Pr[sup >= minsup] = 0``;
        2. each survivor resolves its ``k - 1``-prefix through the
           cross-level byte-budgeted LRU (the frequent columns of the
           previous level are exactly this level's join prefixes) and pays
           one :meth:`_combine_gather` gather-and-multiply;
        3. that kernel multiplies in itemset order and drops exact-zero
           products, so every survivor column equals the non-zeros of the
           reference oracle's ``p_i(X)`` bit for bit.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        killed = None
        if min_count > 0 and candidates and self._n_transactions:
            killed = self.level_occupancy_counts(candidates) < min_count
        cache: Dict[Tuple[int, ...], ItemColumn] = {}
        results: List[ItemColumn] = []
        for position, candidate in enumerate(candidates):
            if killed is not None and killed[position]:
                results.append(_EMPTY_COLUMN)
            else:
                results.append(self._resolve_cascade(candidate, cache))
        return results

    def _resolve_cascade(
        self, itemset: Tuple[int, ...], cache: Dict[Tuple[int, ...], ItemColumn]
    ) -> ItemColumn:
        """Resolve one candidate column through per-call and cross-level caches.

        Only genuinely computed columns enter the cross-level cache —
        stage-1 kills never do, so a later run with a lower threshold can
        never observe a truncated column.
        """
        if len(itemset) == 0:
            return (
                np.arange(self._n_transactions, dtype=np.int64),
                np.ones(self._n_transactions, dtype=np.float64),
            )
        if len(itemset) == 1:
            return self.column(itemset[0])
        hit = cache.get(itemset)
        if hit is not None:
            return hit
        hit = self._prefix_cache.get(itemset)
        if hit is None:
            prefix_rows, prefix_probs = self._resolve_cascade(itemset[:-1], cache)
            hit = self._combine_gather(prefix_rows, prefix_probs, itemset[-1])
            hit[0].flags.writeable = False
            hit[1].flags.writeable = False
            self._prefix_cache.put(itemset, hit)
        cache[itemset] = hit
        return hit

    def batch_vectors(
        self,
        candidates: Sequence[Tuple[int, ...]],
        min_count: float = 0.0,
    ) -> List[np.ndarray]:
        """The compressed probability vectors of a whole candidate level.

        Args:
            candidates: Canonical sorted tuples, typically one Apriori level.
            min_count: Optional stage-1 kill threshold — candidates whose
                supporting-row count (maximum attainable support) is below
                it come back as empty vectors without any float work.  Only
                pass a threshold the caller's decision rule already implies
                (``minsup`` for the level-wise miners); ``0`` disables
                killing.

        Returns:
            One zeros-omitted ``p_i(X)`` vector per candidate, in candidate
            order (the input every :class:`~repro.core.support.SupportEngine`
            batch consumes).

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {2: 1.0}])
        >>> [v.tolist() for v in db.columnar().batch_vectors([(1,), (2,), (1, 2)])]
        [[0.5], [0.8, 1.0], [0.4]]
        """
        return [
            probs for _, probs in self.batch_columns(candidates, min_count)
        ]

    def batch_probabilities(self, candidates: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """Dense probability matrix, one row per candidate.

        This materialises the full ``(len(candidates), N)`` float64 matrix
        and exists for consumers that genuinely need per-transaction
        alignment (inspection, the database-level batch API).  The mining
        hot paths never call it: every
        :class:`~repro.core.support.SupportEngine` evaluation — including
        the batched DP recurrence — is fed zeros-omitted vectors and pads
        only to the widest *non-zero* width via
        :func:`~repro.core.support.pack_probability_matrix` (pinned by
        ``tests/test_support_memory.py``).
        """
        matrix = np.zeros((len(candidates), self._n_transactions), dtype=np.float64)
        for index, (rows, probs) in enumerate(self.batch_columns(candidates)):
            matrix[index, rows] = probs
        return matrix


    # -- intersection kernels ----------------------------------------------------------
    def _dense_column(self, item: int) -> np.ndarray:
        """Dense (N,) probability vector of ``item``, scattered once and memoised.

        The memo is byte-budgeted (:data:`DENSE_CACHE_BYTES`): a dense
        column costs ``8 * N`` bytes, so an unbounded per-item dictionary
        would pin one full float vector per distinct item forever.  Under
        the LRU, cold items fall out and are rescattered on demand.
        """
        dense = self._dense_columns.get(item)
        if dense is None:
            dense = np.zeros(self._n_transactions, dtype=np.float64)
            rows, probs = self.column(item)
            dense[rows] = probs
            dense.flags.writeable = False
            self._dense_columns.put(item, dense)
        return dense

    def _combine_gather(self, rows: np.ndarray, probs: np.ndarray, item: int) -> ItemColumn:
        """Intersect a running ``(rows, probs)`` pair with the column of ``item``.

        The one combine kernel of the view.  Against a dense item (occupancy
        at least :data:`DENSE_CROSSOVER_FRACTION` of ``N``) the product is a
        gather of the item's dense column *at the running rows* —
        ``O(len(rows))``; sparse items run a sorted-merge ``searchsorted``
        intersection, probing the smaller operand into the larger.

        Every multiplication is ``running * item``, the reference oracle's
        operand order, and exact-zero products (subnormal underflow) are
        dropped, so the column equals the non-zeros of the oracle's
        ``p_i(X)`` bit for bit.
        """
        other_rows, other_probs = self.column(item)
        if len(rows) == 0 or len(other_rows) == 0:
            return _EMPTY_COLUMN
        if len(other_rows) >= int(self._n_transactions * DENSE_CROSSOVER_FRACTION):
            out_rows, product = rows, probs * self._dense_column(item)[rows]
        elif len(rows) > len(other_rows):
            positions = np.searchsorted(rows, other_rows)
            positions[positions == len(rows)] = 0
            mask = rows[positions] == other_rows
            out_rows, product = other_rows[mask], probs[positions[mask]] * other_probs[mask]
        else:
            positions = np.searchsorted(other_rows, rows)
            positions[positions == len(other_rows)] = 0
            mask = other_rows[positions] == rows
            out_rows, product = rows[mask], probs[mask] * other_probs[positions[mask]]
        if np.count_nonzero(product) != len(product):
            keep = product != 0.0
            out_rows, product = out_rows[keep], product[keep]
        return out_rows, product
