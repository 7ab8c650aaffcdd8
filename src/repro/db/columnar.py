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
  :meth:`~ColumnarView.batch_vectors` call: one occupancy kill and one
  gather-multiply from the previous level's survivors, held as one
  :class:`ColumnBlock`.

Per-transaction products are accumulated in itemset order, exactly like
:meth:`UncertainTransaction.itemset_probability
<repro.db.transaction.UncertainTransaction.itemset_probability>` (the
per-transaction reference oracle of the test-suite), so the non-zero
probabilities are bitwise identical to the oracle's; only full-vector
reductions may differ in the last ulp (different summation orders).

Level evaluation runs through the **bitset cascade**: a candidate's
occupancy bitmap is its parent's bitmap AND its item's
(:meth:`ColumnarView.level_occupancy_counts`), packed from their spans
and counted in one compiled loop per level (NumPy's ``np.bitwise_count``
without a C compiler); candidates whose count is already below the
caller's ``minsup`` are killed before any float work, and the survivors'
columns come from one gather over the previous level's column block (a
compiled merge of each parent's span with its item's, or the NumPy
gathers without a C compiler), straight into the next level's block.  A
view that will be mined again (a served dataset's, see
:meth:`ColumnarView.keep_level_columns`) gathers through a byte-budgeted
LRU of each parent's children instead, so a later mine on it reuses
them.  Every surviving column equals the non-zeros of the reference
oracle's ``p_i(X)`` bit for bit.

>>> from repro.db import UncertainDatabase
>>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}])
>>> view = db.columnar()
>>> view.expected_support((1,))          # esup(X) = sum_i p_i(X)
1.5
>>> view.itemset_probabilities((1, 2)).tolist()
[0.4, 0.0, 0.0]
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import kernels
from .cache import ByteBudgetLRU

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import UncertainDatabase

__all__ = [
    "ColumnBlock",
    "ColumnarView",
    "ItemColumn",
    "LevelColumns",
    "RowCSR",
    "BITMAP_CACHE_BYTES",
    "DENSE_CACHE_BYTES",
    "DENSE_CROSSOVER_FRACTION",
    "PREFIX_CACHE_BYTES",
    "csr_offsets",
    "csr_row_ids",
    "popcount_rows",
    "ranges",
]

#: One item column: sorted transaction indices and the matching probabilities.
ItemColumn = Tuple[np.ndarray, np.ndarray]

#: A database's rows as a CSR ``(offsets, items, probabilities)``: row ``r``
#: holds the units ``offsets[r]:offsets[r + 1]`` of the int64 ``items`` and
#: float64 ``probabilities``, in the row's own item order.
RowCSR = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The unit arrays a view's columns are slices of, with each item's
#: ``(start, stop)`` span in them: ``(rows, probs, {item: span})``.
Units = Tuple[np.ndarray, np.ndarray, Mapping[int, Tuple[int, int]]]

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
#: A cached child column costs 16 * nnz bytes; 32 MiB keeps every frequent
#: level of the benchmark workloads resident across the mines of a served
#: view (and a tuple-candidate mine's prefixes within it).
PREFIX_CACHE_BYTES = 32 << 20
#: Bound on one chunk of a level's occupancy kill: the candidates' packed
#: bitmaps (N/8 bytes each) are ANDed and counted this many bytes at a time.
OCCUPANCY_CHUNK_BYTES = 1 << 20
#: Bound on one chunk of a level's gather: the dense item columns it
#: stacks, and the parent rows it probes at 8 bytes each.
GATHER_CHUNK_BYTES = 4 << 20


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
) -> Tuple[Dict[int, ItemColumn], Optional[Units]]:
    """The item columns of a row CSR: the one column builder.

    One stable argsort on item groups the units by item while keeping each
    group in row order, so every column's rows come out ascending.  The
    first unit of a group is its item's first appearance scanning row by
    row, and the columns are inserted in that order.  All columns are
    slices of two shared arrays, frozen because columns are handed out
    directly (e.g. single-item candidates in ``batch_columns``): an
    in-place write by a consumer raises instead of corrupting the view.
    Those arrays and every item's span in them come back as the view's
    :data:`Units`.
    """
    if len(items) == 0:
        return {}, None
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
    columns = {
        group_items[g]: (rows[bounds[g] : bounds[g + 1]], probs[bounds[g] : bounds[g + 1]])
        for g in first_appearance.tolist()
    }
    spans = {item: (bounds[g], bounds[g + 1]) for g, item in enumerate(group_items)}
    return columns, (rows, probs, spans)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[j], starts[j] + lengths[j])`` over ``j``.

    >>> ranges(np.array([5, 0]), np.array([2, 3])).tolist()
    [5, 6, 0, 1, 2]
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total, dtype=np.int64)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Per-row population count of a packed ``(rows, width)`` uint8 bitmap.

    Rows whose width is a multiple of 8 bytes are counted as uint64 words.

    >>> popcount_rows(np.array([[0b10110000], [0b11111111]], dtype=np.uint8)).tolist()
    [3, 8]
    """
    if packed.shape[1] % 8 == 0 and packed.flags.c_contiguous:
        packed = packed.view(np.uint64)
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


#: A gather must hit exactly the rows its occupancy count promised; a
#: stored zero probability is the one way it cannot.
_HITS_DISAGREE = "a column holds a zero probability: occupancy and hits disagree"


def _check_hits(found: int, expected: int) -> None:
    if found != expected:
        raise ValueError(_HITS_DISAGREE)


def _refuse_zero_parents(
    block: "ColumnBlock", parents: np.ndarray, out: "ColumnBlock", dropped: np.ndarray
) -> None:
    """Raise if a zero product at output positions ``dropped`` has a zero parent.

    A zero product is either a subnormal underflow, which is dropped like
    the reference oracle drops it, or a stored zero operand.  The gathers
    already refuse a stored zero item probability as a miss, so only the
    parent operand is looked up here, in its span of ``block``.
    """
    owners = np.searchsorted(out.ends, dropped, side="right")
    for position, owner in zip(dropped.tolist(), owners.tolist()):
        lo, hi = int(block.starts[parents[owner]]), int(block.ends[parents[owner]])
        at = lo + int(np.searchsorted(block.rows[lo:hi], out.rows[position]))
        if block.probs[at] == 0.0:
            raise ValueError(_HITS_DISAGREE)


class _Children:
    """One prefix-LRU entry: the columns of a parent's computed children.

    ``items`` are the children's extension items, ascending; child ``j``
    owns ``rows[starts[j]:ends[j]]`` and the matching ``probs``.  Every
    array is the entry's own copy, so :attr:`payload_nbytes` is exactly
    what the entry keeps alive; the rows and probabilities, which hits
    hand out, are frozen.  The :attr:`block` is built on a hit.
    """

    __slots__ = ("items", "rows", "probs", "starts", "ends", "payload_nbytes")

    def __init__(
        self, items: np.ndarray, rows: np.ndarray, probs: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        self.items, self.starts, self.ends = items.copy(), starts.copy(), ends.copy()
        self.rows, self.probs = rows.copy(), probs.copy()
        self.rows.flags.writeable = self.probs.flags.writeable = False
        self.payload_nbytes = 24 * len(items) + 16 * len(rows)

    @property
    def block(self) -> "ColumnBlock":
        return ColumnBlock(self.rows, self.probs, self.starts, self.ends)


class ColumnBlock:
    """The columns of a run of itemsets, as spans of shared unit arrays.

    Itemset ``j`` owns ``rows[starts[j]:ends[j]]`` (ascending) and the
    matching ``probs``.  A gathered level is *compact* (each itemset's
    units follow the previous one's), so its survivors travel to the next
    level as one block and are gathered from with a few array operations;
    a seed level's block can span the database's own column arrays.
    """

    __slots__ = ("rows", "probs", "starts", "ends")

    def __init__(
        self, rows: np.ndarray, probs: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        self.rows = rows
        self.probs = probs
        self.starts = starts
        self.ends = ends

    @classmethod
    def compact(cls, rows: np.ndarray, probs: np.ndarray, lengths) -> "ColumnBlock":
        offsets = csr_offsets(lengths)
        return cls(rows, probs, offsets[:-1], offsets[1:])

    @classmethod
    def of(cls, columns: Sequence[ItemColumn]) -> "ColumnBlock":
        return cls.compact(
            np.concatenate([_EMPTY_COLUMN[0]] + [rows for rows, _ in columns]),
            np.concatenate([_EMPTY_COLUMN[1]] + [probs for _, probs in columns]),
            [len(rows) for rows, _ in columns],
        )

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return self.rows, self.probs, self.starts, self.ends

    def column(self, j: int) -> ItemColumn:
        lo, hi = self.starts[j], self.ends[j]
        return self.rows[lo:hi], self.probs[lo:hi]

    def vectors(self) -> List[np.ndarray]:
        """Every itemset's probabilities, as slices of the one array."""
        return [self.probs[lo:hi] for lo, hi in zip(self.starts.tolist(), self.ends.tolist())]

    def units(self) -> np.ndarray:
        """The positions of every itemset's units, itemset by itemset."""
        return ranges(self.starts, self.lengths)

    def select(self, positions) -> "ColumnBlock":
        """Itemsets at ``positions`` (an index array or a slice), sharing this block's arrays."""
        return ColumnBlock(self.rows, self.probs, self.starts[positions], self.ends[positions])

    @classmethod
    def concat(cls, blocks: Sequence["ColumnBlock"]) -> "ColumnBlock":
        """The itemsets of ``blocks`` in order, copied into one compact block."""
        at = [block.units() for block in blocks]
        return cls.compact(
            np.concatenate([block.rows[units] for block, units in zip(blocks, at)]),
            np.concatenate([block.probs[units] for block, units in zip(blocks, at)]),
            np.concatenate([block.lengths for block in blocks]),
        )


class LevelColumns:
    """The evaluated columns of one candidate level.

    The candidates at ``positions`` survived the occupancy kill and
    ``block`` holds their columns, in candidate order; the others allocate
    nothing.  As a sequence it is what :meth:`ColumnarView.batch_vectors`
    returns for any candidates: one vector per candidate, empty for a
    killed one.
    """

    __slots__ = ("positions", "block", "size")

    def __init__(self, positions: np.ndarray, block: ColumnBlock, size: int) -> None:
        self.positions = positions
        self.block = block
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        vectors = [_EMPTY_COLUMN[1]] * self.size
        for position, vector in zip(self.positions.tolist(), self.block.vectors()):
            vectors[position] = vector
        return iter(vectors)


def _candidate_level():
    """:class:`~repro.core.search.CandidateLevel`, imported late (``core`` imports ``db``)."""
    from ..core.search import CandidateLevel

    return CandidateLevel


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
        self._columns, units = _columns_from_rows(offsets, items, probabilities)
        self._init_caches()
        self._units = units

    def _init_caches(self) -> None:
        """(Re)build the lazily filled derived state of the view.

        The three byte-budgeted caches and the item statistics memoise pure
        functions of the immutable columns, so dropping them (fresh view,
        eviction) can only cost time, never correctness.
        """
        #: lazily scattered dense columns of ``itemset_column``'s combine
        self._dense_columns = ByteBudgetLRU(DENSE_CACHE_BYTES)
        #: packed per-item occupancy bitmaps: the kill of tuple candidates
        #: (and of joined levels without the compiled kernels)
        self._bitmaps = ByteBudgetLRU(BITMAP_CACHE_BYTES)
        #: the prefix LRU (stage 2 of the cascade): parent itemset -> the
        #: columns of the children computed for it (:class:`_Children`).
        #: Tuple candidates (``batch_columns``) always read and fill it;
        #: joined levels only on a view that keeps them
        #: (:meth:`keep_level_columns`), so a later mine on it gathers none
        #: of them again.  A one-shot mine's levels gather straight into
        #: the next level and leave it empty.
        self._prefix_cache = ByteBudgetLRU(PREFIX_CACHE_BYTES)
        self._keep_levels = False
        #: :meth:`item_statistics`, read-only, computed on first use
        self._item_stats: Optional[Mapping[int, Tuple[float, float]]] = None
        #: the shared arrays behind the columns, when the view knows them
        #: (:meth:`_block_of` then builds a seed block without copying)
        self._units: Optional[Units] = None

    @classmethod
    def from_columns(
        cls, columns: Mapping[int, ItemColumn], n_transactions: int
    ) -> "ColumnarView":
        """Build a view directly from item columns (no database walk).

        Args:
            columns: ``{item: (row_indices, probabilities)}`` with row
                indices sorted ascending within each column.  The arrays
                are adopted as-is (callers hand over ownership).
            n_transactions: Number of rows the columns index into.

        Returns:
            A view equivalent to one built from the matching database.
        """
        view = cls.__new__(cls)
        view._n_transactions = int(n_transactions)
        view._columns = dict(columns)
        view._init_caches()
        return view

    def keep_level_columns(self) -> None:
        """Keep every joined level's gathered columns for later mines on this view.

        From now on a level's children enter the prefix LRU as they are
        gathered, and a later mine serves every parent it finds there
        instead of gathering it again.  Filling costs one copy per parent,
        which repays only on a view that will be mined again: the service
        registry opts each registered dataset's view in, and a one-shot
        ``repro.mine`` view does not.  The answers are the same bits either
        way.
        """
        self._keep_levels = True

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
    def item_statistics(self) -> Mapping[int, Tuple[float, float]]:
        """Expected support and variance of every single item.

        Implements Definition 1 of the paper per item: ``esup({x}) =
        sum_i p_i(x)`` and, since the support is a sum of independent
        Bernoulli variables, ``Var[sup({x})] = sum_i p_i(x)(1 - p_i(x))``.
        The view is immutable, so the reductions run once per view; every
        call hands out the same read-only mapping.

        Returns:
            ``{item: (expected_support, variance)}`` for every item that
            occurs in the database.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{7: 0.5}, {7: 0.5}])
        >>> stats = db.columnar().item_statistics()
        >>> stats[7]
        (1.0, 0.5)
        """
        if self._item_stats is None:
            self._item_stats = MappingProxyType(self._compute_item_statistics())
        return self._item_stats

    def _compute_item_statistics(self) -> Dict[int, Tuple[float, float]]:
        """The reductions behind :meth:`item_statistics`, run once per view."""
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
        """Packed occupancy of a candidate list: one AND-of-members row per candidate.

        Returns:
            A ``(len(candidates), ceil(N / 8))`` uint8 array; row ``c`` is
            the bitwise AND of the member bitmaps of ``candidates[c]`` (an
            empty candidate occupies every row).  The whole list is
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
            # Equally long candidates: the member lookup is a single (C, k)
            # searchsorted against the distinct items and the AND reduces
            # over the k id columns.
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

    def level_occupancy_counts(self, candidates) -> np.ndarray:
        """Supporting-row count of every candidate via bitmap AND + popcount.

        ``counts[c]`` is the number of transactions containing every member
        of candidate ``c`` with positive probability — its maximum
        attainable support, computed without touching a single float.

        ``candidates`` is a list of tuples (each ANDs its members'
        bitmaps) or a :class:`~repro.core.search.CandidateLevel`; in a
        joined level a candidate's bitmap is its parent column's rows AND
        its extension item's bitmap (:meth:`_child_counts`).  A parent column
        holds only non-zero products, so that count is lower than the
        members' AND only where a parent product underflowed to zero — it
        still bounds the candidate's support from above.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}])
        >>> db.columnar().level_occupancy_counts([(1,), (2,), (1, 2)]).tolist()
        [2, 1, 1]
        """
        if isinstance(candidates, _candidate_level()):
            if candidates.parents is None:
                return self.level_occupancy_counts(candidates.tuples())
            source = candidates.source.items
            return self._child_counts(
                self._parent_block(candidates),
                candidates.parents,
                candidates.items[:, -1],
                source[:, 0] if source.shape[1] == 1 else None,
            )
        if not len(candidates):
            return np.zeros(0, dtype=np.int64)
        packed = self.level_bitmaps(candidates)
        if packed.shape[1] == 0:
            return np.zeros(len(candidates), dtype=np.int64)
        return popcount_rows(packed)

    def _child_counts(
        self,
        block: ColumnBlock,
        parents: np.ndarray,
        items: np.ndarray,
        parent_items: Optional[np.ndarray] = None,
        looked_up: Optional[Tuple[np.ndarray, np.ndarray, Optional[ColumnBlock]]] = None,
    ) -> np.ndarray:
        """Occupancy of ``block``'s itemset ``parents[c]`` extended by ``items[c]``.

        The count is exactly the number of rows a gather of the candidate
        hits.  With the compiled kernels, one C loop
        (:func:`repro.core.kernels.child_counts`) packs the bitmaps of the
        distinct items from their spans (:meth:`_item_spans`) and each
        parent's from its span of ``block``, then ANDs and counts them.
        Without them, NumPy does the same in chunks: each packs the bitmaps
        of the parents it spans straight from their block rows, then ANDs
        every candidate's parent bitmap with its item's and counts the bits,
        so the temporaries stay near :data:`OCCUPANCY_CHUNK_BYTES` (8 times
        that for the parents' rows before packing) whatever the level's
        size.  There, single-item parents (``parent_items``) take their item
        bitmaps from the per-item LRU (:meth:`item_bitmap`) instead.
        ``looked_up`` is :meth:`_distinct_items` of ``items`` when the
        caller has it already.
        """
        n = len(parents)
        counts = np.zeros(n, dtype=np.int64)
        if n == 0 or self._n_transactions == 0:
            return counts
        distinct, which, spans = looked_up or self._distinct_items(items)
        if spans is not None:
            return kernels.child_counts(
                block.rows, block.starts, block.ends, parents,
                spans.rows, spans.starts, spans.ends, which, self._n_transactions,
            )
        bitmaps = np.stack([self.item_bitmap(item) for item in distinct.tolist()])
        # Whole uint64 words: zero padding past row N - 1 adds no bits.
        width = -(-bitmaps.shape[1] // 8) * 8
        item_bitmaps = np.zeros((len(distinct), width), dtype=np.uint8)
        item_bitmaps[:, : bitmaps.shape[1]] = bitmaps
        step = max(1, OCCUPANCY_CHUNK_BYTES // width)
        spans = list(zip(block.starts.tolist(), block.ends.tolist()))
        for start in range(0, n, step):
            chunk = parents[start : start + step]
            first, last = int(chunk.min()), int(chunk.max()) + 1
            if parent_items is not None:
                packed = [self.item_bitmap(item) for item in parent_items[first:last].tolist()]
            else:
                occupied = np.zeros((last - first, self._n_transactions), dtype=bool)
                for row, (lo, hi) in enumerate(spans[first:last]):
                    occupied[row, block.rows[lo:hi]] = True
                packed = np.packbits(occupied, axis=1)
            parent_bitmaps = np.zeros((last - first, width), dtype=np.uint8)
            parent_bitmaps[:, : bitmaps.shape[1]] = packed
            counts[start : start + step] = popcount_rows(
                parent_bitmaps[chunk - first] & item_bitmaps[which[start : start + step]]
            )
        return counts

    # -- batched level evaluation ------------------------------------------------------
    def _level_columns(self, level, min_count: float) -> LevelColumns:
        """Kill and gather one :class:`~repro.core.search.CandidateLevel`.

        The survivors are the candidates whose occupancy count reaches
        ``min_count`` (all of them when it is ``0``).  A joined level
        gathers from its source level's block (the previous level's
        survivors; a seed level's block is built from its item columns on
        first use) in one :meth:`_gather`, straight into the block the next
        level joins from; a view that keeps its levels
        (:meth:`keep_level_columns`) gathers through the prefix LRU
        (:meth:`_children`) instead.
        """
        if level.parents is None:
            positions = self._alive(level.tuples(), min_count)
            return LevelColumns(positions, self._block_of(level.items[positions]), len(level))
        positions, counts = np.arange(len(level)), None
        if min_count > 0 and len(level) and self._n_transactions:
            counts = self.level_occupancy_counts(level)
            positions = np.flatnonzero(counts >= min_count)
            counts = counts[positions]
        parent_block = self._parent_block(level)
        parents, items = level.parents[positions], level.items[positions, -1]
        if self._keep_levels:
            block = self._children(level.source.tuples(), parent_block, parents, items, counts)
        else:
            block = self._gather(parent_block, parents, items, counts)
        return LevelColumns(positions, block, len(level))

    def _parent_block(self, level) -> ColumnBlock:
        """The column block of ``level``'s source level (built once if absent)."""
        source = level.source
        if source.columns is None:
            source.columns = self._block_of(source.items)
        return source.columns

    def _block_of(self, items: np.ndarray) -> ColumnBlock:
        """The columns of the itemsets in the rows of ``items``, as one block.

        Single items span the arrays the view's columns are slices of
        (:data:`Units`), when the view knows them, instead of copying.
        """
        if items.shape[1] != 1 or self._units is None:
            return ColumnBlock.of(self._itemset_columns([tuple(row) for row in items.tolist()]))
        rows, probs, spans = self._units
        bounds = np.array([spans.get(item, (0, 0)) for item in items[:, 0].tolist()], dtype=np.int64)
        starts, ends = bounds.reshape(len(items), 2).T.copy()
        return ColumnBlock(rows, probs, starts, ends)

    def _alive(self, candidates: List[Tuple[int, ...]], min_count: float) -> np.ndarray:
        """Positions of the candidates whose occupancy count reaches ``min_count``."""
        if min_count > 0 and candidates and self._n_transactions:
            return np.flatnonzero(self.level_occupancy_counts(candidates) >= min_count)
        return np.arange(len(candidates))

    def batch_columns(
        self,
        candidates: Sequence[Tuple[int, ...]],
        min_count: float = 0.0,
    ) -> List[ItemColumn]:
        """Evaluate a list of candidates with shared prefix reuse.

        Candidates are canonical sorted tuples, of any lengths.  When
        ``min_count > 0``, candidates whose supporting-row count is below it
        are *killed* by bitmap AND + popcount and get the empty column
        without any float work (see :meth:`batch_vectors` for why that is
        sound).  The survivors resolve each distinct ``k - 1``-prefix once
        (:meth:`_prefix_column`) and are gathered in one block, so every
        survivor column equals the non-zeros of the reference oracle's
        ``p_i(X)`` bit for bit.
        """
        candidates = [tuple(candidate) for candidate in candidates]
        alive = self._alive(candidates, min_count).tolist()
        columns: List[ItemColumn] = [_EMPTY_COLUMN] * len(candidates)
        for position, column in zip(
            alive, self._itemset_columns([candidates[p] for p in alive])
        ):
            columns[position] = column
        return columns

    def _itemset_columns(self, itemsets: Sequence[Tuple[int, ...]]) -> List[ItemColumn]:
        """Columns of arbitrary itemsets, each distinct prefix resolved once."""
        columns: List[ItemColumn] = [_EMPTY_COLUMN] * len(itemsets)
        prefixes: Dict[Tuple[int, ...], int] = {}
        extended = []
        for position, itemset in enumerate(itemsets):
            if len(itemset) < 2:
                columns[position] = self.itemset_column(itemset)
            else:
                parent = prefixes.setdefault(itemset[:-1], len(prefixes))
                extended.append((parent, itemset[-1], position))
        if extended:
            extended.sort()
            parents, items, positions = (
                np.array(values, dtype=np.int64) for values in zip(*extended)
            )
            keys = list(prefixes)
            parent_block = ColumnBlock.of([self._prefix_column(key) for key in keys])
            block = self._children(keys, parent_block, parents, items)
            for j, position in enumerate(positions.tolist()):
                columns[position] = block.column(j)
        return columns

    def _prefix_column(self, itemset: Tuple[int, ...]) -> ItemColumn:
        """The column of ``itemset``: from its parent's cached children, else computed."""
        if len(itemset) >= 2:
            hit = self._prefix_cache.get(itemset[:-1])
            if hit is not None:
                at = int(np.searchsorted(hit.items, itemset[-1]))
                if at < len(hit.items) and hit.items[at] == itemset[-1]:
                    return hit.block.column(at)
        return self.itemset_column(itemset)

    def _children(
        self,
        keys: Sequence[Tuple[int, ...]],
        block: ColumnBlock,
        parents: np.ndarray,
        items: np.ndarray,
        counts: Optional[np.ndarray] = None,
    ) -> ColumnBlock:
        """Columns of the candidates ``keys[parents[c]] + (items[c],)``.

        Candidates come grouped by parent, items ascending within a parent.
        The cross-level prefix LRU maps a parent itemset to the columns of
        the children computed for it, so a later batch of tuple candidates,
        or a later mine on a view that keeps its levels
        (:meth:`keep_level_columns`, a served dataset), gathers nothing it
        has gathered before.  It is
        looked up once per parent: a parent whose wanted children are all
        cached is served from its entry, the others are gathered together
        in one :meth:`_gather` and each enters the LRU as its own copy (the
        budget charges exactly the bytes an entry keeps alive; a parent
        whose children would take over an eighth of the budget is not
        copied, as it would evict much of the cache for one entry).  ``counts``
        are the candidates' occupancy counts, when the kill computed them.
        """
        n = len(parents)
        if n == 0:
            return ColumnBlock.of([])
        starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
        bounds = np.append(starts, n).tolist()
        group_parents = parents[starts].tolist()
        cache = self._prefix_cache
        cached = len(cache) > 0  # a fresh view's first level skips the lookups
        served: Dict[int, ColumnBlock] = {}
        missed: List[int] = []
        for group, parent in enumerate(group_parents):
            hit = cache.get(keys[parent]) if cached else None
            if hit is not None:
                wanted = items[bounds[group] : bounds[group + 1]]
                at = np.searchsorted(hit.items, wanted)
                if at[-1] < len(hit.items) and np.array_equal(hit.items[at], wanted):
                    served[group] = hit.block.select(at)
                    continue
            missed.append(group)
        if not missed:
            return ColumnBlock.concat([served[group] for group in range(len(starts))])
        sizes = np.diff(bounds)[missed]
        gathered_at = ranges(starts[missed], sizes)
        gathered_items = items[gathered_at]
        gathered = self._gather(
            block,
            parents[gathered_at],
            gathered_items,
            None if counts is None else counts[gathered_at],
        )
        # Each missed parent's children are one run of the compact block:
        # their spans relative to the run's first unit, for all runs at once.
        runs = csr_offsets(sizes)
        run_lo = gathered.starts[runs[:-1]]
        run_hi = gathered.ends[runs[1:] - 1]
        shift = np.repeat(run_lo, sizes)
        local_starts, local_ends = gathered.starts - shift, gathered.ends - shift
        limit = cache.budget_bytes // 8
        runs, run_lo, run_hi = runs.tolist(), run_lo.tolist(), run_hi.tolist()
        for run, group in enumerate(missed):
            a, b, lo, hi = runs[run], runs[run + 1], run_lo[run], run_hi[run]
            if 16 * (hi - lo) <= limit:
                cache.put(
                    keys[group_parents[group]],
                    _Children(
                        gathered_items[a:b], gathered.rows[lo:hi], gathered.probs[lo:hi],
                        local_starts[a:b], local_ends[a:b],
                    ),
                )
            if served:
                served[group] = gathered.select(slice(a, b))
        if not served:
            return gathered
        return ColumnBlock.concat([served[group] for group in range(len(starts))])

    def _gather(
        self,
        block: ColumnBlock,
        parents: np.ndarray,
        items: np.ndarray,
        counts: Optional[np.ndarray] = None,
    ) -> ColumnBlock:
        """The vectorized combine: ``block``'s itemset ``parents[c]`` times ``items[c]``.

        The occupancy ``counts`` (:meth:`_child_counts`, computed here when
        not given) are exactly the rows each candidate hits, so the output
        is allocated once and every hit written in its place.  With the
        compiled kernels, one C loop (:func:`repro.core.kernels.gather`)
        merges each parent's span with its item's span, read in place from
        the view's :data:`Units` (:meth:`_item_spans`).  Without them, the
        NumPy gathers run, with the crossover of :meth:`_combine_gather`:
        where the item is dense (occupancy at least
        :data:`DENSE_CROSSOVER_FRACTION` of ``N``) the parent's rows read the
        item's probabilities off a dense copy of its column
        (:meth:`_gather_dense`); otherwise the shorter operand's rows are
        looked up in the longer one by ``searchsorted``
        (:meth:`_gather_sparse`).  Both paths give the same bits.  A row
        whose item probability is a stored zero is a miss on every path, so
        the hits fall short of the count and the gather raises
        ``ValueError``; a stored zero on the parent side (a single item's
        own column) is found where its product came out zero, and raises
        too.  Every multiplication is ``parent * item``, the
        reference oracle's operand order, and exact-zero products
        (subnormal underflow) are dropped, exactly like
        :meth:`_combine_gather`.
        """
        looked_up = self._distinct_items(items)
        if counts is None:
            counts = self._child_counts(block, parents, items, looked_up=looked_up)
        total = int(counts.sum())
        out = ColumnBlock.compact(
            np.empty(total, dtype=np.int64), np.empty(total, dtype=np.float64), counts
        )
        starts = block.starts[parents]
        distinct, which, spans = looked_up
        if spans is not None:
            failed = kernels.gather(
                block.rows, block.probs, starts, block.ends[parents],
                spans.rows, spans.probs, spans.starts[which], spans.ends[which],
                out.rows, out.probs, out.starts, counts,
            )
            if failed >= 0:
                raise ValueError(_HITS_DISAGREE)
        else:
            parent_lengths = block.ends[parents] - starts
            columns = [self.column(item) for item in distinct.tolist()]
            item_lengths = np.array([len(rows) for rows, _ in columns], dtype=np.int64)
            lengths = item_lengths[which]
            dense = lengths >= int(self._n_transactions * DENSE_CROSSOVER_FRACTION)
            self._gather_dense(
                out, block, starts, parent_lengths, which, distinct.tolist(), np.flatnonzero(dense)
            )
            shorter_parent = parent_lengths <= lengths
            for parent_probes in (True, False):
                chosen = np.flatnonzero(~dense & (shorter_parent == parent_probes))
                if len(chosen):
                    self._gather_sparse(out, block, parents, which, columns, chosen, parent_probes)
        nonzero = out.probs != 0.0
        if nonzero.all():
            return out
        _refuse_zero_parents(block, parents, out, np.flatnonzero(~nonzero))
        kept = np.concatenate(([0], np.cumsum(nonzero)))
        return ColumnBlock.compact(
            out.rows[nonzero], out.probs[nonzero], kept[out.ends] - kept[out.starts]
        )

    @staticmethod
    def _write(
        out: ColumnBlock, candidates: np.ndarray, hit: np.ndarray, rows: np.ndarray, products
    ) -> None:
        """Write the probes of ``candidates`` at positions ``hit`` into their places.

        Each candidate's probes are one run in row order, and the occupancy
        counts the output was allocated with say how many of them hit;
        ``products`` are the hits' products.  ``hit`` is an index array:
        one ``flatnonzero`` costs less than a boolean mask applied to each
        of the probe arrays.
        """
        at = ranges(out.starts[candidates], out.lengths[candidates])
        _check_hits(len(hit), len(at))
        out.rows[at] = rows[hit]
        out.probs[at] = products

    def _gather_dense(self, out, block, starts, parent_lengths, which, distinct, chosen) -> None:
        """Parent rows probe dense copies of their items' columns.

        The dense columns come from :meth:`_dense_column`, memoised across
        levels, mines and requests.  The candidates are probed together off
        one stacked ``(items, N)`` matrix; when that matrix, or the parent
        rows probed at 8 bytes each, would exceed :data:`GATHER_CHUNK_BYTES`,
        they are taken in item order and cut into chunks that fit, so the
        temporaries stay bounded on any level.
        """
        if not len(chosen):
            return
        stride = max(self._n_transactions, 1)
        max_items = max(1, GATHER_CHUNK_BYTES // (8 * stride))
        max_probes = max(1, GATHER_CHUNK_BYTES // 8)
        chunks = [chosen]
        if len(np.unique(which[chosen])) > max_items or parent_lengths[chosen].sum() > max_probes:
            order = chosen[np.argsort(which[chosen], kind="stable")]
            bounds, chunk_items, chunk_probes, previous = [0], 0, 0, -1
            for position, (item, cost) in enumerate(
                zip(which[order].tolist(), parent_lengths[order].tolist())
            ):
                new_item = item != previous
                if position > bounds[-1] and (
                    chunk_probes + cost > max_probes or (new_item and chunk_items == max_items)
                ):
                    bounds.append(position)
                    chunk_items = chunk_probes = 0
                    new_item = True
                chunk_items += new_item
                chunk_probes += cost
                previous = item
            bounds.append(len(order))
            chunks = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        for candidates in chunks:
            local_items, local = np.unique(which[candidates], return_inverse=True)
            dense = np.stack([self._dense_column(distinct[index]) for index in local_items.tolist()])
            counts = parent_lengths[candidates]
            at = ranges(starts[candidates], counts)
            rows = block.rows[at]
            values = dense.reshape(-1)[np.repeat(local * stride, counts) + rows]
            hit = np.flatnonzero(values)
            self._write(out, candidates, hit, rows, block.probs[at[hit]] * values[hit])

    def _gather_sparse(self, out, block, parents, which, columns, chosen, parent_probes) -> None:
        """Sparse items meet their parents by ``searchsorted``, the shorter side probing.

        The probing side's rows are looked up in the other side's sorted
        ``itemset * N + row`` keys: an item's rows in the parent block's, or
        (``parent_probes``) a parent's rows in the keys of the columns of
        the items it meets.  Nothing is scattered to length ``N``.
        """
        stride = max(self._n_transactions, 1)
        local_items, local = np.unique(which[chosen], return_inverse=True)
        items_block = ColumnBlock.of([columns[index] for index in local_items.tolist()])
        sides = ((block, parents[chosen]), (items_block, local))
        (probe, probe_ids), (target, target_ids) = sides if parent_probes else sides[::-1]
        counts = probe.lengths[probe_ids]
        at = ranges(probe.starts[probe_ids], counts)
        rows = probe.rows[at]
        units = target.units()
        keys = np.repeat(np.arange(len(target)), target.lengths) * stride + target.rows[units]
        query = np.repeat(target_ids, counts) * stride + rows
        found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        hit = np.flatnonzero(keys[found] == query)
        probed, matched = at[hit], units[found[hit]]
        parent_at, item_at = (probed, matched) if parent_probes else (matched, probed)
        item_probs = items_block.probs[item_at]
        live = np.flatnonzero(item_probs)  # a zero item probability is a miss
        if len(live) < len(hit):
            hit, parent_at, item_probs = hit[live], parent_at[live], item_probs[live]
        self._write(out, chosen, hit, rows, block.probs[parent_at] * item_probs)

    def _distinct_items(
        self, items: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[ColumnBlock]]:
        """``items``' distinct values, each entry's index among them, and their spans.

        The spans (:meth:`_item_spans`) are what the compiled kill and
        gather read, so they are ``None`` without the compiled kernels.
        """
        distinct, which = np.unique(items, return_inverse=True)
        spans = self._item_spans(distinct) if kernels.library() is not None else None
        return distinct, which, spans

    def _item_spans(self, items: np.ndarray) -> ColumnBlock:
        """The columns of ``items`` (ascending) as one block, for the compiled gather.

        A view that knows its :data:`Units` (built from rows, or a mapped
        store) spans them in place; any other view, such as one built by
        :meth:`from_columns`, copies the items' columns into one block.
        """
        if self._units is not None:
            return self._block_of(items[:, None])
        return ColumnBlock.of([self.column(item) for item in items.tolist()])

    def batch_vectors(self, candidates, min_count: float = 0.0) -> Sequence[np.ndarray]:
        """The compressed probability vectors of a whole candidate level.

        Args:
            candidates: Canonical sorted tuples, or one Apriori level as a
                :class:`~repro.core.search.CandidateLevel`.
            min_count: Optional stage-1 kill threshold — candidates whose
                supporting-row count (maximum attainable support) is below
                it come back as empty vectors without any float work.  Only
                pass a threshold the caller's decision rule already implies
                (``minsup`` for the level-wise miners); ``0`` disables
                killing.  The count is sound for both of the paper's
                definitions: it is the maximum attainable support, so
                ``count < minsup`` implies ``esup < minsup`` (each
                probability is at most 1) and ``Pr[sup >= minsup] = 0``.

        Returns:
            One zeros-omitted ``p_i(X)`` vector per candidate, in candidate
            order (the input every :class:`~repro.core.support.SupportEngine`
            batch consumes), each equal to the non-zeros of the reference
            oracle's ``p_i(X)`` bit for bit.  A level's answer is a
            :class:`LevelColumns`, which also holds the survivors' positions
            and column block: a joined level is evaluated as one block
            gathered from its source level's, never candidate by candidate.

        >>> from repro.db import UncertainDatabase
        >>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {2: 1.0}])
        >>> [v.tolist() for v in db.columnar().batch_vectors([(1,), (2,), (1, 2)])]
        [[0.5], [0.8, 1.0], [0.4]]
        """
        if isinstance(candidates, _candidate_level()):
            return self._level_columns(candidates, min_count)
        return [probs for _, probs in self.batch_columns(candidates, min_count)]

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
            # A stored zero would read as an absent row once scattered.
            _check_hits(np.count_nonzero(probs), len(probs))
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
        ``p_i(X)`` bit for bit.  A stored zero probability on either side
        is refused with ``ValueError``, as the level gathers refuse it: a
        dense item is checked when it is scattered, and a running or sparse
        operand where a product came out zero.
        """
        other_rows, other_probs = self.column(item)
        if len(rows) == 0 or len(other_rows) == 0:
            return _EMPTY_COLUMN
        dense = len(other_rows) >= int(self._n_transactions * DENSE_CROSSOVER_FRACTION)
        if dense:
            out_rows, running, factor = rows, probs, self._dense_column(item)[rows]
        elif len(rows) > len(other_rows):
            positions = np.searchsorted(rows, other_rows)
            positions[positions == len(rows)] = 0
            mask = rows[positions] == other_rows
            out_rows, running, factor = other_rows[mask], probs[positions[mask]], other_probs[mask]
        else:
            positions = np.searchsorted(other_rows, rows)
            positions[positions == len(other_rows)] = 0
            mask = other_rows[positions] == rows
            out_rows, running, factor = rows[mask], probs[mask], other_probs[positions[mask]]
        product = running * factor
        zeros = len(product) - np.count_nonzero(product)
        if zeros:
            keep = product != 0.0
            # A dense factor of zero is an absent row; the scatter refused
            # stored zeros.  Any other zero operand is a stored zero.
            _check_hits(np.count_nonzero(running[~keep]), zeros)
            if not dense:
                _check_hits(np.count_nonzero(factor[~keep]), zeros)
            out_rows, product = out_rows[keep], product[keep]
        return out_rows, product
