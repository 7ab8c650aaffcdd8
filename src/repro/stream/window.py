"""Streaming ingest: transaction arrival streams and the sliding window.

The paper's miners consume a static :class:`~repro.db.database.UncertainDatabase`;
this module is the thin layer that turns *arriving* transactions into the
sequence of bounded databases a streaming miner re-mines.  Two objects:

* :class:`TransactionStream` — an iterator of uncertain transactions that
  stamps every arrival with a monotonically increasing **sequence id**.
  Sequence ids are the stable row identity of the streaming layer: a
  transaction keeps its id from arrival to eviction, and the id doubles as
  the ``tid`` of the window's materialised database, so window contents can
  be batch-mined (or diffed) without any re-labelling.
* :class:`SlidingWindow` — a count-based window of the ``W`` most recent
  arrivals, stored in a ring buffer.  Appending transaction ``seq`` lands it
  in **slot** ``seq % W``, evicting the transaction that occupied the slot
  ``W`` arrivals earlier.  Slots are the leaves of the
  :class:`~repro.stream.index.IncrementalSupportIndex` moment tree: a slide
  of ``k`` arrivals reports exactly the ``k`` changed slots, in arrival
  order, which is all the index needs to update its statistics.

>>> stream = TransactionStream.from_records([{1: 0.5}, {1: 1.0}, {2: 0.25}])
>>> window = SlidingWindow(capacity=2)
>>> [slot for slot, _, _ in window.slide(stream, 2)]
[0, 1]
>>> [t.tid for t in window.contents()]
[0, 1]
>>> changes = window.slide(stream, 1)   # seq 2 overwrites slot 0 (seq 0)
>>> [(slot, old.tid, new.tid) for slot, old, new in changes]
[(0, 0, 2)]
>>> [t.tid for t in window.contents()]
[1, 2]
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..db.database import UncertainDatabase
from ..db.transaction import UncertainTransaction

__all__ = ["TransactionStream", "SlidingWindow", "WindowChange"]

#: one window mutation: (slot, evicted transaction or None, new transaction)
WindowChange = Tuple[int, Optional[UncertainTransaction], UncertainTransaction]


class TransactionStream(Iterator[UncertainTransaction]):
    """An arrival-ordered stream of uncertain transactions.

    Parameters
    ----------
    source:
        Any iterable of :class:`~repro.db.transaction.UncertainTransaction`
        or plain ``{item: probability}`` mappings.  Items are consumed
        lazily, so a stream can wrap a generator of live traffic.
    name:
        Optional human-readable name, carried into the window's
        materialised databases.

    Every emitted transaction is re-stamped with its arrival sequence id as
    ``tid`` (original tids of replayed databases are discarded — a stream
    may replay the same database several times, and sequence ids are what
    keep window tids unique).
    """

    def __init__(
        self,
        source: Iterable[Union[UncertainTransaction, Mapping[int, float]]],
        name: str = "",
    ) -> None:
        self._source = iter(source)
        self.name = name
        #: sequence id of the next arrival
        self.next_sequence = 0

    @classmethod
    def from_database(cls, database: UncertainDatabase, name: str = "") -> "TransactionStream":
        """Replay a database's transactions, in order, as a stream."""
        return cls(database, name=name or database.name)

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[int, float]], name: str = ""
    ) -> "TransactionStream":
        """Stream plain ``{item: probability}`` records."""
        return cls(records, name=name)

    def __iter__(self) -> "TransactionStream":
        return self

    def __next__(self) -> UncertainTransaction:
        record = next(self._source)
        if isinstance(record, UncertainTransaction):
            transaction = UncertainTransaction.restamp(self.next_sequence, record)
        else:
            transaction = UncertainTransaction(self.next_sequence, dict(record))
        self.next_sequence += 1
        return transaction

    def take(self, count: int) -> List[UncertainTransaction]:
        """The next ``count`` arrivals (fewer when the stream is exhausted)."""
        taken: List[UncertainTransaction] = []
        for _ in range(count):
            try:
                taken.append(next(self))
            except StopIteration:
                break
        return taken


class SlidingWindow:
    """The ``W`` most recent transactions of a stream, in a ring buffer.

    Parameters
    ----------
    capacity:
        Window size ``W``.  Until ``W`` transactions have arrived the window
        is partially filled; afterwards every arrival evicts the oldest
        resident transaction.

    The window is the single source of truth for *what* is currently in
    scope; the :class:`~repro.stream.index.IncrementalSupportIndex` holds the
    derived support statistics.  Keeping the two separate lets several
    indexes (e.g. one per miner configuration) share one window.
    """

    def __init__(self, capacity: int) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: List[Optional[UncertainTransaction]] = [None] * capacity
        self._next_sequence = 0
        self._item_counts: Dict[int, int] = {}

    # -- shape -------------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of transactions currently resident (``<= capacity``)."""
        return min(self._next_sequence, self.capacity)

    @property
    def next_sequence(self) -> int:
        """Sequence id of the next arrival (== total arrivals so far)."""
        return self._next_sequence

    @property
    def oldest_sequence(self) -> int:
        """Sequence id of the oldest resident transaction."""
        return max(0, self._next_sequence - self.capacity)

    def slot_of(self, sequence: int) -> int:
        """The ring-buffer slot a sequence id occupies (stable for its lifetime)."""
        return sequence % self.capacity

    def active_items(self) -> List[int]:
        """Sorted items occurring in at least one resident transaction."""
        return sorted(item for item, count in self._item_counts.items() if count > 0)

    def item_count(self, item: int) -> int:
        """Number of resident transactions containing ``item``."""
        return self._item_counts.get(item, 0)

    # -- mutation ----------------------------------------------------------------------
    def append(
        self, transaction: Union[UncertainTransaction, Mapping[int, float]]
    ) -> WindowChange:
        """Admit one arrival, evicting the slot's previous resident (if any).

        Returns the ``(slot, evicted, admitted)`` change record the support
        index consumes.  The admitted transaction is re-stamped with its
        sequence id when the caller hands in a raw mapping or a transaction
        whose tid does not already equal the sequence id.
        """
        units = (
            transaction.units
            if isinstance(transaction, UncertainTransaction)
            else transaction
        )
        sequence = self._next_sequence
        if (
            isinstance(transaction, UncertainTransaction)
            and transaction.tid == sequence
        ):
            admitted = transaction
        else:
            admitted = UncertainTransaction(sequence, dict(units))
        slot = sequence % self.capacity
        evicted = self._slots[slot]
        if evicted is not None:
            for item in evicted.units:
                count = self._item_counts[item] - 1
                if count:
                    self._item_counts[item] = count
                else:
                    del self._item_counts[item]
        for item in admitted.units:
            self._item_counts[item] = self._item_counts.get(item, 0) + 1
        self._slots[slot] = admitted
        self._next_sequence = sequence + 1
        return (slot, evicted, admitted)

    def slide(
        self,
        stream: Iterable[Union[UncertainTransaction, Mapping[int, float]]],
        step: int,
    ) -> List[WindowChange]:
        """Admit up to ``step`` arrivals from ``stream``.

        Returns one change record per admitted transaction — an empty list
        means the stream is exhausted.  When ``step >= capacity`` the whole
        window turns over (every slot appears exactly once among the change
        records' final states, because later arrivals overwrite earlier ones
        slot-stably).
        """
        if step < 1:
            raise ValueError(f"slide step must be >= 1, got {step}")
        iterator = iter(stream)
        if iterator is not stream:
            # A re-iterable (list, database, ...) would silently restart
            # from its first record on every slide, so "exhausted" would
            # never be reached; demand a single-pass iterator instead.
            raise TypeError(
                "slide() consumes a single-pass iterator (e.g. a "
                "TransactionStream); wrap re-iterable sources in "
                "TransactionStream(...) first"
            )
        changes: List[WindowChange] = []
        for _ in range(step):
            try:
                arrival = next(iterator)
            except StopIteration:
                break
            changes.append(self.append(arrival))
        return changes

    # -- views -------------------------------------------------------------------------
    def transactions(self) -> List[UncertainTransaction]:
        """Resident transactions in arrival order (oldest first)."""
        return [
            self._slots[sequence % self.capacity]  # type: ignore[misc]
            for sequence in range(self.oldest_sequence, self._next_sequence)
        ]

    def slot_units(self) -> List[Optional[Dict[int, float]]]:
        """Per-slot unit mappings (``None`` for unfilled slots), in slot order.

        This is the leaf view the support index is built from: entry ``s``
        describes ring-buffer slot ``s`` regardless of arrival order.
        """
        return [
            transaction.units if transaction is not None else None
            for transaction in self._slots
        ]

    def contents(self, name: Optional[str] = None) -> UncertainDatabase:
        """The resident window as a database (arrival order, sequence-id tids).

        This is the object the equivalence tests batch-mine: a streaming
        miner's emitted frequent set must match mining ``contents()`` with
        the corresponding static algorithm.
        """
        return UncertainDatabase(
            self.transactions(),
            name=name if name is not None else f"window[{self.oldest_sequence},{self._next_sequence})",
        )
