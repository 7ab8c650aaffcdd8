"""The uncertain transaction database substrate.

:class:`UncertainDatabase` is the object every miner in this library
consumes.  It holds its rows either as
:class:`~repro.db.transaction.UncertainTransaction` records or, for
generated databases (:meth:`UncertainDatabase.from_rows`), as a row CSR
from which the records are built only when the row API first asks for
them.  It exposes the probability-vector primitives shared by all eight
algorithms of the paper (per-transaction itemset probabilities, expected
support, support variance) and the shape statistics (density, average
length) the paper uses to characterise its benchmarks (Table 6).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .columnar import ColumnarView, RowCSR, csr_offsets, csr_row_ids
from .transaction import UncertainTransaction, _validated_units
from .vocabulary import Vocabulary

__all__ = ["UncertainDatabase", "DatabaseStats"]


def _flatten(rows: Sequence[Mapping[int, float]]) -> RowCSR:
    """The row CSR of per-row ``{item: probability}`` dicts, in dict order."""
    offsets = csr_offsets([len(units) for units in rows])
    count = int(offsets[-1])
    items = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=count)
    probabilities = np.fromiter(
        chain.from_iterable(units.values() for units in rows), dtype=np.float64, count=count
    )
    return offsets, items, probabilities


def _may_repeat(offsets: np.ndarray, items: np.ndarray) -> bool:
    """Whether some row of the CSR may list one item twice.

    Exact unless the ``(row, item)`` keys do not fit in int64; such a CSR
    is answered ``True`` and takes the (exact) dict pass instead.
    """
    if len(items) < 2:
        return False
    low = int(items.min())
    span = int(items.max()) - low + 1
    if (len(offsets) - 1) * span >= 1 << 62:
        return True
    row_ids = csr_row_ids(offsets)
    keys = np.sort(row_ids * span + (items - low))
    return bool((keys[1:] == keys[:-1]).any())


class DatabaseStats:
    """Shape statistics of an uncertain database (cf. Table 6 of the paper)."""

    def __init__(
        self,
        n_transactions: int,
        n_items: int,
        average_length: float,
        density: float,
        average_probability: float,
    ) -> None:
        self.n_transactions = n_transactions
        self.n_items = n_items
        self.average_length = average_length
        self.density = density
        self.average_probability = average_probability

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            "DatabaseStats("
            f"n_transactions={self.n_transactions}, n_items={self.n_items}, "
            f"average_length={self.average_length:.2f}, density={self.density:.4f}, "
            f"average_probability={self.average_probability:.3f})"
        )


class UncertainDatabase:
    """An ordered collection of uncertain transactions.

    Parameters
    ----------
    transactions:
        The transactions of the database.  Order is preserved; the dynamic
        programming and divide-and-conquer miners rely on a stable order to
        define the per-transaction Bernoulli variables.
    vocabulary:
        Optional mapping from item labels to the integer identifiers used in
        the transactions.  Databases built programmatically from integer
        items may omit it.
    name:
        Optional human-readable name (used by the evaluation harness when
        reporting results).

    Probability queries evaluate through the lazily built, cached
    :class:`~repro.db.columnar.ColumnarView`, which is built from the row
    CSR (:meth:`row_csr`).  ``len``, :meth:`items` and :meth:`columnar`
    never build transaction objects; the row API (iteration, indexing,
    :attr:`transactions`, :meth:`stats`, :meth:`restricted_to`,
    :meth:`head`, :meth:`split`) builds them on first use.
    """

    def __init__(
        self,
        transactions: Iterable[UncertainTransaction],
        vocabulary: Optional[Vocabulary] = None,
        name: str = "",
    ) -> None:
        rows = list(transactions)
        tids = [t.tid for t in rows]
        if len(set(tids)) != len(tids):
            raise ValueError("transaction identifiers must be unique")
        self._adopt(len(rows), rows, None, vocabulary, name)

    def _adopt(
        self,
        n_rows: int,
        rows: Optional[List[UncertainTransaction]],
        csr: Optional[RowCSR],
        vocabulary: Optional[Vocabulary],
        name: str,
    ) -> None:
        self._n_rows = n_rows
        #: transaction objects; ``None`` until the row API first asks
        self._rows = rows
        #: the row CSR of a database built by :meth:`from_rows`
        self._csr = csr
        self.vocabulary = vocabulary
        self.name = name
        self._columnar: Optional[ColumnarView] = None

    @property
    def _transactions(self) -> List[UncertainTransaction]:
        """The transaction objects, built from the row CSR on first use."""
        if self._rows is None:
            offsets, items, probabilities = self.row_csr()
            flat_items = items.tolist()
            flat_probabilities = probabilities.tolist()
            bounds = offsets.tolist()
            self._rows = [
                UncertainTransaction(
                    tid, dict(zip(flat_items[start:stop], flat_probabilities[start:stop]))
                )
                for tid, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            ]
        return self._rows

    def row_csr(self) -> RowCSR:
        """The rows as a CSR ``(offsets, items, probabilities)``.

        Each row keeps its own item order (a transaction's dict order).
        Databases built from transaction objects flatten them on each call;
        the columnar view, cached, is the one consumer.
        """
        if self._csr is not None:
            return self._csr
        return _flatten([t.units for t in self._rows])

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self) -> Iterator[UncertainTransaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> UncertainTransaction:
        return self._transactions[index]

    @property
    def transactions(self) -> Sequence[UncertainTransaction]:
        """The transactions in database order."""
        return tuple(self._transactions)

    # -- shape statistics -----------------------------------------------------------
    def items(self) -> List[int]:
        """Return the sorted list of distinct items appearing in the database."""
        return self.columnar().items()

    def stats(self) -> DatabaseStats:
        """Return shape statistics analogous to Table 6 of the paper."""
        n = len(self)
        items = self.items()
        n_items = len(items)
        total_units = sum(len(t) for t in self._transactions)
        total_probability = sum(sum(t.units.values()) for t in self._transactions)
        average_length = total_units / n if n else 0.0
        density = average_length / n_items if n_items else 0.0
        average_probability = total_probability / total_units if total_units else 0.0
        return DatabaseStats(n, n_items, average_length, density, average_probability)

    # -- probability primitives -----------------------------------------------------
    def columnar(self) -> ColumnarView:
        """The columnar projection of this database, built lazily and cached."""
        if self._columnar is None:
            self._columnar = ColumnarView(self)
        return self._columnar

    def itemset_probabilities(self, itemset: Iterable[int]) -> np.ndarray:
        """Return the vector ``p_i(X)`` of per-transaction probabilities of ``itemset``.

        Transactions where the itemset cannot occur contribute zero.  This is
        the shared primitive behind expected support, support variance and the
        exact Poisson-Binomial support distribution.
        """
        return self.columnar().itemset_probabilities(tuple(itemset))

    def itemset_probabilities_batch(
        self, candidates: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        """Dense probability matrix of a whole candidate level (one row each).

        Candidates sharing a ``k - 1``-prefix (as every Apriori join output
        does) reuse the prefix intersection.
        """
        return self.columnar().batch_probabilities(candidates)

    def item_probabilities(self, item: int) -> np.ndarray:
        """Return the per-transaction probability vector of a single item."""
        return self.columnar().item_probabilities(item)

    def expected_support(self, itemset: Iterable[int]) -> float:
        """Return ``esup(X) = sum_i p_i(X)`` (Definition 1 of the paper)."""
        return self.columnar().expected_support(tuple(itemset))

    def support_variance(self, itemset: Iterable[int]) -> float:
        """Return ``Var[sup(X)] = sum_i p_i(X)(1 - p_i(X))``.

        The support is a sum of independent Bernoulli variables (one per
        transaction), hence its variance is the sum of the per-transaction
        Bernoulli variances.
        """
        return self.columnar().support_variance(tuple(itemset))

    # -- transformations ------------------------------------------------------------
    def restricted_to(self, keep: Iterable[int], name: Optional[str] = None) -> "UncertainDatabase":
        """Return a database keeping only the items in ``keep``.

        Empty transactions are preserved so that the transaction count (and
        therefore every ``N * min_sup`` threshold) is unchanged.
        """
        keep_set = set(keep)
        return UncertainDatabase(
            (t.restricted_to(keep_set) for t in self._transactions),
            vocabulary=self.vocabulary,
            name=name if name is not None else self.name,
        )

    def head(self, n_transactions: int, name: Optional[str] = None) -> "UncertainDatabase":
        """Return a database containing only the first ``n_transactions`` records."""
        if n_transactions < 0:
            raise ValueError("n_transactions must be non-negative")
        return UncertainDatabase(
            self._transactions[:n_transactions],
            vocabulary=self.vocabulary,
            name=name if name is not None else self.name,
        )

    def split(self) -> Tuple["UncertainDatabase", "UncertainDatabase"]:
        """Split into two halves (used by divide-and-conquer style consumers)."""
        middle = len(self._transactions) // 2
        left = UncertainDatabase(self._transactions[:middle], self.vocabulary, self.name)
        right = UncertainDatabase(self._transactions[middle:], self.vocabulary, self.name)
        return left, right

    # -- construction helpers -------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        offsets: Sequence[int],
        items: Sequence[int],
        probabilities: Sequence[float],
        vocabulary: Optional[Vocabulary] = None,
        name: str = "",
    ) -> "UncertainDatabase":
        """Adopt a row CSR: row ``r`` holds units ``offsets[r]:offsets[r + 1]``.

        The result equals the database of the matching transactions (tids
        ``0..n-1``) unit for unit and in each row's item order, as if each
        row were a dict filled in order: a repeated item keeps its first
        position and its last probability, and units of probability zero
        are dropped.  Items must be ``>= 0`` and probabilities in
        ``[0, 1]``, checked as :class:`UncertainTransaction` does, with the
        same errors.  Transaction objects are built only when the row API
        first asks for them.

        >>> db = UncertainDatabase.from_rows([0, 2, 3], [4, 1, 4], [0.5, 0.25, 1.0])
        >>> len(db), db.items()
        (2, [1, 4])
        >>> db[0].units
        {4: 0.5, 1: 0.25}
        """
        offsets = np.array(offsets, dtype=np.int64)
        items = np.array(items, dtype=np.int64)
        probabilities = np.array(probabilities, dtype=np.float64)
        if (
            offsets.ndim != 1
            or len(offsets) == 0
            or offsets[0] != 0
            or np.any(np.diff(offsets) < 0)
            or items.ndim != 1
            or items.shape != probabilities.shape
            or offsets[-1] != len(items)
        ):
            raise ValueError(
                "a row CSR needs offsets rising from 0 to len(items) and one "
                "probability per item"
            )
        if _may_repeat(offsets, items):
            offsets, items, probabilities = _flatten(
                [
                    dict(zip(items[start:stop].tolist(), probabilities[start:stop].tolist()))
                    for start, stop in zip(offsets[:-1].tolist(), offsets[1:].tolist())
                ]
            )
        bad = (items < 0) | ~((probabilities >= 0.0) & (probabilities <= 1.0))
        if bad.any():
            first = int(np.argmax(bad))
            # raises the transaction's own error for the first bad unit
            _validated_units({int(items[first]): float(probabilities[first])})
        kept = probabilities > 0.0
        if not kept.all():
            offsets = csr_offsets(kept)[offsets]
            items = items[kept]
            probabilities = probabilities[kept]
        for array in (offsets, items, probabilities):
            array.flags.writeable = False
        database = cls.__new__(cls)
        database._adopt(len(offsets) - 1, None, (offsets, items, probabilities), vocabulary, name)
        return database

    @classmethod
    def from_records(
        cls,
        records: Iterable[Dict[int, float]],
        vocabulary: Optional[Vocabulary] = None,
        name: str = "",
    ) -> "UncertainDatabase":
        """Build a database from dictionaries of ``{item: probability}``.

        Transaction identifiers are assigned sequentially from zero.
        """
        transactions = [
            UncertainTransaction(tid, dict(units)) for tid, units in enumerate(records)
        ]
        return cls(transactions, vocabulary=vocabulary, name=name)

    @classmethod
    def from_labelled_records(
        cls, records: Iterable[Dict[str, float]], name: str = ""
    ) -> "UncertainDatabase":
        """Build a database from ``{label: probability}`` records.

        A :class:`~repro.db.vocabulary.Vocabulary` is created on the fly so
        results can be mapped back to the original labels.
        """
        vocabulary = Vocabulary()
        integer_records: List[Dict[int, float]] = []
        for units in records:
            integer_records.append(
                {vocabulary.add(label): probability for label, probability in units.items()}
            )
        return cls.from_records(integer_records, vocabulary=vocabulary, name=name)
