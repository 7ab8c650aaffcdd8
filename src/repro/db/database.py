"""The uncertain transaction database substrate.

:class:`UncertainDatabase` is the object every miner in this library
consumes.  It stores :class:`~repro.db.transaction.UncertainTransaction`
records, exposes the probability-vector primitives shared by all eight
algorithms of the paper (per-transaction itemset probabilities, expected
support, support variance) and the shape statistics (density, average
length) the paper uses to characterise its benchmarks (Table 6).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..plan.spec import BACKENDS, resolve_knob
from .columnar import ColumnarView
from .partition import ColumnarPartition
from .transaction import UncertainTransaction
from .vocabulary import Vocabulary

__all__ = ["UncertainDatabase", "DatabaseStats", "BACKENDS", "resolve_backend"]


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend name through the plan pipeline.

    ``None`` walks the remaining tiers — a scoped
    :func:`~repro.plan.spec.plan_scope` plan, ``REPRO_PLAN``, and finally
    :attr:`UncertainDatabase.default_backend`.
    """
    return resolve_knob("backend", backend)


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

    Probability queries accept a ``backend`` argument: ``"rows"`` walks the
    transaction objects (the original pure-Python path, kept as the
    correctness oracle), ``"columnar"`` (the default) evaluates through the
    lazily built, cached :class:`~repro.db.columnar.ColumnarView`.
    """

    #: backend used when a probability query passes ``backend=None``
    default_backend: str = "columnar"

    def __init__(
        self,
        transactions: Iterable[UncertainTransaction],
        vocabulary: Optional[Vocabulary] = None,
        name: str = "",
    ) -> None:
        self._transactions: List[UncertainTransaction] = list(transactions)
        tids = [t.tid for t in self._transactions]
        if len(set(tids)) != len(tids):
            raise ValueError("transaction identifiers must be unique")
        self.vocabulary = vocabulary
        self.name = name
        self._columnar: Optional[ColumnarView] = None
        self._partitions: Dict[int, ColumnarPartition] = {}

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

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
        seen = set()
        for transaction in self._transactions:
            seen.update(transaction.units.keys())
        return sorted(seen)

    def stats(self) -> DatabaseStats:
        """Return shape statistics analogous to Table 6 of the paper."""
        n = len(self._transactions)
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

    def partition(self, n_shards: int) -> ColumnarPartition:
        """Row-shard the columnar view into ``n_shards`` independent shards.

        Partitions are built lazily from the cached columnar view and
        cached per shard count, so repeated parallel runs over the same
        database reuse the shard views (and the worker pools reuse their
        pickled copies).  See :mod:`repro.db.partition` for the exactness
        guarantees of the split.
        """
        n_shards = int(n_shards)
        partition = self._partitions.get(n_shards)
        if partition is None:
            partition = ColumnarPartition(self.columnar(), n_shards)
            self._partitions[n_shards] = partition
        return partition

    def itemset_probabilities(
        self, itemset: Iterable[int], backend: Optional[str] = None
    ) -> np.ndarray:
        """Return the vector ``p_i(X)`` of per-transaction probabilities of ``itemset``.

        Transactions where the itemset cannot occur contribute zero.  This is
        the shared primitive behind expected support, support variance and the
        exact Poisson-Binomial support distribution.
        """
        itemset = tuple(itemset)
        if resolve_backend(backend) == "columnar":
            return self.columnar().itemset_probabilities(itemset)
        return np.array(
            [t.itemset_probability(itemset) for t in self._transactions], dtype=float
        )

    def itemset_probabilities_batch(
        self,
        candidates: Sequence[Tuple[int, ...]],
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Dense probability matrix of a whole candidate level (one row each).

        With the columnar backend, candidates sharing a ``k - 1``-prefix (as
        every Apriori join output does) reuse the prefix intersection.
        """
        if resolve_backend(backend) == "columnar":
            return self.columnar().batch_probabilities(candidates)
        return np.array(
            [
                [t.itemset_probability(tuple(candidate)) for t in self._transactions]
                for candidate in candidates
            ],
            dtype=float,
        ).reshape(len(candidates), len(self._transactions))

    def item_probabilities(
        self, item: int, backend: Optional[str] = None
    ) -> np.ndarray:
        """Return the per-transaction probability vector of a single item."""
        if resolve_backend(backend) == "columnar":
            return self.columnar().item_probabilities(item)
        return np.array(
            [t.probability(item) for t in self._transactions], dtype=float
        )

    def expected_support(
        self, itemset: Iterable[int], backend: Optional[str] = None
    ) -> float:
        """Return ``esup(X) = sum_i p_i(X)`` (Definition 1 of the paper)."""
        itemset = tuple(itemset)
        if resolve_backend(backend) == "columnar":
            return self.columnar().expected_support(itemset)
        return float(self.itemset_probabilities(itemset, backend="rows").sum())

    def support_variance(
        self, itemset: Iterable[int], backend: Optional[str] = None
    ) -> float:
        """Return ``Var[sup(X)] = sum_i p_i(X)(1 - p_i(X))``.

        The support is a sum of independent Bernoulli variables (one per
        transaction), hence its variance is the sum of the per-transaction
        Bernoulli variances.
        """
        itemset = tuple(itemset)
        if resolve_backend(backend) == "columnar":
            return self.columnar().support_variance(itemset)
        probabilities = self.itemset_probabilities(itemset, backend="rows")
        return float((probabilities * (1.0 - probabilities)).sum())

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
