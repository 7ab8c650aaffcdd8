"""Synthetic transaction generators.

Two generators cover the structures the paper needs:

* :class:`QuestGenerator` — an IBM Quest-style generator producing the
  ``T<avg len>I<pattern len>D<n transactions>`` family (the paper's
  scalability dataset is T25I15D320k).  Transactions are assembled from a
  pool of correlated "potentially frequent" patterns so realistic frequent
  itemsets exist at several sizes.
* :class:`DenseSparseGenerator` — a direct way to dial in the shape
  statistics of Table 6 (number of items, average transaction length,
  density) without the pattern machinery; used for the Connect / Accident /
  Kosarak / Gazelle analogues in :mod:`repro.datasets.benchmark`.

Both generators output *deterministic* item structures, written as a row
CSR ``(offsets, items)``; uncertainty is layered on top by a
:class:`~repro.datasets.probability.ProbabilityModel`, which draws every
unit's probability in one call, mirroring the paper's "assign a probability
to each item of a deterministic benchmark" methodology.  The CSR goes
straight to :meth:`UncertainDatabase.from_rows
<repro.db.database.UncertainDatabase.from_rows>`; no per-transaction object
is built.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..db.columnar import csr_offsets, csr_row_ids
from ..db.database import UncertainDatabase
from .probability import ConstantProbabilityModel, ProbabilityModel

__all__ = ["QuestGenerator", "DenseSparseGenerator", "attach_probabilities"]

#: Largest block of uniform draws :class:`DenseSparseGenerator` holds at once.
_DRAW_BLOCK_BYTES = 1 << 20


def attach_probabilities(
    item_lists: Sequence[Sequence[int]],
    probability_model: Optional[ProbabilityModel] = None,
    name: str = "",
) -> UncertainDatabase:
    """Convert deterministic transactions into an uncertain database.

    Each item occurrence is assigned a probability drawn from
    ``probability_model`` (default: certain items, probability 1.0).  The
    model sees the units in row-major order, transaction by transaction and
    each transaction's items as listed, through one
    :meth:`~repro.datasets.probability.ProbabilityModel.draw` call.  As in
    :meth:`UncertainDatabase.from_rows
    <repro.db.database.UncertainDatabase.from_rows>`, a unit drawn at
    probability zero is dropped and a repeated item keeps its first position
    and its last draw.
    """
    rows = [[int(item) for item in items] for items in item_lists]
    offsets = csr_offsets([len(row) for row in rows])
    items = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1]))
    return _uncertain_rows(offsets, items, probability_model, name)


def _uncertain_rows(
    offsets: np.ndarray,
    items: np.ndarray,
    probability_model: Optional[ProbabilityModel],
    name: str,
) -> UncertainDatabase:
    """Draw every unit's probability and adopt the row CSR as a database."""
    model = probability_model or ConstantProbabilityModel(1.0)
    probabilities = model.draw(csr_row_ids(offsets), items)
    return UncertainDatabase.from_rows(offsets, items, probabilities, name=name)


def _item_lists(offsets: np.ndarray, items: np.ndarray) -> List[List[int]]:
    flat = items.tolist()
    bounds = offsets.tolist()
    return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _choice_table(p: np.ndarray) -> List[float]:
    """The cumulative table ``Generator.choice(len(p), p=p)`` searches.

    ``choice`` draws ``u = random()`` and returns
    ``cdf.searchsorted(u, side="right")``.  ``bisect_right`` on this table
    with the same ``u`` is the same lookup, so the draws match ``choice``
    bit for bit without its per-call validation of ``p``.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class QuestGenerator:
    """IBM Quest-style synthetic market-basket generator.

    Parameters
    ----------
    n_items:
        Size of the item vocabulary.
    avg_transaction_length:
        Average number of items per transaction (``T`` in the dataset name).
    avg_pattern_length:
        Average size of the potentially-frequent patterns (``I``).
    n_patterns:
        Number of patterns in the pool.
    correlation:
        Probability that consecutive patterns within a transaction are drawn
        dependently (share a common prefix), as in the original generator.
    seed:
        Seed for reproducibility.
    """

    def __init__(
        self,
        n_items: int = 994,
        avg_transaction_length: float = 25.0,
        avg_pattern_length: float = 15.0,
        n_patterns: int = 200,
        correlation: float = 0.5,
        seed: int = 7,
    ) -> None:
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        if avg_transaction_length <= 0 or avg_pattern_length <= 0:
            raise ValueError("average lengths must be positive")
        self.n_items = n_items
        self.avg_transaction_length = avg_transaction_length
        self.avg_pattern_length = avg_pattern_length
        self.n_patterns = n_patterns
        self.correlation = correlation
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._patterns = self._build_patterns()
        pattern_weights = self._rng.exponential(scale=1.0, size=len(self._patterns))
        self._pattern_probabilities = pattern_weights / pattern_weights.sum()

    def _build_patterns(self) -> List[List[int]]:
        """Create the pool of potentially frequent patterns.

        Items are drawn with an exponentially decaying popularity so a small
        core of items appears in many patterns — the property that makes
        Quest data exhibit non-trivial frequent itemsets.
        """
        popularity = self._rng.exponential(scale=1.0, size=self.n_items)
        popularity /= popularity.sum()
        table = _choice_table(popularity)
        rng = self._rng
        patterns: List[List[int]] = []
        previous: List[int] = []
        for _ in range(self.n_patterns):
            length = max(1, int(rng.poisson(self.avg_pattern_length)))
            length = min(length, self.n_items)
            pattern: List[int] = []
            if previous and rng.random() < self.correlation:
                carry = max(1, int(len(previous) * rng.random()))
                pattern.extend(previous[:carry])
            while len(pattern) < length:
                item = bisect_right(table, rng.random())
                if item not in pattern:
                    pattern.append(item)
            patterns.append(pattern)
            previous = pattern
        return patterns

    def generate_item_lists(self, n_transactions: int) -> List[List[int]]:
        """Generate deterministic transactions as lists of item identifiers."""
        return _item_lists(*self._generate_rows(n_transactions))

    def _generate_rows(self, n_transactions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``n_transactions`` rows as a CSR ``(offsets, items)``."""
        if n_transactions < 0:
            raise ValueError("n_transactions must be non-negative")
        rng = self._rng
        table = _choice_table(self._pattern_probabilities)
        lengths: List[int] = []
        flat: List[int] = []
        for _ in range(n_transactions):
            target_length = max(1, int(rng.poisson(self.avg_transaction_length)))
            target_length = min(target_length, self.n_items)
            chosen: List[int] = []
            chosen_set = set()
            while len(chosen) < target_length:
                for item in self._patterns[bisect_right(table, rng.random())]:
                    if item not in chosen_set:
                        chosen.append(item)
                        chosen_set.add(item)
                    if len(chosen) >= target_length:
                        break
            lengths.append(len(chosen))
            flat.extend(chosen)
        return csr_offsets(lengths), np.array(flat, dtype=np.int64)

    def generate(
        self,
        n_transactions: int,
        probability_model: Optional[ProbabilityModel] = None,
        name: Optional[str] = None,
    ) -> UncertainDatabase:
        """Generate an uncertain database of ``n_transactions`` transactions."""
        offsets, items = self._generate_rows(n_transactions)
        if name is None:
            name = (
                f"T{int(self.avg_transaction_length)}"
                f"I{int(self.avg_pattern_length)}"
                f"D{n_transactions}"
            )
        return _uncertain_rows(offsets, items, probability_model, name)


class DenseSparseGenerator:
    """Generate transactions with a prescribed density profile.

    Each item ``i`` (ranked by popularity) is included in a transaction
    independently with probability ``q_i = min(max_inclusion, c * i**-decay)``
    where ``c`` is calibrated so that ``sum(q_i)`` equals the requested
    average transaction length.  Dense benchmarks (Connect, Accident) are
    characterised by a head of items that appear in almost every transaction
    — obtained with a small ``decay`` and a high ``max_inclusion`` — while
    sparse benchmarks (Kosarak, Gazelle) use a steeper decay so the tail of
    items is long and individually rare.  This inclusion model keeps the
    *density* (average length / item count) and the popularity skew — the
    two properties the paper's dense-vs-sparse findings depend on — under
    direct control.
    """

    def __init__(
        self,
        n_items: int,
        avg_transaction_length: float,
        popularity_decay: float = 1.0,
        max_inclusion: float = 0.9,
        seed: int = 11,
    ) -> None:
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        if avg_transaction_length <= 0:
            raise ValueError("avg_transaction_length must be positive")
        if avg_transaction_length > n_items:
            raise ValueError("average transaction length cannot exceed the item count")
        if not 0.0 < max_inclusion <= 1.0:
            raise ValueError("max_inclusion must lie in (0, 1]")
        self.n_items = n_items
        self.avg_transaction_length = avg_transaction_length
        self.popularity_decay = popularity_decay
        self.max_inclusion = max_inclusion
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._inclusion = self._calibrate_inclusion()

    def _calibrate_inclusion(self) -> np.ndarray:
        """Solve for per-item inclusion probabilities summing to the average length."""
        ranks = np.arange(1, self.n_items + 1, dtype=float)
        base = ranks ** (-self.popularity_decay)
        # Binary search on the scale factor; the capped sum is monotone in it.
        low, high = 0.0, 2.0
        target = float(self.avg_transaction_length)
        while np.minimum(self.max_inclusion, high * base).sum() < target:
            high *= 2.0
            if high > 1e9:
                break
        for _ in range(60):
            middle = 0.5 * (low + high)
            if np.minimum(self.max_inclusion, middle * base).sum() < target:
                low = middle
            else:
                high = middle
        return np.minimum(self.max_inclusion, high * base)

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        """Per-item (rank-ordered) probabilities of appearing in a transaction."""
        return self._inclusion.copy()

    def generate_item_lists(self, n_transactions: int) -> List[List[int]]:
        """Generate deterministic transactions honouring the density profile."""
        return _item_lists(*self._generate_rows(n_transactions))

    def _generate_rows(self, n_transactions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``n_transactions`` rows as a CSR ``(offsets, items)``.

        Each row is one ``random(n_items)`` draw thresholded against the
        inclusion probabilities.  Rows are drawn in blocks of at most
        ``_DRAW_BLOCK_BYTES``; a 2-D draw fills row by row, so a block equals
        the same number of successive per-row draws.
        """
        block = max(1, _DRAW_BLOCK_BYTES // (8 * self.n_items))
        counts = [np.empty(0, dtype=np.int64)]
        columns = [np.empty(0, dtype=np.int64)]
        for start in range(0, n_transactions, block):
            draws = self._rng.random((min(block, n_transactions - start), self.n_items))
            mask = draws < self._inclusion
            # Guarantee non-empty transactions: fall back to the most popular item.
            mask[~mask.any(axis=1), 0] = True
            counts.append(np.count_nonzero(mask, axis=1))
            columns.append(np.nonzero(mask)[1])
        return csr_offsets(np.concatenate(counts)), np.concatenate(columns)

    def generate(
        self,
        n_transactions: int,
        probability_model: Optional[ProbabilityModel] = None,
        name: str = "",
    ) -> UncertainDatabase:
        """Generate an uncertain database of ``n_transactions`` transactions."""
        offsets, items = self._generate_rows(n_transactions)
        return _uncertain_rows(offsets, items, probability_model, name)
