"""Result records returned by the miners.

Every miner, regardless of family, returns a :class:`MiningResult` made of
:class:`FrequentItemset` records plus run statistics.  A uniform result
shape is what allows the evaluation harness to compare algorithms across
the two frequent-itemset definitions — the central methodological point of
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .itemset import Itemset

__all__ = ["FrequentItemset", "MiningStatistics", "MiningResult"]


@dataclass(frozen=True)
class FrequentItemset:
    """One frequent itemset together with its support statistics.

    ``frequent_probability`` is populated by the probabilistic miners (exact
    or approximate); expected-support miners leave it ``None``.  ``variance``
    is populated by the miners that compute it (the Normal-approximation
    family and the exact miners), demonstrating the paper's point that the
    two definitions meet once the variance is tracked alongside the
    expectation.
    """

    itemset: Itemset
    expected_support: float
    variance: Optional[float] = None
    frequent_probability: Optional[float] = None

    def __len__(self) -> int:
        return len(self.itemset)


@dataclass
class MiningStatistics:
    """Bookkeeping of one mining run (uniform across algorithms).

    The counters follow one accounting contract, charged by the
    :class:`~repro.core.search.LevelwiseSearch` driver so every miner means
    the same thing by the same number (pinned per miner by
    ``tests/test_search_engine.py``):

    ``database_scans``
        Passes over the transaction data: **one** for the opening
        item-statistics scan, **one per joined candidate level** (the
        level's batched evaluation reads every transaction once), and
        **one per auxiliary structure built from a full pass** (the
        UH-struct, the global UFP-tree, the sampled-worlds
        materialisation).  Streaming slides charge none: their statistics
        come from the incremental index, not from scans.
    ``candidates_generated``
        Every candidate submitted by a level generator (the apriori join
        after subset pruning, a depth-first expander's extension sets).
        Seed 1-itemsets taken straight from the item-statistics pass are
        *not* generated — they were never produced by a generator.
    ``candidates_pruned``
        ``generated - admitted`` per level: every generated candidate the
        decision rule (or a sound bound before it) kept out of the next
        level.  Bound-filtered and exactly-rejected candidates count the
        same — the counter answers "how much of the generated frontier
        died", not "why".
    ``exact_evaluations``
        Candidates whose *score kernel* actually ran (tails after the
        bound chain — exact DP/DC, Normal, and in top-k also Poisson —
        and sampled-world estimates).
        Expected-support arithmetic is not an exact evaluation; bound
        filters are not either.
    """

    algorithm: str = ""
    elapsed_seconds: float = 0.0
    peak_memory_bytes: int = 0
    candidates_generated: int = 0
    candidates_pruned: int = 0
    exact_evaluations: int = 0
    database_scans: int = 0
    notes: Dict[str, float] = field(default_factory=dict)


class MiningResult:
    """The frequent itemsets found by one run, with lookup helpers."""

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        statistics: Optional[MiningStatistics] = None,
    ) -> None:
        self._itemsets: List[FrequentItemset] = sorted(
            itemsets, key=lambda record: (len(record.itemset), record.itemset.items)
        )
        self._by_itemset: Dict[Itemset, FrequentItemset] = {
            record.itemset: record for record in self._itemsets
        }
        self.statistics = statistics or MiningStatistics()

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._itemsets)

    def __iter__(self) -> Iterator[FrequentItemset]:
        return iter(self._itemsets)

    def __contains__(self, itemset: object) -> bool:
        return Itemset(itemset) in self._by_itemset  # type: ignore[arg-type]

    def __getitem__(self, itemset) -> FrequentItemset:
        return self._by_itemset[Itemset(itemset)]

    # -- views ------------------------------------------------------------------------
    @property
    def itemsets(self) -> List[FrequentItemset]:
        """All records, ordered by itemset size then lexicographically."""
        return list(self._itemsets)

    def itemset_keys(self) -> Set[Itemset]:
        """The set of frequent itemsets (without statistics)."""
        return set(self._by_itemset)

    def of_size(self, size: int) -> List[FrequentItemset]:
        """All frequent itemsets containing exactly ``size`` items."""
        return [record for record in self._itemsets if len(record.itemset) == size]

    def max_size(self) -> int:
        """The size of the largest frequent itemset (0 when empty)."""
        return max((len(record.itemset) for record in self._itemsets), default=0)

    def get(self, itemset, default: Optional[FrequentItemset] = None) -> Optional[FrequentItemset]:
        """Return the record for ``itemset`` or ``default`` when not frequent."""
        return self._by_itemset.get(Itemset(itemset), default)

    def to_rows(self, vocabulary=None) -> List[Dict[str, object]]:
        """Flatten the result into dictionaries (for CSV export / reporting).

        When a vocabulary is supplied items are reported with their original
        labels.
        """
        rows: List[Dict[str, object]] = []
        for record in self._itemsets:
            if vocabulary is not None:
                items = tuple(vocabulary.label_of(item) for item in record.itemset)
            else:
                items = record.itemset.items
            rows.append(
                {
                    "itemset": items,
                    "size": len(record.itemset),
                    "expected_support": record.expected_support,
                    "variance": record.variance,
                    "frequent_probability": record.frequent_probability,
                }
            )
        return rows
