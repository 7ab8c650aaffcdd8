"""The monotonicity-exploiting result cache of the mining service.

Frequent-itemset answers nest as thresholds tighten.  For an
anti-monotone score the result at a *stricter* threshold is exactly a
filter of the result at any *looser* one — no mining required — and the
per-itemset statistics (expected support, variance, frequentness
probability) are threshold-independent, so the filtered records are
bitwise identical to a fresh mine.  The cache exploits this per family:

``expected`` (Definition 2, ``min_esup``)
    Expected support is anti-monotone and the miners keep records with
    ``esup >= N * min_esup`` (inclusive).  A cached answer at absolute
    threshold ``t0`` serves any request with ``t >= t0`` by keeping the
    records with ``esup >= t``.

``exact`` (Definition 4, fixed ``min_count``, ``pft`` axis)
    ``Pr[sup >= min_count]`` is anti-monotone in the itemset, so at a
    fixed ``min_count`` the answer at a higher ``pft`` filters a lower
    one: keep records with ``pr > pft`` (strict, the Definition 4
    boundary).  ``min_count`` itself is **not** a filter axis — the
    probabilities are functions of ``min_count`` — so it lives in the
    group key.

``pdu-apriori`` (Poisson approximation)
    The miner translates ``(min_count, pft)`` into an equivalent expected
    support threshold ``lambda*`` once and mines by expected support, so
    the filter axis is ``lambda*`` with the expected-support predicate.

Everything else (the Normal-approximation family, whose score is not
anti-monotone, and the Monte-Carlo sampler) is cached under its exact
parameter key only — a filter there could disagree with a fresh mine.

Top-k answers nest on the ``k`` axis instead: the ranked list at ``k`` is
a prefix of the list at any ``k' >= k`` (the rank order is a deterministic
total order), and a list that came back *shorter* than its own ``k'`` is
exhaustive — it serves every ``k``.

Entries live in a :class:`~repro.db.cache.ByteBudgetLRU`
(``REPRO_SERVICE_RESULT_BYTES``); filtered answers are re-inserted under
their own threshold so repeats become exact hits.  Every group key carries
the dataset name **and revision** — re-registering a dataset bumps the
revision, so stale answers are unreachable by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.results import FrequentItemset
from ..core.support import poisson_lambda_for_threshold
from ..core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from .protocol import ServiceError

__all__ = [
    "RESULT_BYTES_ENV",
    "DEFAULT_RESULT_BYTES",
    "MinePlan",
    "ResultCache",
    "plan_mine",
    "plan_topk",
]

#: env override for the result-cache byte budget
RESULT_BYTES_ENV = "REPRO_SERVICE_RESULT_BYTES"
#: default result budget — tens of thousands of cached records
DEFAULT_RESULT_BYTES = 64 << 20

#: Definition 4 miners whose reported probability is exact and anti-monotone
_EXACT_PFT_ALGORITHMS = frozenset({"dpb", "dpnb", "dcb", "dcnb", "exhaustive-prob"})
#: miners that reduce (min_count, pft) to an expected-support threshold
_POISSON_ALGORITHMS = frozenset({"pdu-apriori"})


@dataclass(frozen=True)
class MinePlan:
    """A normalised, cache-addressable mining request.

    ``group`` identifies the result *family* (dataset+revision, algorithm,
    backend, definition-fixing parameters); ``axis`` is the monotone
    threshold within the group (``None`` for exact-key-only algorithms);
    ``keep`` is the membership predicate a fresh mine applies at ``axis``.
    """

    group: Tuple[Any, ...]
    axis: Optional[float]
    keep: Optional[Callable[[FrequentItemset], bool]]


def plan_mine(
    dataset: str,
    revision: str,
    algorithm: str,
    family: str,
    n_transactions: int,
    backend: str,
    min_esup: Optional[float],
    min_sup: Optional[float],
    pft: float,
    conv_span: Optional[int] = None,
) -> MinePlan:
    """Build the cache plan of one ``mine`` request.

    The group/axis split mirrors the threshold resolution of
    :mod:`repro.algorithms.base` exactly — same helpers, same floats — so
    the ``keep`` predicate reproduces the miner's own admission comparison
    bit for bit.  The group carries every bitwise-relevant execution knob
    (``backend`` and ``conv_span``); the bitwise-neutral ones (workers,
    shards, cache budgets) are deliberately excluded so answers are shared
    across them.
    """
    if conv_span is None:
        from ..plan.spec import resolve_knob

        conv_span = resolve_knob("conv_span")
    base = (dataset, revision, "mine", algorithm, backend, int(conv_span))
    if family == "expected":
        absolute = ExpectedSupportThreshold(float(min_esup)).absolute(n_transactions)
        return MinePlan(
            group=base,
            axis=float(absolute),
            keep=lambda record, _t=float(absolute): record.expected_support >= _t,
        )
    min_count = ProbabilisticThreshold(float(min_sup), float(pft)).min_count(
        n_transactions
    )
    if algorithm in _EXACT_PFT_ALGORITHMS:
        return MinePlan(
            group=base + (min_count,),
            axis=float(pft),
            keep=lambda record, _t=float(pft): (
                record.frequent_probability is not None
                and record.frequent_probability > _t
            ),
        )
    if algorithm in _POISSON_ALGORITHMS:
        lambda_threshold = max(
            poisson_lambda_for_threshold(min_count, float(pft)), 1e-12
        )
        return MinePlan(
            group=base + (min_count,),
            axis=float(lambda_threshold),
            keep=lambda record, _t=float(lambda_threshold): (
                record.expected_support >= _t
            ),
        )
    # Non-anti-monotone scores (Normal approximation) and Monte-Carlo
    # estimates: cache hits must match the full parameter set exactly.
    return MinePlan(group=base + (min_count, float(pft)), axis=None, keep=None)


def plan_topk(
    dataset: str,
    revision: str,
    evaluator: str,
    ranking: str,
    n_transactions: int,
    backend: str,
    min_sup: Optional[float],
    conv_span: Optional[int] = None,
) -> Tuple[Any, ...]:
    """The group key of one ``mine-topk`` request (the axis is ``k``)."""
    if conv_span is None:
        from ..plan.spec import resolve_knob

        conv_span = resolve_knob("conv_span")
    min_count: Optional[int] = None
    if ranking == "probability":
        if min_sup is None:
            raise ServiceError(
                "bad-params",
                f"evaluator {evaluator!r} ranks by frequentness probability "
                "and requires min_sup",
            )
        min_count = ProbabilisticThreshold(float(min_sup)).min_count(n_transactions)
    return (dataset, revision, "topk", evaluator, backend, int(conv_span), min_count)


class _CachedEntry:
    """One cached answer: records plus its LRU byte charge."""

    __slots__ = ("records", "k", "exhausted", "payload_nbytes")

    def __init__(
        self, records: List[FrequentItemset], k: Optional[int] = None
    ) -> None:
        self.records = records
        self.k = k
        #: a top-k answer shorter than its k holds *every* rankable itemset
        self.exhausted = k is not None and len(records) < k
        items = sum(len(record.itemset) for record in records)
        self.payload_nbytes = 256 + 120 * len(records) + 8 * items


class ResultCache:
    """Byte-budgeted, monotonicity-aware storage of served answers."""

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        from ..db.cache import ByteBudgetLRU, resolve_budget

        if budget_bytes is None:
            budget_bytes = resolve_budget(RESULT_BYTES_ENV, DEFAULT_RESULT_BYTES)
        self._lru = ByteBudgetLRU(budget_bytes)
        self._index: Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]] = {}
        self._lock = threading.RLock()
        self.exact_hits = 0
        self.filter_hits = 0
        self.misses = 0

    # -- mine --------------------------------------------------------------------
    def fetch_mine(
        self, plan: MinePlan
    ) -> Optional[Tuple[List[FrequentItemset], str]]:
        """Serve ``plan`` from cache: exact hit, monotone filter, or ``None``."""
        with self._lock:
            exact_key = plan.group + ("axis", plan.axis)
            entry = self._lru.get(exact_key)
            if entry is not None:
                self.exact_hits += 1
                return entry.records, "hit"
            if plan.axis is None:
                self.misses += 1
                return None
            source = self._best_filter_source(plan.group, plan.axis)
            if source is None:
                self.misses += 1
                return None
            filtered = [record for record in source.records if plan.keep(record)]
            self.filter_hits += 1
            # Re-insert under the requested threshold: the next identical
            # request is an exact hit, and the entry is smaller than its
            # source so the marginal budget cost is low.
            self._store(exact_key, plan.group, _CachedEntry(filtered))
            return filtered, "filter"

    def store_mine(self, plan: MinePlan, records: List[FrequentItemset]) -> None:
        with self._lock:
            self._store(
                plan.group + ("axis", plan.axis), plan.group, _CachedEntry(records)
            )

    def _best_filter_source(
        self, group: Tuple[Any, ...], axis: float
    ) -> Optional[_CachedEntry]:
        """The cached entry at the loosest-but-tightest threshold <= ``axis``.

        Any cached threshold at or below the requested one is a sound
        filter source; the largest such threshold holds the fewest surplus
        records, so filtering it is cheapest.
        """
        best_key: Optional[Tuple[Any, ...]] = None
        best_axis: Optional[float] = None
        for full_key in self._group_keys(group):
            cached_axis = full_key[-1]
            if cached_axis is None or cached_axis > axis:
                continue
            if best_axis is None or cached_axis > best_axis:
                best_axis = cached_axis
                best_key = full_key
        if best_key is None:
            return None
        return self._lru.get(best_key)

    # -- top-k -------------------------------------------------------------------
    def fetch_topk(
        self, group: Tuple[Any, ...], k: int
    ) -> Optional[Tuple[List[FrequentItemset], str]]:
        """Serve a top-k request: exact hit, prefix of a larger k, or ``None``."""
        with self._lock:
            exact_key = group + ("k", int(k))
            entry = self._lru.get(exact_key)
            if entry is not None:
                self.exact_hits += 1
                return entry.records, "hit"
            best_key: Optional[Tuple[Any, ...]] = None
            best_k: Optional[int] = None
            for full_key in self._group_keys(group):
                cached = self._lru.peek(full_key)
                if cached is None:
                    continue
                usable = cached.k >= k or cached.exhausted
                if not usable:
                    continue
                if best_k is None or cached.k < best_k:
                    best_k = cached.k
                    best_key = full_key
            if best_key is None:
                self.misses += 1
                return None
            source = self._lru.get(best_key)
            if source is None:  # pragma: no cover - racing eviction
                self.misses += 1
                return None
            prefix = source.records[: int(k)]
            self.filter_hits += 1
            self._store(exact_key, group, _CachedEntry(prefix, k=int(k)))
            return prefix, "filter"

    def store_topk(
        self, group: Tuple[Any, ...], k: int, records: List[FrequentItemset]
    ) -> None:
        with self._lock:
            self._store(group + ("k", int(k)), group, _CachedEntry(records, k=int(k)))

    # -- shared plumbing ---------------------------------------------------------
    def _store(
        self, full_key: Tuple[Any, ...], group: Tuple[Any, ...], entry: _CachedEntry
    ) -> None:
        self._lru.put(full_key, entry)
        if full_key in self._lru:
            self._index.setdefault(group, set()).add(full_key)

    def _group_keys(self, group: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
        """The group's live keys; entries the LRU evicted are pruned lazily."""
        keys = self._index.get(group)
        if not keys:
            return []
        dead = [key for key in keys if key not in self._lru]
        for key in dead:
            keys.discard(key)
        if not keys:
            self._index.pop(group, None)
            return []
        return list(keys)

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()
            self._index.clear()

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._lru),
                "nbytes": self._lru.nbytes,
                "budget_bytes": self._lru.budget_bytes,
                "exact_hits": self.exact_hits,
                "filter_hits": self.filter_hits,
                "misses": self.misses,
                "evictions": self._lru.evictions,
            }
