"""The one levelwise search core behind every registered miner.

The paper's central methodological claim is that algorithm comparisons are
only meaningful inside one common implementation framework.  This module is
that framework's engine: a single :class:`LevelwiseSearch` driver owns the
one true levelwise loop —

    seed level from the item-statistics pass
    -> apriori join + downward-closure subset prune
    -> the level's statistics (``SearchContext.level``)
    -> the bound chain (occupancy -> Markov -> Chernoff, in cost order)
    -> record / extend
    -> uniform statistics accounting

— parameterized by a frozen declarative :class:`MinerSpec`.  Every
registered miner is a thin spec: a score kernel (expected support, exact DP
tail, divide-and-conquer PMF tail, Normal or Poisson approximation, sampled
possible worlds), a decision rule (Definition 2's inclusive ``esup >=
min_esup`` versus Definition 4's strict ``Pr[sup >= min_count] > pft``), a
bound chain, an item-prefilter rule and a seed mode.  The depth-first
miners (UH-Mine, UFP-growth) plug in through the spec's ``expander`` hook:
the driver still owns seeding and accounting, the spec supplies the growth
strategy.  Streaming mining and the top-k search drive the same loop
through :meth:`LevelwiseSearch.drive` and :meth:`LevelwiseSearch.run_topk`.

A level is a :class:`CandidateLevel` — an item matrix, each candidate's
parent row and extension item — from join to record, and its statistics
are the only seam between the scorers and their data source.  A batch run
hands the kernels a :class:`ScoredLevel` whose
:class:`~repro.core.support.SupportEngine` covers the vectors of the
candidates that survived the occupancy kill
(:func:`~repro.algorithms.common.make_level_source`); a
streaming run hands them an adapter over the incremental index that
answers the same questions.  So
:class:`ExpectedSupportKernel` and :class:`TailEvaluationKernel` are the
only threshold scorers, and :func:`repro.core.topk.topk_scorer` the only
top-k scorer, batch or streaming.

Everything the engine does is held to the bitwise contract pinned by
``tests/test_search_engine.py``: for every miner x (workers, shards)
configuration the results are byte-identical to the checked-in goldens.

The compiled kernels (:mod:`repro.core.kernels`) sit below
:class:`~repro.core.support.SupportEngine`, inside the exact-tail
functions it calls, not at :meth:`LevelKernel.evaluate`: the driver, the
specs, the level kernels and the accounting are the same on the compiled
and the NumPy path, and so are the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .itemset import Itemset
from .results import FrequentItemset, MiningResult, MiningStatistics
from .support import SupportEngine
from .topk import run_topk_search, topk_scorer

__all__ = [
    "Candidate",
    "CandidateLevel",
    "ScoredLevel",
    "MinerSpec",
    "SearchContext",
    "LevelKernel",
    "ExpectedSupportKernel",
    "TailEvaluationKernel",
    "LevelwiseSearch",
    "engine_level",
    "markov_item_prefilter",
]

Candidate = Tuple[int, ...]

_DEFINITIONS = ("expected", "probabilistic")
_SEED_MODES = ("statistics", "evaluate", "none")

_COMMON = None


def _common():
    """The shared miner subroutines (:mod:`repro.algorithms.common`).

    Imported lazily: ``algorithms`` imports this module at class-definition
    time, so a top-level import back into the package would make the import
    order of ``repro.core.search`` versus ``repro.algorithms`` significant.
    """
    global _COMMON
    if _COMMON is None:
        from ..algorithms import common

        _COMMON = common
    return _COMMON


class CandidateLevel:
    """One Apriori level held as arrays.

    ``items`` is an ``(n, k)`` int64 matrix whose rows are the candidates
    in lexicographic order.  A joined level also knows its lineage:
    ``parents[c]`` is the row of candidate ``c``'s ``k - 1``-prefix in
    ``source`` (the level it was joined from) and ``items[c, -1]`` is its
    extension item.  ``columns`` is the candidates' column block
    (:class:`~repro.db.columnar.ColumnBlock`) once a columnar source has
    computed it; the next level gathers from it as its parent block.

    >>> level = CandidateLevel.from_tuples([(1, 2), (1, 3)])
    >>> len(level), level.tuples()
    (2, [(1, 2), (1, 3)])
    """

    __slots__ = ("items", "parents", "source", "columns")

    def __init__(
        self,
        items: np.ndarray,
        parents: Optional[np.ndarray] = None,
        source: Optional["CandidateLevel"] = None,
        columns: Any = None,
    ) -> None:
        self.items = items
        self.parents = parents
        self.source = source
        self.columns = columns

    @classmethod
    def from_tuples(cls, candidates: Sequence[Sequence[int]]) -> "CandidateLevel":
        """A lineage-free level of equally long, sorted candidate tuples."""
        candidates = list(candidates)
        width = len(candidates[0]) if candidates else 0
        items = np.array(candidates, dtype=np.int64).reshape(len(candidates), width)
        return cls(items)

    def __len__(self) -> int:
        return len(self.items)

    def tuples(self) -> List[Candidate]:
        return [tuple(row) for row in self.items.tolist()]

    def select(self, rows: Sequence[int], columns: Any = None) -> "CandidateLevel":
        """A new lineage-free level of ``rows`` (order kept), with their ``columns``."""
        return CandidateLevel(self.items[np.asarray(rows, dtype=np.int64)], columns=columns)


@dataclass
class ScoredLevel:
    """What ``SearchContext.level`` returns for one :class:`CandidateLevel`.

    ``stats`` (a :class:`~repro.core.support.SupportEngine`, or the
    streaming index's adapter) covers only the candidates at
    ``positions``; the others were killed by the source's occupancy count
    and allocate nothing.  ``columns`` are the covered candidates' columns
    when a columnar source computed them.
    """

    candidates: CandidateLevel
    stats: Any
    positions: np.ndarray
    columns: Any = None

    def itemsets(self, rows: np.ndarray) -> List[Candidate]:
        return [tuple(items) for items in self.candidates.items[self.positions[rows]].tolist()]

    def survivors(self, rows: Sequence[int]) -> CandidateLevel:
        """The next level: the covered candidates at ``rows``, with their columns."""
        rows = np.asarray(rows, dtype=np.int64)
        columns = None if self.columns is None else self.columns.select(rows)
        return self.candidates.select(self.positions[rows], columns)


def engine_level(source: Callable, executor: Any = None) -> Callable:
    """The batch ``level(candidates, kill)`` callable over a tuple source.

    ``source`` is :func:`~repro.algorithms.common.make_candidate_source`'s
    evaluator of an arbitrary candidate list (the top-k search's
    children); ``kill`` is its stage-1 kill threshold.  The executor rides
    on the engine to the survivor batch's exact tails.
    """

    def level(candidates: Sequence[Candidate], kill: float) -> SupportEngine:
        return SupportEngine(source(candidates, min_count=kill), executor=executor)

    return level


def markov_item_prefilter(ctx: "SearchContext") -> float:
    """The standard Definition-4 item prefilter bar.

    Markov's inequality gives ``Pr[sup >= min_count] <= esup / min_count``,
    so an item with ``esup < min_count * pft`` can never qualify; dropping
    it up front is always sound.
    """
    return ctx.min_count * ctx.pft


@dataclass(frozen=True)
class MinerSpec:
    """A declarative description of one miner, executed by :class:`LevelwiseSearch`.

    Parameters
    ----------
    name:
        Registry name, stamped on the result statistics.
    definition:
        ``"expected"`` (Definition 2: inclusive ``esup >= min_esup``) or
        ``"probabilistic"`` (Definition 4: strict ``Pr[sup >= min_count] >
        pft``).  Decides how :attr:`threshold` is resolved into the run's
        absolute thresholds.
    threshold:
        The query threshold object
        (:class:`~repro.core.thresholds.ExpectedSupportThreshold` or
        :class:`~repro.core.thresholds.ProbabilisticThreshold`); ``None``
        only for ranking (top-k) specs whose support level is resolved by
        the caller.
    kernel:
        The score kernel evaluating one candidate level (see
        :class:`LevelKernel`).  ``None`` when an :attr:`expander` owns the
        growth instead.
    bound_chain:
        The sound filters applied before the exact evaluation, in cost
        order.  ``("occupancy",)`` is the always-on stage-1 kill (a
        candidate with fewer supporting rows than ``min_count`` scores
        exactly zero); appending ``"markov"`` and ``"chernoff"`` engages
        the cheap tail bounds of the *B* miner configurations.
    item_prefilter:
        ``callable(ctx) -> float`` returning the minimum item expected
        support for the seed; ``None`` seeds from every item.  Only
        consulted when the search is not already driven by an
        expected-support threshold (which is its own prefilter).
    seed_mode:
        How 1-itemsets enter the search: ``"statistics"`` records them
        straight off the item-statistics pass (expected-support miners),
        ``"evaluate"`` runs them through the kernel like any level
        (probabilistic miners), ``"none"`` leaves seeding to the expander.
    track_variance:
        Record support variances on ``"statistics"``-seeded records and in
        the expected-support kernel.
    search_threshold:
        ``callable(ctx) -> float`` translating the resolved thresholds into
        the absolute expected-support bar that drives the search (the
        Poisson ``lambda*`` translation, NDUH-Mine's Normal bound).  For
        ``"expected"`` specs the default is the threshold itself.
    record_probability:
        ``callable(ctx, esup) -> float | None`` annotating records created
        by the driver with an (approximate) frequent probability.
    expander:
        ``callable(ctx) -> None`` growing the frequent set depth-first
        instead of the levelwise loop (UH-Mine's head tables, UFP-growth's
        conditional trees).  The driver still owns the seed and the
        statistics.
    finalize:
        ``callable(ctx) -> None`` run after the search (post-filters,
        run-level notes).
    uses_executor:
        Whether the run opens the partition-parallel executor.  The
        deliberately-serial sampling miner leaves it off.
    """

    name: str
    definition: str
    threshold: Any = None
    kernel: Optional["LevelKernel"] = None
    bound_chain: Tuple[str, ...] = ("occupancy",)
    item_prefilter: Optional[Callable[["SearchContext"], float]] = None
    seed_mode: str = "statistics"
    track_variance: bool = False
    search_threshold: Optional[Callable[["SearchContext"], float]] = None
    record_probability: Optional[
        Callable[["SearchContext", float], Optional[float]]
    ] = None
    expander: Optional[Callable[["SearchContext"], None]] = None
    finalize: Optional[Callable[["SearchContext"], None]] = None
    uses_executor: bool = True

    def __post_init__(self) -> None:
        if self.definition not in _DEFINITIONS:
            raise ValueError(
                f"definition must be one of {_DEFINITIONS}, got {self.definition!r}"
            )
        if self.seed_mode not in _SEED_MODES:
            raise ValueError(
                f"seed_mode must be one of {_SEED_MODES}, got {self.seed_mode!r}"
            )

@dataclass
class SearchContext:
    """Everything one run of the engine shares with its kernel and hooks."""

    database: Any
    spec: MinerSpec
    statistics: MiningStatistics
    executor: Any = None
    n_transactions: int = 0
    #: ``{item: (expected_support, variance)}`` from the opening scan
    item_stats: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    #: the items surviving the prefilter, with their statistics
    seed_items: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    records: List[FrequentItemset] = field(default_factory=list)
    #: Definition-2 decision threshold (absolute); None for Definition 4
    min_expected_support: Optional[float] = None
    #: Definition-4 support level and frequentness threshold
    min_count: Optional[int] = None
    pft: Optional[float] = None
    #: the absolute expected-support bar driving an esup-driven search
    search_min_esup: Optional[float] = None
    #: ``level(candidates, kill) -> ScoredLevel`` of one
    #: :class:`CandidateLevel`: a :class:`~repro.core.support.SupportEngine`
    #: in batch runs, an index adapter in streaming ones (``kill`` is a
    #: sound stage-1 kill bar a source may ignore)
    level: Optional[Callable[[CandidateLevel, float], ScoredLevel]] = None
    #: free-form state shared between spec hooks of one run
    scratch: Dict[str, Any] = field(default_factory=dict)

    def record(
        self,
        candidate: Sequence[int],
        expected: float,
        variance: Optional[float] = None,
        probability: Optional[float] = None,
    ) -> None:
        """Append one frequent itemset, applying the spec's record hooks.

        ``candidate`` holds distinct database items (ints), in any order: a
        depth-first miner's prefixes follow its item ranking.  Sorted, it is
        adopted without the public constructor's de-duplication and checks.
        """
        if probability is None and self.spec.record_probability is not None:
            probability = self.spec.record_probability(self, expected)
        itemset = Itemset._canonical(tuple(sorted(candidate)))
        self.records.append(FrequentItemset(itemset, expected, variance, probability))


class LevelKernel:
    """Scores one level of candidates and applies the spec's decision rule.

    The driver owns the loop: ``evaluate`` receives a whole
    :class:`CandidateLevel`, appends the admitted records to
    ``ctx.records`` and returns the admitted candidates as the level that
    seeds the next join.  The analytic kernels read the level's statistics
    through ``ctx.level``; a kernel with its own substrate (the sampled
    worlds) builds it in ``begin``.  The compiled exact-tail kernels sit
    below the support engine the analytic kernels call, so no ``evaluate``
    knows whether they ran.
    """

    def begin(self, ctx: SearchContext) -> None:
        """Build per-run state (called once, after seeding decisions)."""

    def evaluate(self, ctx: SearchContext, candidates: CandidateLevel) -> CandidateLevel:
        """Score ``candidates``; record the admitted ones; return them."""
        raise NotImplementedError


class ExpectedSupportKernel(LevelKernel):
    """The Definition-2 score kernel: inclusive ``esup >= bar``.

    The whole level is evaluated in one pass over its statistics (the
    source gets the bar as its stage-1 kill threshold: ``esup(X) <=
    count(X)``, so a candidate with fewer supporting rows than the bar is
    already decided and never reaches the statistics).
    """

    def evaluate(self, ctx: SearchContext, candidates: CandidateLevel) -> CandidateLevel:
        bar = ctx.search_min_esup
        level = ctx.level(candidates, bar)
        expected = level.stats.expected_supports()
        admitted = np.flatnonzero(expected >= bar)
        variances = (
            level.stats.variances()[admitted].tolist()
            if ctx.spec.track_variance
            else [None] * len(admitted)
        )
        for itemset, value, variance in zip(
            level.itemsets(admitted), expected[admitted].tolist(), variances
        ):
            ctx.record(itemset, value, variance)
        return level.survivors(admitted)


class TailEvaluationKernel(LevelKernel):
    """The Definition-4 score kernel: strict ``Pr[sup >= min_count] > pft``.

    The full three-stage cascade of the probabilistic miners: the source
    kills candidates whose occupancy count is below ``min_count`` before
    any float work (stage 1), the survivors' columns come from one
    gather over the previous level's column block (stage 2), and the bound
    chain runs in cost order — occupancy count, then Markov, then Chernoff
    — so the tail evaluation only pays for the candidates no bound could
    decide (stage 3).  Every filter is one-sided, so the frequent set is
    identical to the unfiltered evaluation.

    ``batch_tails`` is the miner's kernel binding: ``callable(level,
    min_count) -> ndarray`` of frequent probabilities over the survivor
    batch (the vectorized DP recurrence, the divide-and-conquer PMF tails,
    the Normal moments, the streaming index's merged PMFs).
    """

    def __init__(self, batch_tails: Callable[[Any, int], Any]) -> None:
        self.batch_tails = batch_tails

    def evaluate(self, ctx: SearchContext, candidates: CandidateLevel) -> CandidateLevel:
        if not len(candidates):
            return candidates.select([])
        statistics = ctx.statistics
        level = ctx.level(candidates, ctx.min_count)
        stats = level.stats
        expected = stats.expected_supports()
        variance = stats.variances()
        undecided = stats.undecided_after_bounds(
            ctx.min_count,
            ctx.pft,
            use_bounds="chernoff" in ctx.spec.bound_chain,
            notes=statistics.notes,
        )
        admitted: List[Tuple[int, float]] = []
        if undecided:
            statistics.exact_evaluations += len(undecided)
            probabilities = self.batch_tails(stats.subset(undecided), ctx.min_count)
            admitted = [
                (row, float(probability))
                for row, probability in zip(undecided, probabilities)
                if probability > ctx.pft
            ]
        rows = np.array([row for row, _ in admitted], dtype=np.int64)
        for itemset, (row, probability) in zip(level.itemsets(rows), admitted):
            ctx.records.append(
                FrequentItemset(
                    Itemset(itemset), float(expected[row]), float(variance[row]), probability
                )
            )
        return level.survivors(rows)


class LevelwiseSearch:
    """Executes a :class:`MinerSpec` — the single driver behind every miner.

    ``run`` performs a full batch mine; ``run_topk`` the floor-driven
    ranked search; ``drive`` exposes the bare loop for callers that bring
    their own level statistics (the streaming miners, whose statistics
    come from the incremental index instead of a database scan).
    """

    def __init__(self, spec: MinerSpec, miner: Any = None) -> None:
        self.spec = spec
        self.miner = miner

    # -- the one true loop -------------------------------------------------------------
    def drive(
        self,
        seed_level: CandidateLevel,
        evaluate: Callable[[CandidateLevel], CandidateLevel],
        statistics: MiningStatistics,
    ) -> None:
        """The levelwise loop: generate -> account -> evaluate -> extend.

        Each level is the apriori join of the surviving level with
        downward-closure subset pruning, both over the level's item matrix
        (:func:`~repro.algorithms.common.apriori_join`,
        :func:`~repro.algorithms.common.has_infrequent_subset`).
        ``evaluate`` scores one level and returns the candidates admitted
        to the next; the uniform accounting (see
        :class:`~repro.core.results.MiningStatistics`) charges
        ``candidates_generated`` for every generated candidate and
        ``candidates_pruned`` for every one not admitted.

        Sort order is maintained once per level: the seed level is sorted,
        the apriori join of a sorted level is sorted, and survivors preserve
        order — so no level is ever re-sorted.
        """
        current_level = seed_level
        while current_level:
            candidates = self._apriori_candidates(current_level)
            statistics.candidates_generated += len(candidates)
            if not candidates:
                break
            survivors = evaluate(candidates)
            statistics.candidates_pruned += len(candidates) - len(survivors)
            current_level = survivors

    @staticmethod
    def _apriori_candidates(level: CandidateLevel) -> CandidateLevel:
        common = _common()
        joined = common.apriori_join(level)
        keep = ~common.has_infrequent_subset(joined.items, level.items)
        return CandidateLevel(joined.items[keep], joined.parents[keep], level)

    # -- batch mining ------------------------------------------------------------------
    def run(self, database: Any) -> MiningResult:
        """Mine ``database`` under this search's spec; return the result."""
        miner = self._require_miner()
        common = _common()
        spec = self.spec
        statistics = miner._new_statistics()
        statistics.algorithm = spec.name
        with common.instrumented_run(statistics, miner.track_memory):
            executor_scope = (
                miner._open_executor(database)
                if spec.uses_executor
                else _NullExecutorScope()
            )
            with executor_scope as executor:
                ctx = SearchContext(
                    database=database,
                    spec=spec,
                    statistics=statistics,
                    executor=executor,
                    n_transactions=len(database),
                    level=common.make_level_source(database, executor=executor),
                )
                self._prepare(ctx)
                if spec.kernel is not None:
                    spec.kernel.begin(ctx)
                seed_level = self._seed(ctx)
                if spec.expander is not None:
                    spec.expander(ctx)
                else:
                    self._drive_levels(ctx, seed_level)
                if spec.finalize is not None:
                    spec.finalize(ctx)
        return MiningResult(ctx.records, statistics)

    def _require_miner(self) -> Any:
        if self.miner is None:
            raise ValueError("this LevelwiseSearch was built without a miner")
        return self.miner

    def _prepare(self, ctx: SearchContext) -> None:
        """Resolve thresholds, scan item statistics, apply the prefilter."""
        spec = ctx.spec
        # Item statistics always come from the unpartitioned view: the
        # full-column reductions are cheap, and reusing them keeps the
        # frequent-1-item decisions byte-identical for every (workers,
        # shards) configuration.
        ctx.item_stats = _common().item_statistics(ctx.database)
        ctx.statistics.database_scans += 1
        self.resolve_thresholds(ctx)

        if ctx.search_min_esup is not None:
            bar = ctx.search_min_esup
        elif spec.item_prefilter is not None:
            bar = spec.item_prefilter(ctx)
        else:
            bar = None
        if bar is None:
            ctx.seed_items = dict(ctx.item_stats)
        else:
            ctx.seed_items = {
                item: stats
                for item, stats in ctx.item_stats.items()
                if stats[0] >= bar
            }

    @staticmethod
    def resolve_thresholds(ctx: SearchContext) -> None:
        """Resolve the spec's threshold against ``ctx.n_transactions``."""
        spec = ctx.spec
        if spec.definition == "expected":
            ctx.min_expected_support = spec.threshold.absolute(ctx.n_transactions)
        else:
            ctx.min_count = spec.threshold.min_count(ctx.n_transactions)
            ctx.pft = spec.threshold.pft

        if spec.search_threshold is not None:
            ctx.search_min_esup = spec.search_threshold(ctx)
        else:
            ctx.search_min_esup = ctx.min_expected_support

    def _seed(self, ctx: SearchContext) -> CandidateLevel:
        """Bring the 1-itemsets into the search according to the seed mode."""
        spec = ctx.spec
        seed = CandidateLevel.from_tuples([(item,) for item in sorted(ctx.seed_items)])
        if spec.seed_mode == "statistics":
            for item, (expected, variance) in ctx.seed_items.items():
                ctx.record(
                    (item,),
                    expected,
                    variance if spec.track_variance else None,
                )
            return seed
        if spec.seed_mode == "evaluate":
            return spec.kernel.evaluate(ctx, seed)
        return seed.select([])

    def _drive_levels(self, ctx: SearchContext, seed_level: CandidateLevel) -> None:
        kernel = ctx.spec.kernel

        def evaluate(candidates: CandidateLevel) -> CandidateLevel:
            ctx.statistics.database_scans += 1
            return kernel.evaluate(ctx, candidates)

        self.drive(seed_level, evaluate, ctx.statistics)

    # -- ranked (top-k) mining ---------------------------------------------------------
    def run_topk(self, database: Any, k: int, min_count: Optional[int] = None):
        """The floor-driven best-first ranked search, on the same substrate.

        The driver owns the prologue — item statistics, universe, level
        statistics, executor — and the accounting, exactly as for
        threshold mining; :func:`~repro.core.topk.topk_scorer` scores each
        expanded node's children under the miner's evaluator.
        """
        from .topk import TopKResult

        miner = self._require_miner()
        common = _common()
        statistics = miner._new_statistics()
        statistics.algorithm = self.spec.name
        with common.instrumented_run(statistics, miner.track_memory), (
            miner._open_executor(database)
        ) as executor:
            stats_by_item = common.item_statistics(database)
            statistics.database_scans += 1
            universe = sorted(
                item for item, stats in stats_by_item.items() if stats[0] > 0.0
            )
            evaluate = topk_scorer(
                engine_level(
                    common.make_candidate_source(database, executor=executor),
                    executor,
                ),
                miner.evaluator,
                min_count,
                statistics,
                use_pruning=miner.use_pruning,
                track_variance=self.spec.track_variance,
            )
            buffer = run_topk_search(
                universe,
                evaluate,
                k,
                use_floor=miner.use_pruning,
                statistics=statistics,
            )
            records = buffer.records()
            statistics.notes["k"] = float(k)
            statistics.notes["floor"] = buffer.floor
        return TopKResult(
            records, k, miner.ranking, min_count=min_count, statistics=statistics
        )


class _NullExecutorScope:
    """Context manager yielding no executor (specs with ``uses_executor=False``)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False
