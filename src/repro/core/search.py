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

A level's statistics are the only seam between the scorers and their data
source.  A batch run hands the kernels a
:class:`~repro.core.support.SupportEngine` over the candidate source's
vectors (:func:`engine_level`); a streaming run hands them an adapter over
the incremental index that answers the same questions.  So
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

from .itemset import Itemset
from .results import FrequentItemset, MiningResult, MiningStatistics
from .support import SupportEngine
from .topk import run_topk_search, topk_scorer

__all__ = [
    "Candidate",
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


def engine_level(source: Callable, executor: Any = None) -> Callable:
    """The batch ``level(candidates, kill)`` callable over a candidate source.

    ``source`` is :func:`~repro.algorithms.common.make_candidate_source`'s
    level evaluator; ``kill`` is its stage-1 kill threshold.  The executor
    rides on the engine to the survivor batch's exact tails.
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
    #: ``level(candidates, kill) -> statistics`` of one candidate level: a
    #: :class:`~repro.core.support.SupportEngine` in batch runs, an index
    #: adapter in streaming ones (``kill`` is a sound stage-1 kill bar a
    #: source may ignore)
    level: Optional[Callable[[Sequence[Candidate], float], Any]] = None
    #: free-form state shared between spec hooks of one run
    scratch: Dict[str, Any] = field(default_factory=dict)

    def record(
        self,
        candidate: Sequence[int],
        expected: float,
        variance: Optional[float] = None,
        probability: Optional[float] = None,
    ) -> None:
        """Append one frequent itemset, applying the spec's record hooks."""
        if probability is None and self.spec.record_probability is not None:
            probability = self.spec.record_probability(self, expected)
        self.records.append(
            FrequentItemset(Itemset(tuple(candidate)), expected, variance, probability)
        )


class LevelKernel:
    """Scores one level of candidates and applies the spec's decision rule.

    The driver owns the loop: ``evaluate`` receives a whole level, appends
    the admitted records to ``ctx.records`` and returns the candidates
    that seed the next level.  The analytic kernels read the level's
    statistics through ``ctx.level``; a kernel with its own substrate (the
    sampled worlds) builds it in ``begin``.  The compiled exact-tail
    kernels sit below the support engine the analytic kernels call, so no
    ``evaluate`` knows whether they ran.
    """

    def begin(self, ctx: SearchContext) -> None:
        """Build per-run state (called once, after seeding decisions)."""

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        """Score ``candidates``; record the admitted ones; return the survivors."""
        raise NotImplementedError


class ExpectedSupportKernel(LevelKernel):
    """The Definition-2 score kernel: inclusive ``esup >= bar``.

    The whole level is evaluated in one pass over its statistics (the
    source gets the bar as its stage-1 kill threshold: ``esup(X) <=
    count(X)``, so a candidate with fewer supporting rows than the bar is
    already decided).
    """

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        level = ctx.level(candidates, ctx.search_min_esup)
        expected_supports = level.expected_supports()
        variances = level.variances() if ctx.spec.track_variance else None
        survivors: List[Candidate] = []
        for index, candidate in enumerate(candidates):
            expected = float(expected_supports[index])
            if expected >= ctx.search_min_esup:
                ctx.record(
                    candidate,
                    expected,
                    float(variances[index]) if variances is not None else None,
                )
                survivors.append(candidate)
        return survivors


class TailEvaluationKernel(LevelKernel):
    """The Definition-4 score kernel: strict ``Pr[sup >= min_count] > pft``.

    The full three-stage cascade of the probabilistic miners: the source
    kills candidates whose occupancy count is below ``min_count`` before
    any float work (stage 1), the survivors' columns come from the
    cross-level prefix cache (stage 2), and the bound chain runs in cost
    order — occupancy count, then Markov, then Chernoff — so the tail
    evaluation only pays for the candidates no bound could decide (stage
    3).  Every filter is one-sided, so the frequent set is identical to the
    unfiltered evaluation.

    ``batch_tails`` is the miner's kernel binding: ``callable(level,
    min_count) -> ndarray`` of frequent probabilities over the survivor
    batch (the vectorized DP recurrence, the divide-and-conquer PMF tails,
    the Normal moments, the streaming index's merged PMFs).
    """

    def __init__(self, batch_tails: Callable[[Any, int], Any]) -> None:
        self.batch_tails = batch_tails

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        if not candidates:
            return []
        statistics = ctx.statistics
        level = ctx.level(candidates, ctx.min_count)
        expected = level.expected_supports()
        variance = level.variances()
        survivors = level.undecided_after_bounds(
            ctx.min_count,
            ctx.pft,
            use_bounds="chernoff" in ctx.spec.bound_chain,
            notes=statistics.notes,
        )
        if not survivors:
            return []

        statistics.exact_evaluations += len(survivors)
        probabilities = self.batch_tails(level.subset(survivors), ctx.min_count)

        next_level: List[Candidate] = []
        for index, probability in zip(survivors, probabilities):
            if probability > ctx.pft:
                candidate = candidates[index]
                ctx.records.append(
                    FrequentItemset(
                        Itemset(candidate),
                        float(expected[index]),
                        float(variance[index]),
                        float(probability),
                    )
                )
                next_level.append(candidate)
        return next_level


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
        seed_level: Sequence[Candidate],
        evaluate: Callable[[List[Candidate]], List[Candidate]],
        statistics: MiningStatistics,
    ) -> None:
        """The levelwise loop: generate -> account -> evaluate -> extend.

        Each level is the apriori join of the surviving level with
        downward-closure subset pruning.  ``evaluate`` scores one level and
        returns the candidates admitted to the next; the uniform accounting
        (see :class:`~repro.core.results.MiningStatistics`) charges
        ``candidates_generated`` for every generated candidate and
        ``candidates_pruned`` for every one not admitted.

        Sort order is maintained once per level: the seed is sorted, the
        apriori join of a sorted level is sorted, and survivors preserve
        order — so the join never re-sorts (``presorted=True``).
        """
        current_level = list(seed_level)
        while current_level:
            candidates = self._apriori_candidates(current_level)
            statistics.candidates_generated += len(candidates)
            if not candidates:
                break
            survivors = evaluate(candidates)
            statistics.candidates_pruned += len(candidates) - len(survivors)
            current_level = survivors

    @staticmethod
    def _apriori_candidates(current_level: List[Candidate]) -> List[Candidate]:
        common = _common()
        frequent_keys = set(current_level)
        return [
            candidate
            for candidate in common.apriori_join(current_level, presorted=True)
            if not common.has_infrequent_subset(candidate, frequent_keys)
        ]

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
                    level=engine_level(
                        common.make_candidate_source(database, executor=executor),
                        executor,
                    ),
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

    def _seed(self, ctx: SearchContext) -> List[Candidate]:
        """Bring the 1-itemsets into the search according to the seed mode."""
        spec = ctx.spec
        if spec.seed_mode == "statistics":
            for item, (expected, variance) in ctx.seed_items.items():
                ctx.record(
                    (item,),
                    expected,
                    variance if spec.track_variance else None,
                )
            return [(item,) for item in sorted(ctx.seed_items)]
        if spec.seed_mode == "evaluate":
            return spec.kernel.evaluate(
                ctx, [(item,) for item in sorted(ctx.seed_items)]
            )
        return []

    def _drive_levels(self, ctx: SearchContext, seed_level: List[Candidate]) -> None:
        kernel = ctx.spec.kernel

        def evaluate(candidates: List[Candidate]) -> List[Candidate]:
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
