"""The one levelwise search core behind every registered miner.

The paper's central methodological claim is that algorithm comparisons are
only meaningful inside one common implementation framework.  This module is
that framework's engine: a single :class:`LevelwiseSearch` driver owns the
one true levelwise loop —

    seed level from the item-statistics pass
    -> apriori join + downward-closure subset prune
    -> batched ``CandidateSource.level_vectors`` evaluation
    -> bound-chain filtering (occupancy -> Markov -> Chernoff, in cost order)
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
strategy.  The exhaustive references swap the apriori join for a
``combinations`` level generator.  Streaming mining and the top-k search
drive the same loop through :meth:`LevelwiseSearch.drive` and
:meth:`LevelwiseSearch.run_topk`.

Everything the engine does is held to the bitwise contract pinned by
``tests/test_search_engine.py``: for every miner x backend x (workers,
shards) configuration the results are byte-identical to the goldens
captured at the pre-refactor commit.

A compiled kernel backend (the remaining ROADMAP item) would slot in behind
:class:`LevelKernel.evaluate`: the driver, the specs and the accounting are
agnostic to how a level's scores are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .itemset import Itemset
from .results import FrequentItemset, MiningResult, MiningStatistics
from .support import SupportEngine
from .topk import TopKBuffer, run_topk_search

__all__ = [
    "Candidate",
    "MinerSpec",
    "SearchContext",
    "LevelKernel",
    "ExpectedSupportKernel",
    "TailEvaluationKernel",
    "LevelwiseSearch",
    "markov_item_prefilter",
]

Candidate = Tuple[int, ...]

_DEFINITIONS = ("expected", "probabilistic")
_SEED_MODES = ("statistics", "evaluate", "none")
_LEVEL_GENERATORS = ("join", "exhaustive")

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
        (probabilistic miners), ``"none"`` leaves seeding to the expander
        or level generator.
    track_variance:
        Record support variances on ``"statistics"``-seeded records and in
        the expected-support kernel.
    level_generator:
        ``"join"`` (apriori join + subset prune, the default) or
        ``"exhaustive"`` (all ``combinations`` of the seed items per size,
        up to :attr:`max_size`, extension regardless of outcome — the
        brute-force references).
    max_size:
        Largest itemset size the ``"exhaustive"`` generator enumerates.
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
        deliberately-serial miners (sampling, the exhaustive references)
        leave it off.
    """

    name: str
    definition: str
    threshold: Any = None
    kernel: Optional["LevelKernel"] = None
    bound_chain: Tuple[str, ...] = ("occupancy",)
    item_prefilter: Optional[Callable[["SearchContext"], float]] = None
    seed_mode: str = "statistics"
    track_variance: bool = False
    level_generator: str = "join"
    max_size: Optional[int] = None
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
        if self.level_generator not in _LEVEL_GENERATORS:
            raise ValueError(
                f"level_generator must be one of {_LEVEL_GENERATORS}, "
                f"got {self.level_generator!r}"
            )
        if self.level_generator == "exhaustive" and self.seed_mode != "none":
            raise ValueError(
                "the exhaustive generator enumerates 1-itemsets itself; "
                'use seed_mode="none"'
            )

@dataclass
class SearchContext:
    """Everything one run of the engine shares with its kernel and hooks."""

    database: Any
    spec: MinerSpec
    statistics: MiningStatistics
    backend: str
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
    pruner: Any = None
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

    The kernel owns the evaluation substrate (candidate source, trimmed
    rows, sampled worlds) while the driver owns the loop: ``evaluate``
    receives a whole level, appends the admitted records to
    ``ctx.records`` and returns the candidates that seed the next level.
    A compiled backend would replace the body of ``evaluate`` without
    touching any spec or the driver.
    """

    def begin(self, ctx: SearchContext) -> None:
        """Build per-run state (called once, after seeding decisions)."""

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        """Score ``candidates``; record the admitted ones; return the survivors."""
        raise NotImplementedError

    def finish(self, ctx: SearchContext) -> None:
        """Flush run-level notes (called once, after the search)."""


class ExpectedSupportKernel(LevelKernel):
    """The Definition-2 score kernel: inclusive ``esup >= bar``.

    On the columnar backend the whole level is evaluated in one batched
    engine pass (the candidate source gets the bar as its stage-1 kill
    threshold: ``esup(X) <= count(X)``, so a candidate with fewer
    supporting rows than the bar is already decided).  On the row backend
    each candidate is accumulated transaction by transaction with the
    optional *decremental* early termination of Chui et al.: once the
    running total plus the unseen-transaction count drops below the bar
    the candidate is abandoned.
    """

    def __init__(self, decremental: bool = True) -> None:
        self.decremental = decremental
        self._source = None
        self._transactions: Optional[List[Dict[int, float]]] = None

    def begin(self, ctx: SearchContext) -> None:
        common = _common()
        if ctx.backend == "columnar":
            self._source = common.make_candidate_source(
                ctx.database, ctx.seed_items, "columnar", executor=ctx.executor
            )
        else:
            self._transactions = common.trim_transactions(ctx.database, ctx.seed_items)

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        if self._source is not None:
            survivors = self._evaluate_columnar(ctx, candidates)
        else:
            survivors = self._evaluate_rows(ctx, candidates)
        for candidate, expected, variance in survivors:
            ctx.record(candidate, expected, variance)
        return [candidate for candidate, _, _ in survivors]

    def _evaluate_columnar(self, ctx: SearchContext, candidates: List[Candidate]):
        engine = SupportEngine(
            self._source.level_vectors(candidates, min_count=ctx.search_min_esup)
        )
        expected_supports = engine.expected_supports()
        variances = engine.variances() if ctx.spec.track_variance else None
        survivors = []
        for index, candidate in enumerate(candidates):
            expected = float(expected_supports[index])
            if expected >= ctx.search_min_esup:
                survivors.append(
                    (
                        candidate,
                        expected,
                        float(variances[index]) if variances is not None else None,
                    )
                )
        return survivors

    def _evaluate_rows(self, ctx: SearchContext, candidates: List[Candidate]):
        survivors = []
        for candidate in candidates:
            expected, variance, frequent = self._candidate_statistics(
                ctx, candidate, ctx.search_min_esup
            )
            if frequent:
                survivors.append(
                    (
                        candidate,
                        expected,
                        variance if ctx.spec.track_variance else None,
                    )
                )
        return survivors

    def _candidate_statistics(
        self, ctx: SearchContext, candidate: Candidate, bar: float
    ) -> Tuple[float, float, bool]:
        """(expected, variance, surviving) of one row-backend candidate.

        ``surviving`` is False when the decremental bound abandoned the
        candidate early; its statistics are then partial and must not be
        used.
        """
        transactions = self._transactions
        track_variance = ctx.spec.track_variance
        remaining = len(transactions)
        expected = 0.0
        variance = 0.0
        for units in transactions:
            remaining -= 1
            probability = 1.0
            for item in candidate:
                unit = units.get(item)
                if unit is None:
                    probability = 0.0
                    break
                probability *= unit
            if probability > 0.0:
                expected += probability
                if track_variance:
                    variance += probability * (1.0 - probability)
            if self.decremental and expected + remaining < bar:
                return expected, variance, False
        return expected, variance, expected >= bar


class TailEvaluationKernel(LevelKernel):
    """The Definition-4 score kernel: strict ``Pr[sup >= min_count] > pft``.

    The full three-stage cascade of the probabilistic miners: the candidate
    source kills candidates whose bitmap occupancy count is below
    ``min_count`` before any float work (stage 1), the survivors' columns
    come from the cross-level prefix cache (stage 2), and the cheap sound
    bounds run in cost order — occupancy count, then Markov, then Chernoff
    — so the tail evaluation only pays for the candidates no bound could
    decide (stage 3).  Every filter is one-sided, so the frequent set is
    identical to the unfiltered evaluation.

    ``batch_tails`` is the miner's kernel binding: ``callable(engine,
    min_count) -> ndarray`` of frequent probabilities (the vectorized DP
    recurrence, the divide-and-conquer PMF tails, the Normal moments).
    """

    def __init__(
        self, batch_tails: Callable[[SupportEngine, int], Any]
    ) -> None:
        self.batch_tails = batch_tails
        self._source = None

    def begin(self, ctx: SearchContext) -> None:
        self._source = _common().make_candidate_source(
            ctx.database, ctx.seed_items, ctx.backend, executor=ctx.executor
        )

    def evaluate(
        self, ctx: SearchContext, candidates: List[Candidate]
    ) -> List[Candidate]:
        if not candidates:
            return []
        statistics = ctx.statistics
        vectors = self._source.level_vectors(candidates, min_count=ctx.min_count)
        engine = SupportEngine(vectors)
        expected = engine.expected_supports()
        variance = engine.variances()
        max_supports = engine.nonzero_counts()

        survivors = engine.undecided_after_bounds(
            ctx.min_count,
            ctx.pft,
            counts=max_supports,
            use_bounds=ctx.pruner.enabled,
            pruner=ctx.pruner,
            notes=statistics.notes,
        )
        if not survivors:
            return []

        statistics.exact_evaluations += len(survivors)
        batch = SupportEngine(
            [vectors[index] for index in survivors],
            expected=expected[survivors],
            variances=variance[survivors],
            executor=ctx.executor,
        )
        probabilities = self.batch_tails(batch, ctx.min_count)

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

    def finish(self, ctx: SearchContext) -> None:
        ctx.statistics.notes["chernoff_tested"] = float(ctx.pruner.tested)
        ctx.statistics.notes["chernoff_pruned"] = float(ctx.pruner.pruned)


class LevelwiseSearch:
    """Executes a :class:`MinerSpec` — the single driver behind every miner.

    ``run`` performs a full batch mine; ``run_topk`` the floor-driven
    ranked search; ``drive`` exposes the bare loop for callers that bring
    their own evaluation substrate (the streaming miners, whose statistics
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
        generator: Optional[
            Callable[[List[Candidate]], Optional[List[Candidate]]]
        ] = None,
    ) -> None:
        """The levelwise loop: generate -> account -> evaluate -> extend.

        ``generator`` maps the surviving level to the next candidate level
        (``None`` ends the search); the default is the apriori join with
        downward-closure subset pruning.  ``evaluate`` scores one level and
        returns the candidates admitted to the next; the uniform accounting
        (see :class:`~repro.core.results.MiningStatistics`) charges
        ``candidates_generated`` for every generated candidate and
        ``candidates_pruned`` for every one not admitted.

        Sort order is maintained once per level: the seed is sorted, the
        apriori join of a sorted level is sorted, and survivors preserve
        order — so the join never re-sorts (``presorted=True``).
        """
        if generator is None:
            generator = self._apriori_candidates
        current_level = list(seed_level)
        while True:
            candidates = generator(current_level)
            if candidates is None:
                break
            statistics.candidates_generated += len(candidates)
            if not candidates:
                break
            survivors = evaluate(candidates)
            statistics.candidates_pruned += len(candidates) - len(survivors)
            current_level = survivors

    @staticmethod
    def _apriori_candidates(
        current_level: List[Candidate],
    ) -> Optional[List[Candidate]]:
        if not current_level:
            return None
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
                    backend=miner.backend,
                    executor=executor,
                    n_transactions=len(database),
                )
                self._prepare(ctx)
                if spec.kernel is not None:
                    spec.kernel.begin(ctx)
                seed_level = self._seed(ctx)
                if spec.expander is not None:
                    spec.expander(ctx)
                elif spec.level_generator == "exhaustive":
                    self._drive_exhaustive(ctx)
                else:
                    self._drive_levels(ctx, seed_level)
                if spec.kernel is not None:
                    spec.kernel.finish(ctx)
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
        ctx.item_stats = _common().item_statistics(ctx.database, backend=ctx.backend)
        ctx.statistics.database_scans += 1

        if spec.definition == "expected":
            ctx.min_expected_support = spec.threshold.absolute(ctx.n_transactions)
        else:
            ctx.min_count = spec.threshold.min_count(ctx.n_transactions)
            ctx.pft = spec.threshold.pft

        if spec.search_threshold is not None:
            ctx.search_min_esup = spec.search_threshold(ctx)
        else:
            ctx.search_min_esup = ctx.min_expected_support

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

        from ..algorithms.pruning import ChernoffPruner

        ctx.pruner = ChernoffPruner(enabled="chernoff" in spec.bound_chain)

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

    def _drive_exhaustive(self, ctx: SearchContext) -> None:
        """All ``combinations`` of the seed items per size, join-free."""
        kernel = ctx.spec.kernel
        base = sorted(ctx.seed_items)
        limit = min(ctx.spec.max_size or len(base), len(base))
        state = {"size": 0}

        def generator(_survivors: List[Candidate]) -> Optional[List[Candidate]]:
            # Extension is unconditional: the references keep enumerating
            # even when a whole size comes up empty.
            state["size"] += 1
            if state["size"] > limit:
                return None
            return list(combinations(base, state["size"]))

        def evaluate(candidates: List[Candidate]) -> List[Candidate]:
            ctx.statistics.database_scans += 1
            return kernel.evaluate(ctx, candidates)

        self.drive([], evaluate, ctx.statistics, generator=generator)

    # -- ranked (top-k) mining ---------------------------------------------------------
    def run_topk(self, database: Any, k: int, min_count: Optional[int] = None):
        """The floor-driven best-first ranked search, on the same substrate.

        The miner supplies its evaluator through ``_topk_evaluate`` (the
        ranking's kernel binding); the driver owns the prologue — item
        statistics, universe, candidate source, executor — and the
        accounting, exactly as for threshold mining.
        """
        from .topk import TopKResult

        miner = self._require_miner()
        common = _common()
        statistics = miner._new_statistics()
        statistics.algorithm = self.spec.name
        with common.instrumented_run(statistics, miner.track_memory), (
            miner._open_executor(database)
        ) as executor:
            stats_by_item = common.item_statistics(database, backend=miner.backend)
            statistics.database_scans += 1
            universe = sorted(
                item for item, stats in stats_by_item.items() if stats[0] > 0.0
            )
            source = common.make_candidate_source(
                database, universe, miner.backend, executor=executor
            )
            evaluate = miner._topk_evaluate(source, min_count, statistics, executor)
            buffer = self.best_first(
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

    @staticmethod
    def best_first(
        universe: Sequence[int],
        evaluate: Callable,
        k: int,
        use_floor: bool = True,
        statistics: Optional[MiningStatistics] = None,
    ) -> TopKBuffer:
        """The threshold-raising best-first search (batch and streaming top-k)."""
        return run_topk_search(
            universe, evaluate, k, use_floor=use_floor, statistics=statistics
        )


class _NullExecutorScope:
    """Context manager yielding no executor (specs with ``uses_executor=False``)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False
