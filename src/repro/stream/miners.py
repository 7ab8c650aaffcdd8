"""Streaming miners: re-emit the frequent set after every window slide.

Two streaming variants cover the paper's two frequent-itemset definitions:

* :class:`StreamingUApriori` — expected-support mining (Definition 2,
  ``esup(X) >= min_esup``) over the resident window, the streaming analogue
  of :class:`~repro.algorithms.uapriori.UApriori`;
* :class:`StreamingDP` — exact probabilistic mining (Definition 4,
  ``Pr[sup(X) >= min_count] > pft``), the streaming analogue of the DP
  miner — the frequent probability is read off two stacks of DP states
  that each arrival advances by one step, instead of re-running the DP
  recurrence over the whole window.

Both run the same level-wise search as their batch counterparts —
literally: each slide drives :meth:`repro.core.search.LevelwiseSearch.drive`
with the batch miners' own score kernels
(:class:`~repro.core.search.ExpectedSupportKernel`,
:class:`~repro.core.search.TailEvaluationKernel`) under the miner's
declarative :class:`~repro.core.search.MinerSpec` (identical join,
downward-closure pruning, threshold conversions and bound chain) — but
every support statistic comes from the
:class:`~repro.stream.index.IncrementalSupportIndex`, through
:class:`IndexLevel`: a slide of ``k`` transactions refreshes a registered
candidate's moments in ``O(k log W)`` tree merges and its exact tail in
``O(k + sqrt(W))`` DP steps (plus one ``O(W)`` flip every ``W / k``
slides), so the per-slide cost tracks the slide step, not the window
size.  Mining the same window contents with
the corresponding batch miner returns the same frequent set (pinned by
``tests/test_stream_mining.py``).

Candidate lifecycle: candidates are registered in the index on first sight
(one ``O(W)`` back-fill) and retained as long as the level-wise search
keeps querying them; candidates that fall off the frontier are dropped
after the slide, so the maintained set tracks the live border of the
frequent lattice.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..algorithms.common import instrumented_run
from ..core.results import FrequentItemset, MiningResult, MiningStatistics
from ..core.search import (
    CandidateLevel,
    ExpectedSupportKernel,
    LevelwiseSearch,
    MinerSpec,
    ScoredLevel,
    SearchContext,
    TailEvaluationKernel,
    markov_item_prefilter,
)
from ..core.support import undecided_after_bounds
from ..core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from ..core.topk import (
    EVALUATOR_RANKINGS,
    TopKResult,
    resolve_evaluator,
    run_topk_search,
    topk_scorer,
)
from ..plan import materialize_plan, plan_scope
from .index import IncrementalSupportIndex
from .window import SlidingWindow, TransactionStream

__all__ = [
    "BATCH_EQUIVALENTS",
    "IndexLevel",
    "StreamingMiner",
    "StreamingUApriori",
    "StreamingDP",
    "StreamingTopK",
    "STREAMING_MINERS",
    "make_streaming_miner",
]

Candidate = Tuple[int, ...]


class IndexLevel:
    """One level's statistics read off the incremental index.

    The streaming counterpart of :class:`~repro.core.support.SupportEngine`:
    it answers the questions the score kernels ask (moments, occupancy
    counts, the bound chain, the survivor batch, exact tails) and runs the
    candidate lifecycle on the way — the level is registered in the index
    (``ensure``) and recorded as queried when it is built, and the
    candidates whose exact tail is read are kept in PMF maintenance.
    """

    def __init__(
        self,
        miner: "StreamingMiner",
        candidates: Sequence[Candidate],
        stats: Optional[Tuple] = None,
    ) -> None:
        self._miner = miner
        self._candidates = list(candidates)
        if stats is None:
            miner.index.ensure(self._candidates)
            miner._queried.extend(self._candidates)
            stats = miner.index.root_stats(self._candidates)
        self._expected, self._variance, self._counts = stats

    def expected_supports(self) -> np.ndarray:
        return self._expected

    def variances(self) -> Optional[np.ndarray]:
        return self._variance

    def undecided_after_bounds(
        self,
        min_count: int,
        bar: float,
        use_bounds: bool = True,
        notes: Optional[Dict[str, float]] = None,
    ) -> List[int]:
        return undecided_after_bounds(
            self._expected, self._counts, min_count, bar, use_bounds, notes
        )

    def subset(self, indices: Sequence[int]) -> "IndexLevel":
        stats = tuple(
            None if values is None else values[indices]
            for values in (self._expected, self._variance, self._counts)
        )
        return IndexLevel(
            self._miner, [self._candidates[index] for index in indices], stats
        )

    def frequent_probabilities(
        self, min_count: int, method: Optional[str] = None
    ) -> np.ndarray:
        """Exact tails from the index's DP states (whatever the batch ``method``).

        Only these candidates, the survivors of the bound chain, carry the
        cost of tail maintenance across slides.
        """
        self._miner._pmf_keep.extend(self._candidates)
        return self._miner.index.frequent_probabilities(self._candidates, min_count)


class StreamingMiner:
    """Shared machinery of the sliding-window miners (abstract).

    Parameters
    ----------
    window:
        Window capacity ``W``, or an existing (possibly pre-filled)
        :class:`~repro.stream.window.SlidingWindow` to adopt — the index is
        back-filled from its resident transactions either way.
    plan:
        An :class:`~repro.plan.ExecutionPlan` (or plan-spec string /
        mapping) pinned around index construction and every slide, so the
        streaming kernels resolve the same knobs as a batch mine under the
        same plan.
    """

    #: registry name prefix of the emitted statistics
    name = "stream-base"
    #: which optional statistics trees the index must maintain
    index_options: Dict[str, bool] = {}
    #: slides a candidate stays maintained after it was last queried.  A
    #: frequent-set border that oscillates between slides would otherwise
    #: drop and re-register (O(W) back-fill) the same candidates every
    #: slide; a small grace period turns that churn into cheap idle updates.
    retain_slack = 4
    #: whether slides read exact tails (and report ``tail_steps``/``flips``)
    exact_tails = False

    def __init__(self, window, plan=None) -> None:
        self.window = (
            window if isinstance(window, SlidingWindow) else SlidingWindow(int(window))
        )
        #: the materialized execution plan every slide runs under
        self.plan = materialize_plan(plan)
        # PMF maintenance is opted into per candidate (StreamingDP ensures
        # PMFs only for candidates surviving its cheap filters).
        self.index = IncrementalSupportIndex(
            self.window.capacity,
            with_pmfs=False,
            **self.index_options,
        )
        # Back-fill oldest first: the index takes apply order as arrival
        # order, so later slides then evict its oldest row.
        self.index.apply(
            [
                (self.window.slot_of(transaction.tid), transaction.units)
                for transaction in self.window.transactions()
            ]
        )
        #: number of slides applied so far
        self.slides = 0
        self._last_queried: Dict[Candidate, int] = {}
        self._pmf_last_queried: Dict[Candidate, int] = {}

    # -- streaming loop ----------------------------------------------------------------
    def advance(
        self, stream: TransactionStream, step: int
    ) -> Optional[MiningResult]:
        """Slide the window by ``step`` arrivals and re-mine it.

        Returns ``None`` when the stream is exhausted (the window did not
        move); otherwise the frequent set of the new window contents.  The
        result's ``elapsed_seconds`` covers the whole slide — ingest, the
        incremental index maintenance *and* the mining pass — so comparing
        it against a batch re-mine is an honest incremental-vs-recompute
        comparison; the mining pass alone is recorded in
        ``notes["mine_seconds"]``.
        """
        started = time.perf_counter()
        changes = self.window.slide(stream, step)
        if not changes:
            return None
        steps, flips = self.index.pmf_steps, self.index.flips
        with plan_scope(self.plan):
            self.index.apply_window_changes(changes)
            self.slides += 1
            result = self.mine_window()
        notes = result.statistics.notes
        if self.exact_tails:
            notes["tail_steps"] = float(self.index.pmf_steps - steps)
            notes["flips"] = float(self.index.flips - flips)
        notes["mine_seconds"] = result.statistics.elapsed_seconds
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def results(
        self,
        stream: TransactionStream,
        step: int,
        max_slides: Optional[int] = None,
    ) -> Iterator[MiningResult]:
        """Iterate ``advance`` until the stream dries up (or ``max_slides``)."""
        emitted = 0
        while max_slides is None or emitted < max_slides:
            result = self.advance(stream, step)
            if result is None:
                return
            emitted += 1
            yield result

    # -- per-window mining -------------------------------------------------------------
    def mine_window(self) -> MiningResult:
        """Mine the resident window through the incremental index."""
        statistics = MiningStatistics(algorithm=self.name)
        statistics.notes["window_fill"] = float(len(self.window))
        statistics.notes["next_sequence"] = float(self.window.next_sequence)
        statistics.notes["registered_before"] = float(len(self.index))
        self._queried: List[Candidate] = []
        self._pmf_keep: List[Candidate] = []
        with instrumented_run(statistics):
            records: List[FrequentItemset] = []
            self._mine_window(records, statistics)
        statistics.notes["registered_after"] = float(len(self.index))
        horizon = self.slides - self.retain_slack
        for candidate in self._queried:
            self._last_queried[candidate] = self.slides
        for candidate in self._pmf_keep:
            self._pmf_last_queried[candidate] = self.slides
        self._last_queried = {
            candidate: slide
            for candidate, slide in self._last_queried.items()
            if slide >= horizon
        }
        self._pmf_last_queried = {
            candidate: slide
            for candidate, slide in self._pmf_last_queried.items()
            if slide >= horizon and candidate in self._last_queried
        }
        self.index.retain(self._last_queried)
        self.index.retain_pmfs(self._pmf_last_queried)
        return MiningResult(records, statistics)

    def _index_level(self, candidates: Sequence[Candidate], kill: float = 0.0) -> IndexLevel:
        """The slide's top-k ``level(candidates, kill)``: the index needs no kill."""
        return IndexLevel(self, candidates)

    def _level(self, candidates: CandidateLevel, kill: float = 0.0) -> ScoredLevel:
        """The slide's levelwise ``level(candidates, kill)``."""
        return ScoredLevel(
            candidates, self._index_level(candidates.tuples()), np.arange(len(candidates))
        )

    def spec(self) -> MinerSpec:
        """The slide's declarative spec (the threshold miners)."""
        raise NotImplementedError

    def _mine_window(
        self, records: List[FrequentItemset], statistics: MiningStatistics
    ) -> None:
        """One slide of the threshold miners: the batch kernels on the index.

        The loop itself — apriori join with the maintained sort order,
        downward-closure subset prune, generated/pruned accounting — is
        :meth:`repro.core.search.LevelwiseSearch.drive`, and every level is
        scored by the spec's kernel, both shared verbatim with the batch
        miners.  The active items are evaluated as the seed level, after
        the spec's item prefilter (read off the index).  The seed is
        sorted (:meth:`~repro.stream.window.SlidingWindow.active_items`)
        and survivors preserve order, so the driver's presorted-join
        invariant holds.
        """
        spec = self.spec()
        ctx = SearchContext(
            database=None,
            spec=spec,
            statistics=statistics,
            n_transactions=len(self.window),
            records=records,
            level=self._level,
        )
        search = LevelwiseSearch(spec)
        search.resolve_thresholds(ctx)
        items = [(item,) for item in self.window.active_items()]
        if spec.item_prefilter is not None:
            bar = spec.item_prefilter(ctx)
            expected = self._index_level(items).expected_supports()
            items = [
                item for position, item in enumerate(items) if expected[position] >= bar
            ]
        kernel = spec.kernel
        search.drive(
            kernel.evaluate(ctx, CandidateLevel.from_tuples(items)),
            lambda candidates: kernel.evaluate(ctx, candidates),
            statistics,
        )


class StreamingUApriori(StreamingMiner):
    """Sliding-window expected-support miner (Definition 2, ``esup >= min_esup``).

    Parameters
    ----------
    window:
        Capacity or adopted :class:`SlidingWindow`.
    min_esup:
        Threshold, as a ratio of the *resident* window size (``0 < x <= 1``)
        or an absolute expected support (``x > 1``) — the same convention
        as the batch miners, re-resolved each slide so a partially filled
        window is held to a proportionally smaller absolute bar.
    track_variance:
        Also report each frequent itemset's support variance.
    """

    name = "stream-uapriori"

    def __init__(
        self,
        window,
        min_esup: float,
        track_variance: bool = False,
        plan=None,
    ) -> None:
        # Definition 2 needs only the expected-support tree; skipping the
        # variance/non-zero merges drops two thirds of the per-slide work.
        self.index_options = {
            "track_variance": bool(track_variance),
            "track_nonzero": False,
        }
        super().__init__(window, plan=plan)
        self.threshold = ExpectedSupportThreshold(float(min_esup))
        self.track_variance = track_variance

    def spec(self) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="expected",
            threshold=self.threshold,
            kernel=ExpectedSupportKernel(),
            seed_mode="evaluate",
            track_variance=self.track_variance,
        )


class StreamingDP(StreamingMiner):
    """Sliding-window exact probabilistic miner (Definition 4, ``Pr > pft``).

    The frequent probability of a candidate is read off the index's two
    stacks of DP states — each arrival one step of the paper's DP
    recurrence — instead of re-running the ``O(W * min_count)`` recurrence
    over the whole window on every slide.

    Parameters
    ----------
    window:
        Capacity or adopted :class:`SlidingWindow`.
    min_sup:
        Minimum support, a ratio of the resident window size or an absolute
        count (converted with the shared
        :class:`~repro.core.thresholds.ProbabilisticThreshold` rounding).
    pft:
        Probabilistic frequentness threshold, strict (``Pr > pft``).
    use_pruning:
        Run the Markov → Chernoff bound chain before the exact evaluation
        (the batch *DPB* configuration).  Sound — it never changes the frequent
        set — and it keeps hopeless candidates out of PMF maintenance.
    item_prefilter:
        Discard items with ``esup < min_count * pft`` before the level-wise
        search (Markov's inequality; always sound), as the batch miner does.
    """

    name = "stream-dp"
    exact_tails = True

    def __init__(
        self,
        window,
        min_sup: float,
        pft: float = 0.9,
        use_pruning: bool = True,
        item_prefilter: bool = True,
        plan=None,
    ) -> None:
        super().__init__(window, plan=plan)
        self.threshold = ProbabilisticThreshold(float(min_sup), float(pft))
        self.use_pruning = use_pruning
        self.item_prefilter = item_prefilter

    def spec(self) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="probabilistic",
            threshold=self.threshold,
            kernel=TailEvaluationKernel(IndexLevel.frequent_probabilities),
            bound_chain=(
                ("occupancy", "markov", "chernoff")
                if self.use_pruning
                else ("occupancy",)
            ),
            item_prefilter=markov_item_prefilter if self.item_prefilter else None,
            seed_mode="evaluate",
        )


class StreamingTopK(StreamingMiner):
    """Sliding-window top-k ranked miner served from the incremental index.

    Per slide, the same best-first threshold-raising search as the batch
    :class:`~repro.algorithms.topk.TopKMiner` runs over the resident window
    — but every support statistic is read off the
    :class:`~repro.stream.index.IncrementalSupportIndex` (tree-root moments
    for the expected-support ranking, two-stack DP tails for the
    probabilistic one) instead of re-scanning the window, so a slide of
    ``k`` arrivals costs the index's incremental updates plus the pruned
    search, never a full re-mine.  The per-slide top-k equals batch top-k
    over ``window.contents()`` (bitwise on dyadic streams, within DP
    round-off otherwise), pinned by ``tests/test_stream_topk.py``.

    Parameters
    ----------
    window:
        Capacity or adopted :class:`SlidingWindow`.
    k:
        How many itemsets to emit per slide.
    evaluator:
        ``"esup"`` (Definition 2 ordering) or ``"dp"`` (Definition 4
        ordering; the index serves the exact tail from its DP states).
    min_sup:
        Fixed support level of the probabilistic ranking — a ratio of the
        *resident* window size or an absolute count, re-resolved every
        slide like the threshold streaming miners.
    use_pruning:
        Apply the rising floor and the Markov / Chernoff bound chain.
    track_variance:
        Also report variances under the expected-support ranking.
    """

    name = "stream-topk"

    def __init__(
        self,
        window,
        k: int,
        evaluator: str = "esup",
        min_sup: Optional[float] = None,
        use_pruning: bool = True,
        track_variance: bool = False,
        plan=None,
    ) -> None:
        self.evaluator = resolve_evaluator(evaluator)
        if self.evaluator not in ("esup", "dp"):
            raise ValueError(
                f"no streaming top-k evaluator {evaluator!r}; the index serves "
                "'esup' (moments) and 'dp' (exact DP tails)"
            )
        self.ranking = EVALUATOR_RANKINGS[self.evaluator]
        if self.ranking == "probability":
            if min_sup is None:
                raise ValueError("the probabilistic ranking requires min_sup")
            self.threshold: Optional[ProbabilisticThreshold] = ProbabilisticThreshold(
                float(min_sup)
            )
        else:
            self.threshold = None
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.use_pruning = use_pruning
        self.track_variance = track_variance
        probabilistic = self.ranking == "probability"
        self.exact_tails = probabilistic
        self.index_options = {
            "track_variance": bool(track_variance) or probabilistic,
            "track_nonzero": probabilistic,
        }
        super().__init__(window, plan=plan)
        self._last_ranked: List[FrequentItemset] = []
        self._last_min_count: Optional[int] = None
        self._last_statistics: Optional[MiningStatistics] = None

    def ranked_result(self) -> TopKResult:
        """The most recent slide's itemsets in rank order (best first)."""
        return TopKResult(
            list(self._last_ranked),
            self.k,
            self.ranking,
            self._last_min_count,
            statistics=self._last_statistics,
        )

    def _mine_window(
        self, records: List[FrequentItemset], statistics: MiningStatistics
    ) -> None:
        min_count: Optional[int] = None
        if self.threshold is not None:
            min_count = self.threshold.min_count(len(self.window))
        self._last_min_count = min_count
        self._last_statistics = statistics
        evaluate = topk_scorer(
            self._index_level,
            self.evaluator,
            min_count,
            statistics,
            use_pruning=self.use_pruning,
            track_variance=self.track_variance,
        )
        buffer = run_topk_search(
            self.window.active_items(),
            evaluate,
            self.k,
            use_floor=self.use_pruning,
            statistics=statistics,
        )
        self._last_ranked = buffer.records()
        records.extend(self._last_ranked)
        statistics.notes["k"] = float(self.k)
        statistics.notes["floor"] = buffer.floor


#: streaming variants by the batch algorithm they shadow
STREAMING_MINERS: Dict[str, Type[StreamingMiner]] = {
    "uapriori": StreamingUApriori,
    "dp": StreamingDP,
}

#: the registered batch algorithm each streaming variant is equivalent to —
#: the single source of truth for every incremental-vs-batch verification
#: (CLI ``--verify``, the eval runner, the windowed benchmark)
BATCH_EQUIVALENTS: Dict[str, str] = {"uapriori": "uapriori", "dp": "dpb"}


def make_streaming_miner(algorithm: str, window, **options) -> StreamingMiner:
    """Instantiate the streaming variant of ``algorithm`` (``uapriori``/``dp``).

    ``options`` are the variant's constructor arguments (``min_esup`` for
    ``uapriori``; ``min_sup``/``pft`` for ``dp``; plus the shared knobs).
    """
    key = algorithm.lower()
    if key not in STREAMING_MINERS:
        raise KeyError(
            f"no streaming variant of {algorithm!r}; known: {sorted(STREAMING_MINERS)}"
        )
    return STREAMING_MINERS[key](window, **options)
