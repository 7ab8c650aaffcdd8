"""Streaming miners: re-emit the frequent set after every window slide.

Two streaming variants cover the paper's two frequent-itemset definitions:

* :class:`StreamingUApriori` — expected-support mining (Definition 2,
  ``esup(X) >= min_esup``) over the resident window, the streaming analogue
  of :class:`~repro.algorithms.uapriori.UApriori`;
* :class:`StreamingDP` — exact probabilistic mining (Definition 4,
  ``Pr[sup(X) >= min_count] > pft``), the streaming analogue of the DP
  miner — the frequent probability is read off the window's merged exact
  PMF instead of re-running the DP recurrence from scratch.

Both run the same level-wise search loop as their batch counterparts —
literally: each slide drives :meth:`repro.core.search.LevelwiseSearch.drive`
under the miner's declarative :class:`~repro.core.search.MinerSpec`
(identical join, downward-closure pruning and threshold conversions) — but
every support statistic comes from the
:class:`~repro.stream.index.IncrementalSupportIndex`: a slide of ``k``
transactions refreshes a registered candidate in ``O(k log W)`` bucket
merges, so the per-slide cost tracks the slide step, not the window size.
Mining the same window contents with the corresponding batch miner returns
the same frequent set (pinned by ``tests/test_stream_mining.py``).

Candidate lifecycle: candidates are registered in the index on first sight
(one ``O(W)`` back-fill) and retained as long as the level-wise search
keeps querying them; candidates that fall off the frontier are dropped
after the slide, so the maintained set tracks the live border of the
frequent lattice.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..algorithms.common import instrumented_run
from ..algorithms.pruning import ChernoffPruner
from ..core.itemset import Itemset
from ..core.results import FrequentItemset, MiningResult, MiningStatistics
from ..core.search import LevelwiseSearch, MinerSpec, markov_item_prefilter
from ..core.support import markov_upper_bound, staged_tail_filter
from ..core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from ..core.topk import (
    EVALUATOR_RANKINGS,
    ScoredCandidate,
    TopKResult,
    resolve_evaluator,
)
from ..plan import materialize_plan, plan_scope
from .index import IncrementalSupportIndex
from .window import SlidingWindow, TransactionStream

__all__ = [
    "BATCH_EQUIVALENTS",
    "StreamingMiner",
    "StreamingUApriori",
    "StreamingDP",
    "StreamingTopK",
    "STREAMING_MINERS",
    "make_streaming_miner",
]

Candidate = Tuple[int, ...]


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

    def __init__(self, window, plan=None) -> None:
        self.window = (
            window if isinstance(window, SlidingWindow) else SlidingWindow(int(window))
        )
        #: the materialized execution plan every slide runs under
        self.plan = materialize_plan(plan)
        # PMF maintenance is opted into per candidate (StreamingDP ensures
        # PMFs only for candidates surviving its cheap filters).  The index
        # is built under the plan so its conv_span-dependent tree layout
        # matches the batch kernels under the same plan.
        with plan_scope(self.plan):
            self.index = IncrementalSupportIndex(
                self.window.capacity,
                with_pmfs=False,
                **self.index_options,
            )
        if len(self.window):
            self.index.apply(
                [
                    (slot, units)
                    for slot, units in enumerate(self.window.slot_units())
                    if units is not None
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
        with plan_scope(self.plan):
            self.index.apply_window_changes(changes)
            self.slides += 1
            result = self.mine_window()
        result.statistics.notes["mine_seconds"] = result.statistics.elapsed_seconds
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
        self._pmf_keep: List[Candidate] = []
        with instrumented_run(statistics):
            records: List[FrequentItemset] = []
            queried: List[Candidate] = []
            self._mine_window(records, queried, statistics)
        statistics.notes["registered_after"] = float(len(self.index))
        horizon = self.slides - self.retain_slack
        for candidate in queried:
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

    def _mine_window(
        self,
        records: List[FrequentItemset],
        queried: List[Candidate],
        statistics: MiningStatistics,
    ) -> None:
        raise NotImplementedError

    def spec(self) -> MinerSpec:
        """The slide's declarative spec (kernel-free: scoring reads the index)."""
        raise NotImplementedError

    def _drive(
        self,
        seed_level: List[Candidate],
        evaluate,
        statistics: MiningStatistics,
    ) -> None:
        """Run the engine's levelwise loop over index-backed evaluations.

        The loop itself — apriori join with the maintained sort order,
        downward-closure subset prune, generated/pruned accounting — is
        :meth:`repro.core.search.LevelwiseSearch.drive`, shared verbatim
        with the batch miners; the candidate lifecycle (``index.ensure``
        back-fill and the ``queried`` retention bookkeeping) is folded into
        the head of each miner's ``evaluate`` closure.  The seed level is
        sorted (:meth:`~repro.stream.window.SlidingWindow.active_items`)
        and survivors preserve order, so the driver's presorted-join
        invariant holds.
        """
        LevelwiseSearch(self.spec()).drive(seed_level, evaluate, statistics)


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
            seed_mode="statistics",
            track_variance=self.track_variance,
        )

    def _mine_window(
        self,
        records: List[FrequentItemset],
        queried: List[Candidate],
        statistics: MiningStatistics,
    ) -> None:
        min_expected_support = self.threshold.absolute(len(self.window))

        def evaluate(candidates: Sequence[Candidate]) -> List[Candidate]:
            self.index.ensure(candidates)
            queried.extend(candidates)
            expected, variance, _ = self.index.root_stats(candidates)
            survivors: List[Candidate] = []
            for position, candidate in enumerate(candidates):
                value = float(expected[position])
                if value >= min_expected_support:
                    records.append(
                        FrequentItemset(
                            Itemset(candidate),
                            value,
                            float(variance[position]) if variance is not None else None,
                        )
                    )
                    survivors.append(candidate)
            return survivors

        items = [(item,) for item in self.window.active_items()]
        self._drive(evaluate(items), evaluate, statistics)


class StreamingDP(StreamingMiner):
    """Sliding-window exact probabilistic miner (Definition 4, ``Pr > pft``).

    The frequent probability of a candidate is the upper tail of the
    window's merged exact PMF — maintained incrementally by convolution
    instead of re-run through the ``O(W * min_count)`` DP recurrence on
    every slide.

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
        Apply the Chernoff-bound filter before the exact evaluation (the
        batch *DPB* configuration).  Sound — it never changes the frequent
        set — and it keeps hopeless candidates out of PMF maintenance.
    item_prefilter:
        Discard items with ``esup < min_count * pft`` before the level-wise
        search (Markov's inequality; always sound), as the batch miner does.
    """

    name = "stream-dp"

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
            bound_chain=(
                ("occupancy", "markov", "chernoff")
                if self.use_pruning
                else ("occupancy",)
            ),
            item_prefilter=markov_item_prefilter if self.item_prefilter else None,
            seed_mode="evaluate",
        )

    def _mine_window(
        self,
        records: List[FrequentItemset],
        queried: List[Candidate],
        statistics: MiningStatistics,
    ) -> None:
        min_count = self.threshold.min_count(len(self.window))
        pft = self.threshold.pft
        pruner = ChernoffPruner(enabled=self.use_pruning)

        def evaluate(candidates: Sequence[Candidate]) -> List[Candidate]:
            self.index.ensure(candidates)
            queried.extend(candidates)
            expected, variance, max_supports = self.index.root_stats(candidates)
            # Bound-ordered filter-verify, same staging as the batch
            # cascade: occupancy count, then Markov (one division), then
            # Chernoff — the merged-PMF tail is only read for candidates no
            # cheap bound could decide.
            alive = [
                position
                for position in range(len(candidates))
                if max_supports[position] >= min_count
                and not (
                    pruner.enabled
                    and markov_upper_bound(float(expected[position]), min_count)
                    <= pft
                )
                and not pruner.can_prune(float(expected[position]), min_count, pft)
            ]
            if not alive:
                return []
            statistics.exact_evaluations += len(alive)
            alive_candidates = [candidates[position] for position in alive]
            # Only the survivors of the cheap filters carry the cost of PMF
            # maintenance across slides.
            self._pmf_keep.extend(alive_candidates)
            probabilities = self.index.frequent_probabilities(
                alive_candidates, min_count
            )
            survivors: List[Candidate] = []
            for position, probability in zip(alive, probabilities):
                if probability > pft:
                    candidate = candidates[position]
                    records.append(
                        FrequentItemset(
                            Itemset(candidate),
                            float(expected[position]),
                            float(variance[position]),
                            float(probability),
                        )
                    )
                    survivors.append(candidate)
            return survivors

        items = [(item,) for item in self.window.active_items()]
        # The prefilter reads the index before the first evaluate call, so
        # the seed's lifecycle runs here (evaluate re-ensures idempotently).
        self.index.ensure(items)
        queried.extend(items)
        if self.item_prefilter:
            # Markov: Pr[sup >= min_count] <= esup / min_count.
            expected = self.index.expected_supports(items)
            items = [
                item
                for position, item in enumerate(items)
                if expected[position] >= min_count * pft
            ]
        self._drive(evaluate(items), evaluate, statistics)


class StreamingTopK(StreamingMiner):
    """Sliding-window top-k ranked miner served from the incremental index.

    Per slide, the same best-first threshold-raising search as the batch
    :class:`~repro.algorithms.topk.TopKMiner` runs over the resident window
    — but every support statistic is read off the
    :class:`~repro.stream.index.IncrementalSupportIndex` roots (moments for
    the expected-support ranking, merged exact PMF tails for the
    probabilistic one) instead of re-scanning the window, so a slide of
    ``k`` arrivals costs the usual ``O(k log W)`` bucket merges plus the
    pruned search, never a full re-mine.  The per-slide top-k equals batch
    top-k over ``window.contents()`` (bitwise on dyadic streams, within
    convolution round-off otherwise), pinned by
    ``tests/test_stream_topk.py``.

    Parameters
    ----------
    window:
        Capacity or adopted :class:`SlidingWindow`.
    k:
        How many itemsets to emit per slide.
    evaluator:
        ``"esup"`` (Definition 2 ordering) or ``"dp"`` (Definition 4
        ordering; the index serves the exact tail from its merged PMFs).
    min_sup:
        Fixed support level of the probabilistic ranking — a ratio of the
        *resident* window size or an absolute count, re-resolved every
        slide like the threshold streaming miners.
    use_pruning:
        Apply the rising floor and the Chernoff / Markov pre-filters.
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
                "'esup' (moments) and 'dp' (merged exact PMF tails)"
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
        self.index_options = {
            "track_variance": bool(track_variance) or probabilistic,
            "track_nonzero": probabilistic,
        }
        super().__init__(window, plan=plan)
        self._last_ranked: List[FrequentItemset] = []
        self._last_min_count: Optional[int] = None
        self._last_statistics: Optional[MiningStatistics] = None

    def spec(self) -> MinerSpec:
        return MinerSpec(
            name=f"{self.name}-{self.evaluator}",
            definition="expected" if self.ranking == "esup" else "probabilistic",
            threshold=self.threshold,
            seed_mode="none",
            track_variance=self.track_variance,
        )

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
        self,
        records: List[FrequentItemset],
        queried: List[Candidate],
        statistics: MiningStatistics,
    ) -> None:
        min_count: Optional[int] = None
        if self.threshold is not None:
            min_count = self.threshold.min_count(len(self.window))
        self._last_min_count = min_count
        self._last_statistics = statistics
        universe = self.window.active_items()

        if self.ranking == "esup":
            evaluate = self._make_esup_evaluate(queried, statistics)
        else:
            evaluate = self._make_probability_evaluate(
                int(min_count), queried, statistics
            )
        buffer = LevelwiseSearch(self.spec()).best_first(
            universe, evaluate, self.k, use_floor=self.use_pruning, statistics=statistics
        )
        self._last_ranked = buffer.records()
        records.extend(self._last_ranked)
        statistics.notes["k"] = float(self.k)
        statistics.notes["floor"] = buffer.floor

    def _make_esup_evaluate(self, queried: List[Candidate], statistics):
        def evaluate(candidates, buffer):
            floor = buffer.floor if (self.use_pruning and buffer.full) else 0.0
            self.index.ensure(candidates)
            queried.extend(candidates)
            expected, variance, _ = self.index.root_stats(candidates)
            scored: List[Optional[ScoredCandidate]] = []
            for position, candidate in enumerate(candidates):
                score = float(expected[position])
                if score <= 0.0 or score < floor:
                    statistics.candidates_pruned += 1
                    scored.append(None)
                    continue
                record = FrequentItemset(
                    Itemset(candidate),
                    score,
                    float(variance[position]) if variance is not None else None,
                )
                scored.append(ScoredCandidate(candidate, score, score, record))
            return scored

        return evaluate

    def _make_probability_evaluate(
        self, min_count: int, queried: List[Candidate], statistics
    ):
        def evaluate(candidates, buffer):
            floor = buffer.floor if (self.use_pruning and buffer.full) else 0.0
            self.index.ensure(candidates)
            queried.extend(candidates)
            expected, variance, max_supports = self.index.root_stats(candidates)
            scored: List[Optional[ScoredCandidate]] = [None] * len(candidates)
            alive: List[int] = []
            for position in range(len(candidates)):
                if max_supports[position] < min_count:
                    statistics.candidates_pruned += 1
                    continue
                if self.use_pruning and staged_tail_filter(
                    float(expected[position]), min_count, floor
                ):
                    statistics.candidates_pruned += 1
                    continue
                alive.append(position)
            if not alive:
                return scored
            alive_candidates = [candidates[position] for position in alive]
            # Only the cheap-filter survivors pay for PMF maintenance.
            self._pmf_keep.extend(alive_candidates)
            probabilities = self.index.frequent_probabilities(
                alive_candidates, min_count
            )
            statistics.exact_evaluations += len(alive)
            for position, probability in zip(alive, probabilities):
                candidate = candidates[position]
                score = float(probability)
                record = None
                if score > 0.0:
                    record = FrequentItemset(
                        Itemset(candidate),
                        float(expected[position]),
                        float(variance[position]),
                        score,
                    )
                scored[position] = ScoredCandidate(candidate, score, score, record)
            return scored

        return evaluate


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
