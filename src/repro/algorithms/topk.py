"""Batch top-k ranked miner: threshold-raising search on the batched engine.

:class:`TopKMiner` runs the best-first levelwise search of
:func:`repro.core.topk.run_topk_search` over the same batched evaluation
substrate the threshold miners use — the level evaluator of
:func:`~repro.algorithms.common.make_candidate_source` feeding a
:class:`~repro.core.support.SupportEngine` (columnar vectors, per-shard
fan-out through the :class:`~repro.core.parallel.ParallelExecutor`
when sharded, candidate-chunked exact tails when workers are attached).
Scores therefore come out bitwise identical to the corresponding threshold
miner's, which is what pins ``mine_topk(k)`` byte-identical to
mine-everything-then-truncate.

Five evaluators cover the registered miner families:

=============  ============  ==================================================
Evaluator      Ranking       Scoring kernel (same as threshold miner)
=============  ============  ==================================================
``esup``       Definition 2  expected support (UApriori / UFP-growth / UH-Mine)
``dp``         Definition 4  exact DP recurrence (DPB / DPNB)
``dc``         Definition 4  exact divide-and-conquer PMFs (DCB / DCNB)
``normal``     Definition 4  Normal approximation (NDUApriori / NDUH-Mine)
``poisson``    Definition 4  Poisson approximation (PDUApriori)
=============  ============  ==================================================

Pruning mirrors threshold mining with the buffer floor in place of the
threshold: the anti-monotone bound cuts subtrees whose best possible score
falls strictly below the running k-th best, and the probabilistic
evaluators additionally apply the Chernoff and Markov filters before paying
for an exact tail.  The Normal approximation is *not* anti-monotone in the
itemset (a superset's variance can shrink faster than its expectation), so
its descendant bound is the sound envelope ``0.5`` when the expectation
already sits below the continuity-corrected threshold and ``1.0``
otherwise; the cheap exact-tail filters are likewise skipped for it — they
bound the exact probability, not the approximation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.itemset import Itemset
from ..core.results import FrequentItemset, MiningStatistics
from ..core.search import LevelwiseSearch, MinerSpec
from ..core.support import SupportEngine, staged_tail_filter
from ..core.thresholds import ProbabilisticThreshold
from ..core.topk import (
    EVALUATOR_RANKINGS,
    ScoredCandidate,
    TopKResult,
    resolve_evaluator,
)
from ..db.database import UncertainDatabase
from .base import MinerBase

__all__ = ["TopKMiner", "exhaustive_topk", "normal_descendant_bound"]

Candidate = Tuple[int, ...]

#: evaluators whose score is anti-monotone under itemset extension, so the
#: Chernoff / Markov bounds on the exact tail are sound prune filters
_ANTI_MONOTONE_TAILS = ("dp", "dc")


def normal_descendant_bound(expected_support: float, min_count: int) -> float:
    """Sound upper bound on any superset's Normal-approximation score.

    Supersets only lower the expected support, but their variance can move
    either way, so the Normal score is not anti-monotone.  The envelope over
    every possible variance: once ``esup < min_count - 0.5`` the z-score is
    negative for every superset, capping the approximation below ``Phi(0) =
    0.5``; above that the bound is uninformative.
    """
    return 1.0 if expected_support >= min_count - 0.5 else 0.5


class TopKMiner(MinerBase):
    """Best-first top-k ranked miner over the batched support engine.

    Parameters
    ----------
    evaluator:
        Scoring strategy; an evaluator key or a registered algorithm name
        (see :func:`repro.core.topk.resolve_evaluator`).
    use_pruning:
        Apply the threshold-raising floor (and, for the exact evaluators,
        the Chernoff / Markov pre-filters).  Disabling it turns the search
        into the exhaustive mine-everything-then-truncate reference — same
        results, no pruning.
    track_variance:
        Also report support variances under the expected-support ranking
        (probability evaluators always carry them, as their threshold
        counterparts do).
    workers, shards, track_memory:
        As for every miner; see :class:`~repro.algorithms.base.MinerBase`.
    """

    name = "topk"

    def __init__(
        self,
        evaluator: str = "esup",
        use_pruning: bool = True,
        track_variance: bool = False,
        track_memory: bool = False,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        plan=None,
    ) -> None:
        super().__init__(
            track_memory=track_memory,
            workers=workers,
            shards=shards,
            plan=plan,
        )
        self.evaluator = resolve_evaluator(evaluator)
        self.ranking = EVALUATOR_RANKINGS[self.evaluator]
        self.use_pruning = use_pruning
        self.track_variance = track_variance

    # -- entry point -------------------------------------------------------------------
    def mine(
        self, database: UncertainDatabase, k: int, min_sup: Optional[float] = None
    ) -> TopKResult:
        """Return the ``k`` highest-ranked itemsets of ``database``.

        ``min_sup`` (ratio or absolute count) fixes the support level of the
        probabilistic ranking; it is required for probability evaluators and
        ignored under the expected-support ranking.
        """
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        min_count: Optional[int] = None
        threshold: Optional[ProbabilisticThreshold] = None
        if self.ranking == "probability":
            if min_sup is None:
                raise ValueError(
                    f"evaluator {self.evaluator!r} ranks by frequentness "
                    "probability and requires min_sup"
                )
            threshold = ProbabilisticThreshold(float(min_sup))
            min_count = threshold.min_count(len(database))

        spec = self.spec(threshold)
        with self._planned():
            return LevelwiseSearch(spec, miner=self).run_topk(database, k, min_count)

    def spec(self, threshold) -> MinerSpec:
        """The ranking's declarative spec (kernel-free: scoring enters
        through :meth:`_topk_evaluate`, the best-first search's evaluator
        slot)."""
        return MinerSpec(
            name=f"topk-{self.evaluator}",
            definition="expected" if self.ranking == "esup" else "probabilistic",
            threshold=threshold,
            seed_mode="none",
            track_variance=self.track_variance,
        )

    def _topk_evaluate(
        self,
        source,
        min_count: Optional[int],
        statistics: MiningStatistics,
        executor,
    ):
        """The evaluator :meth:`LevelwiseSearch.run_topk` drives."""
        if self.ranking == "esup":
            return self._make_esup_evaluate(source, statistics)
        return self._make_probability_evaluate(
            source, int(min_count), statistics, executor
        )

    # -- evaluators --------------------------------------------------------------------
    def _make_esup_evaluate(self, source, statistics: MiningStatistics):
        """Definition 2 scoring: the expected support is its own bound."""

        def evaluate(candidates, buffer):
            floor = buffer.floor if (self.use_pruning and buffer.full) else 0.0
            # The floor doubles as the stage-1 kill threshold: a candidate
            # with fewer supporting rows than the k-th best score cannot
            # reach it (esup <= count), and the floor only rises.
            engine = SupportEngine(source(candidates, min_count=floor))
            expected = engine.expected_supports()
            variances = engine.variances() if self.track_variance else None
            # One batch per expanded node, not per Apriori level: counted
            # apart so database_scans keeps its cross-miner meaning.
            statistics.notes["engine_batches"] = (
                statistics.notes.get("engine_batches", 0.0) + 1.0
            )
            scored: List[Optional[ScoredCandidate]] = []
            for index, candidate in enumerate(candidates):
                score = float(expected[index])
                if score <= 0.0 or score < floor:
                    # Anti-monotone: no superset can score higher, and the
                    # floor only rises — the whole subtree is dead.
                    statistics.candidates_pruned += 1
                    scored.append(None)
                    continue
                record = FrequentItemset(
                    Itemset(candidate),
                    score,
                    float(variances[index]) if variances is not None else None,
                )
                scored.append(ScoredCandidate(candidate, score, score, record))
            return scored

        return evaluate

    def _make_probability_evaluate(
        self, source, min_count: int, statistics: MiningStatistics, executor
    ):
        """Definition 4 scoring at the fixed ``min_count`` support level."""
        evaluator = self.evaluator
        cheap_filters = self.use_pruning and evaluator in _ANTI_MONOTONE_TAILS
        # The max-attainable-support cut is a *semantic* filter, not an
        # optimisation: it mirrors the corresponding threshold miner.  The
        # exact tails are genuinely zero below min_count occurrences, and
        # NDUApriori applies the identical cut before its Normal evaluation
        # — but PDUApriori never filters by occurrence count (its Poisson
        # score is positive for any positive expectation), so the cut must
        # be skipped there or top-k would diverge from its mine-then-
        # truncate baseline.
        max_support_cut = evaluator != "poisson"

        def evaluate(candidates, buffer):
            floor = buffer.floor if (self.use_pruning and buffer.full) else 0.0
            # Stage-1 kill at the ranking's support level: sound exactly
            # where the max-attainable-support cut is already semantic (the
            # Poisson ranking scores count-starved candidates positively,
            # so it must see their true vectors).
            vectors = source(
                candidates, min_count=min_count if max_support_cut else 0.0
            )
            engine = SupportEngine(vectors)
            expected = engine.expected_supports()
            variances = engine.variances()
            max_supports = engine.nonzero_counts()
            statistics.notes["engine_batches"] = (
                statistics.notes.get("engine_batches", 0.0) + 1.0
            )

            scored: List[Optional[ScoredCandidate]] = [None] * len(candidates)
            alive: List[int] = []
            for index in range(len(candidates)):
                if max_support_cut and max_supports[index] < min_count:
                    # Fewer possible occurrences than the support level: the
                    # score is exactly zero, for this candidate and every
                    # superset.
                    statistics.candidates_pruned += 1
                    continue
                if cheap_filters:
                    if staged_tail_filter(float(expected[index]), min_count, floor):
                        # A cheap bound (Markov first, Chernoff only when
                        # Markov is undecided) caps the exact score of the
                        # candidate and (by anti-monotonicity) of every
                        # superset below the floor.
                        statistics.candidates_pruned += 1
                        continue
                alive.append(index)
            if not alive:
                return scored

            batch = SupportEngine(
                [vectors[index] for index in alive],
                expected=expected[alive],
                variances=variances[alive],
                executor=executor,
            )
            if evaluator == "dp":
                probabilities = batch.frequent_probabilities(
                    min_count, method="dynamic_programming"
                )
                statistics.exact_evaluations += len(alive)
            elif evaluator == "dc":
                probabilities = batch.frequent_probabilities(
                    min_count, method="divide_conquer"
                )
                statistics.exact_evaluations += len(alive)
            elif evaluator == "normal":
                probabilities = batch.normal_frequent_probabilities(min_count)
            else:  # poisson
                probabilities = batch.poisson_frequent_probabilities(min_count)

            for index, probability in zip(alive, probabilities):
                candidate = candidates[index]
                score = float(probability)
                if evaluator == "normal":
                    bound = normal_descendant_bound(float(expected[index]), min_count)
                else:
                    # Exact and Poisson scores are anti-monotone: the
                    # candidate's own score bounds every superset's.
                    bound = score
                record = None
                if score > 0.0:
                    record = FrequentItemset(
                        Itemset(candidate),
                        float(expected[index]),
                        float(variances[index]),
                        score,
                    )
                scored[index] = ScoredCandidate(candidate, score, bound, record)
            return scored

        return evaluate


def exhaustive_topk(
    database: UncertainDatabase,
    k: int,
    evaluator: str = "esup",
    min_sup: Optional[float] = None,
    **options,
) -> TopKResult:
    """The mine-everything-then-truncate reference, on the same kernels.

    Runs :class:`TopKMiner` with the threshold-raising floor disabled, so
    every itemset with a positive score is enumerated and scored before the
    deterministic truncation — the oracle the pruned search is pinned
    against (and the honest baseline of ``benchmarks/bench_topk.py``).
    """
    miner = TopKMiner(evaluator=evaluator, use_pruning=False, **options)
    return miner.mine(database, k, min_sup=min_sup)
