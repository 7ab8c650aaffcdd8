"""Batch top-k ranked miner: threshold-raising search on the batched engine.

:class:`TopKMiner` runs the best-first levelwise search of
:func:`repro.core.topk.run_topk_search` over the same batched evaluation
substrate the threshold miners use — the level evaluator of
:func:`~repro.algorithms.common.make_candidate_source` feeding a
:class:`~repro.core.support.SupportEngine` over columnar vectors.
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
falls strictly below the running k-th best, and the exact evaluators
additionally run the threshold miners' Markov / Chernoff bound chain
before paying for an exact tail.  Scoring is
:func:`repro.core.topk.topk_scorer`, shared with the streaming top-k miner;
its docstring has the per-evaluator rules (the Normal approximation's
coarser descendant bound, the Poisson ranking's missing count cut).
"""

from __future__ import annotations

from typing import Optional

from ..core.search import LevelwiseSearch, MinerSpec
from ..core.thresholds import ProbabilisticThreshold
from ..core.topk import EVALUATOR_RANKINGS, TopKResult, resolve_evaluator
from ..db.database import UncertainDatabase
from .base import MinerBase

__all__ = ["TopKMiner", "exhaustive_topk"]


class TopKMiner(MinerBase):
    """Best-first top-k ranked miner over the batched support engine.

    Parameters
    ----------
    evaluator:
        Scoring strategy; an evaluator key or a registered algorithm name
        (see :func:`repro.core.topk.resolve_evaluator`).
    use_pruning:
        Apply the threshold-raising floor (and, for the exact evaluators,
        the Markov / Chernoff bound chain).  Disabling it turns the search
        into the exhaustive mine-everything-then-truncate reference — same
        results, no pruning.
    track_variance:
        Also report support variances under the expected-support ranking
        (probability evaluators always carry them, as their threshold
        counterparts do).
    track_memory, plan:
        As for every miner; see :class:`~repro.algorithms.base.MinerBase`.
    """

    name = "topk"

    def __init__(
        self,
        evaluator: str = "esup",
        use_pruning: bool = True,
        track_variance: bool = False,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(track_memory=track_memory, plan=plan)
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
        """The ranking's declarative spec (kernel-free: the best-first
        search scores through :func:`~repro.core.topk.topk_scorer`)."""
        return MinerSpec(
            name=f"topk-{self.evaluator}",
            definition="expected" if self.ranking == "esup" else "probabilistic",
            threshold=threshold,
            seed_mode="none",
            track_variance=self.track_variance,
        )


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
