"""NDUH-Mine: Normal-distribution approximation on the UH-Mine framework.

This is the algorithm the paper itself proposes: UH-Mine's depth-first,
head-table based search (which wins on sparse data) is combined with the
Normal approximation of the frequent probability (which needs only the
expected support and the variance, both accumulated in the same pass).

The search is driven by a *sound* expected-support threshold derived from
``(min_sup, pft)``: an itemset whose Normal-approximated frequent
probability exceeds ``pft`` must have
``esup >= (N * min_sup - 0.5) + z_pft * sqrt(Var)``, and since the variance
of a Poisson-Binomial variable never exceeds ``N / 4`` (nor ``esup``), a
conservative lower bound on the expected support of any qualifying itemset
can be pushed into UH-Mine's anti-monotone pruning.  As a spec this is
three hooks over the shared :func:`~repro.algorithms.uh_mine.uh_mine_expand`
expander: ``search_threshold`` derives the bound, the search runs with
variance tracking on, and ``finalize`` applies the Normal test itself to
the surviving candidates.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from ..core.results import FrequentItemset
from ..core.search import MinerSpec, SearchContext
from ..core.support import normal_tail_probability
from .base import ProbabilisticMiner
from .uh_mine import uh_mine_expand

__all__ = ["NDUHMine"]


class NDUHMine(ProbabilisticMiner):
    """Approximate probabilistic miner: UH-Mine framework + Normal approximation."""

    name = "nduh-mine"

    def __init__(
        self,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(
            track_memory=track_memory,
            plan=plan,
        )

    @staticmethod
    def _search_threshold(min_count: int, pft: float, n_transactions: int) -> float:
        """Sound expected-support threshold for the depth-first search.

        ``Phi(z) > pft`` requires ``z > z_pft``, i.e.
        ``esup > (min_count - 0.5) + z_pft * sigma``.  For ``pft >= 0.5`` the
        quantile is non-negative, so ``min_count - 0.5`` is already a valid
        lower bound.  For ``pft < 0.5`` the quantile is negative and the
        bound is loosened by the largest possible standard deviation,
        ``sqrt(N) / 2``; ``pft == 0`` has quantile ``-inf``.
        """
        if pft >= 0.5:
            return max(0.0, min_count - 0.5)
        z = NormalDist().inv_cdf(pft) if pft > 0.0 else -math.inf
        return max(0.0, (min_count - 0.5) + z * math.sqrt(n_transactions) / 2.0)

    def _search_bar(self, ctx: SearchContext) -> float:
        threshold = self._search_threshold(ctx.min_count, ctx.pft, ctx.n_transactions)
        ctx.scratch["search_expected_support_threshold"] = float(threshold)
        # The bound is an absolute expected support (possibly below 1 for
        # tiny min_count); the tiny positive floor avoids any
        # ratio-vs-absolute reinterpretation downstream.
        return max(threshold, 1e-12)

    @staticmethod
    def _finalize(ctx: SearchContext) -> None:
        """The Normal test over the search's survivors (seeds included)."""
        filtered = []
        for record in ctx.records:
            variance = record.variance if record.variance is not None else 0.0
            probability = normal_tail_probability(
                record.expected_support, variance, ctx.min_count
            )
            if probability > ctx.pft:
                filtered.append(
                    FrequentItemset(
                        record.itemset, record.expected_support, variance, probability
                    )
                )
        ctx.records[:] = filtered
        ctx.statistics.notes["search_expected_support_threshold"] = ctx.scratch[
            "search_expected_support_threshold"
        ]

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="probabilistic",
            threshold=threshold,
            seed_mode="statistics",
            track_variance=True,
            search_threshold=self._search_bar,
            finalize=self._finalize,
            expander=uh_mine_expand,
        )
