"""NDUApriori: Normal-distribution-based approximate miner (Calders et al., 2010).

By the Lyapunov central limit theorem the Poisson-Binomial support converges
to a Normal distribution; the frequent probability of a candidate is
therefore approximated by
``Phi((esup(X) - (N * min_sup - 0.5)) / sqrt(Var(X)))``.  Both moments are
accumulated in the same O(N) scan, so the algorithm has the cost profile of
UApriori while returning (approximate) frequent probabilities for every
result — the property the paper uses to argue that the two frequent-itemset
definitions can be unified.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.support import SupportEngine
from .probabilistic_apriori import ProbabilisticAprioriMiner

__all__ = ["NDUApriori"]


class NDUApriori(ProbabilisticAprioriMiner):
    """Approximate probabilistic miner: Apriori framework + Normal approximation.

    The Chernoff filter is disabled by default — the Normal evaluation is
    already O(N), so the bound would only add overhead without saving any
    asymptotic cost (matching the reference implementation).
    """

    name = "ndu-apriori"
    exact = False

    def __init__(
        self,
        use_pruning: bool = False,
        item_prefilter: bool = True,
        track_memory: bool = False,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        plan=None,
    ) -> None:
        super().__init__(
            use_pruning=use_pruning,
            item_prefilter=item_prefilter,
            track_memory=track_memory,
            workers=workers,
            shards=shards,
            plan=plan,
        )

    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        # The Normal evaluator only needs the two moments, which the engine
        # already holds as vectorized reductions over the whole level.
        return engine.normal_frequent_probabilities(min_count)
