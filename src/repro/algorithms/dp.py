"""DP: dynamic-programming exact probabilistic frequent miner (Bernecker et al., 2009).

The frequent probability of a candidate is evaluated with the paper's
recurrence ``Pr_{>=i,j} = Pr_{>=i-1,j-1} * p_j + Pr_{>=i,j-1} * (1 - p_j)``,
which costs O(N * min_count) per itemset — quadratic in the database size
when ``min_count`` scales with N.  Two registry configurations mirror the
paper's experiments: ``dpb`` (with Chernoff-bound pruning) and ``dpnb``
(without).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.support import SupportEngine
from .probabilistic_apriori import ProbabilisticAprioriMiner

__all__ = ["DPMiner"]


class DPMiner(ProbabilisticAprioriMiner):
    """Exact probabilistic frequent miner using dynamic programming.

    Parameters
    ----------
    use_pruning:
        Enable the Markov → Chernoff bound chain (the *DPB* configuration of the
        paper); disable it for *DPNB*.
    """

    name = "dp"
    exact = True

    def __init__(
        self,
        use_pruning: bool = True,
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
        self.name = "dpb" if use_pruning else "dpnb"

    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        # One vectorized DP sweep over the whole level: the recurrence is
        # advanced across the (zero-padded) transaction axis with every
        # candidate updated per step, bitwise identical to the scalar DP.
        return engine.frequent_probabilities(min_count, method="dynamic_programming")
