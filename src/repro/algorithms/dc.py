"""DC: divide-and-conquer exact probabilistic frequent miner (Sun et al., 2010).

The support PMF of a candidate is assembled by recursively splitting its
per-transaction probability vector, computing the PMF of each half and
convolving the two halves back together.  With FFT-based convolution the
per-itemset cost drops to O(N log N) (O(N log^2 N) including the recursion),
which is why DC dominates DP in most of the paper's experiments.  Registry
configurations: ``dcb`` (with Chernoff-bound pruning) and ``dcnb`` (without).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.support import SupportEngine
from .probabilistic_apriori import ProbabilisticAprioriMiner

__all__ = ["DCMiner"]


class DCMiner(ProbabilisticAprioriMiner):
    """Exact probabilistic frequent miner using divide-and-conquer convolution.

    Parameters
    ----------
    use_pruning:
        Enable the Markov → Chernoff bound chain (the *DCB* configuration); disable
        it for *DCNB*.

    The direct-vs-FFT crossover is the ``conv_span`` plan knob; a span of
    ``sys.maxsize`` gives the quadratic direct convolution, the ablation
    exercised by ``benchmarks/bench_ablation_convolution.py``.
    """

    name = "dc"
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
        self.name = "dcb" if use_pruning else "dcnb"

    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        # One walk of every candidate's convolution tree, merged a tree
        # height at a time for the whole level.
        return engine.frequent_probabilities(min_count, method="divide_conquer")
