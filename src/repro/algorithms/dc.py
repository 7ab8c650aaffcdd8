"""DC: divide-and-conquer exact probabilistic frequent miner (Sun et al., 2010).

The support PMF of a candidate is assembled by recursively splitting its
per-transaction probability vector, computing the PMF of each half and
convolving the two halves back together.  With FFT-based convolution the
per-itemset cost drops to O(N log N) (O(N log^2 N) including the recursion),
which is why DC dominates DP in most of the paper's experiments.  Registry
configurations: ``dcb`` (with Chernoff-bound pruning) and ``dcnb`` (without).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.support import SupportEngine, exact_pmf_divide_conquer
from .probabilistic_apriori import ProbabilisticAprioriMiner

__all__ = ["DCMiner"]


class DCMiner(ProbabilisticAprioriMiner):
    """Exact probabilistic frequent miner using divide-and-conquer convolution.

    Parameters
    ----------
    use_pruning:
        Enable the Chernoff-bound filter (the *DCB* configuration); disable
        it for *DCNB*.
    use_fft:
        Use FFT-accelerated convolution for large halves (the paper's DC);
        disabling it falls back to quadratic direct convolution, which is
        the ablation exercised by ``benchmarks/bench_ablation_convolution.py``.
    """

    name = "dc"
    exact = True

    def __init__(
        self,
        use_pruning: bool = True,
        use_fft: bool = True,
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
        self.use_fft = use_fft
        self.name = "dcb" if use_pruning else "dcnb"

    def _frequent_probability(
        self, probabilities: Sequence[float], min_count: int
    ) -> float:
        if min_count <= 0:
            return 1.0
        if min_count > len(probabilities):
            return 0.0
        pmf = exact_pmf_divide_conquer(np.asarray(probabilities, dtype=float), self.use_fft)
        tail = float(pmf[min_count:].sum())
        return max(0.0, min(1.0, tail))

    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        # The engine path covers the FFT default: one walk of every
        # candidate's convolution tree, merged a tree height at a time for
        # the whole level.  The direct-convolution ablation keeps the
        # scalar loop over the same walker.
        if self.use_fft:
            return engine.frequent_probabilities(min_count, method="divide_conquer")
        return super()._frequent_probabilities_batch(engine, min_count)
