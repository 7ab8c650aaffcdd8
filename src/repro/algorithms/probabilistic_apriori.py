"""Shared evaluator bindings for the probabilistic frequent miners.

The exact miners (DP, DC) and the Apriori-based approximate miners
(NDUApriori) differ only in how they turn a candidate's per-transaction
probability vector into a frequent-probability value.  The levelwise
search itself — seeding, Apriori join, downward-closure pruning (valid
under Definition 4 because the support of a superset is dominated by the
support of any subset in every possible world), the occupancy → Markov →
Chernoff bound chain (the *B* vs *NB* variants of the paper), and the
statistics accounting — lives in :class:`~repro.core.search.LevelwiseSearch`
behind a :class:`~repro.core.search.MinerSpec`; this base class contributes
the spec and the evaluator slot of the
:class:`~repro.core.search.TailEvaluationKernel`.

Every level is evaluated in one batch, so each evaluator runs across
candidates through the :class:`~repro.core.support.SupportEngine` (the DP
recurrence advances the whole level at once; the divide-and-conquer walker
merges the whole level's trees a height at a time; the Normal evaluator
rides on the vectorized moments).
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from ..core.search import MinerSpec, TailEvaluationKernel, markov_item_prefilter
from ..core.support import SupportEngine
from .base import ProbabilisticMiner

__all__ = ["ProbabilisticAprioriMiner"]


class ProbabilisticAprioriMiner(ProbabilisticMiner):
    """Level-wise probabilistic frequent itemset miner (abstract).

    Subclasses provide :meth:`_frequent_probabilities_batch`, the evaluator
    applied to every batch of candidates the bound chain left undecided.

    Parameters
    ----------
    use_pruning:
        Run the Markov → Chernoff bound chain before the exact evaluation.  The
        paper's DPB/DCB configurations set this to True, DPNB/DCNB to False.
    item_prefilter:
        Discard items whose expected support is below ``min_count * pft``
        before mining starts.  This cheap, always-sound filter (the frequent
        probability of such an item is necessarily below ``pft`` by Markov's
        inequality) keeps the scaled-down benchmark runs honest without
        changing results; it can be disabled for strict faithfulness.
    """

    #: whether the evaluator returns exact probabilities (drives statistics only)
    exact: bool = True

    def __init__(
        self,
        use_pruning: bool = True,
        item_prefilter: bool = True,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(
            track_memory=track_memory,
            plan=plan,
        )
        self.use_pruning = use_pruning
        self.item_prefilter = item_prefilter

    # -- evaluator ----------------------------------------------------------------------
    @abstractmethod
    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        """Return ``Pr[sup(X) >= min_count]`` of every candidate of ``engine``."""

    # -- declarative search ---------------------------------------------------------------
    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="probabilistic",
            threshold=threshold,
            kernel=TailEvaluationKernel(self._frequent_probabilities_batch),
            bound_chain=(
                ("occupancy", "markov", "chernoff")
                if self.use_pruning
                else ("occupancy",)
            ),
            item_prefilter=markov_item_prefilter if self.item_prefilter else None,
            seed_mode="evaluate",
        )
