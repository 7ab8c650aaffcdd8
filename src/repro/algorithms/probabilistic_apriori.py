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

Every level is evaluated in one batch so subclasses can vectorize their
evaluator across candidates through the
:class:`~repro.core.support.SupportEngine` (the DP recurrence advances the
whole level at once; the Normal evaluator rides on the vectorized moments;
divide-and-conquer remains per-candidate but NumPy-heavy).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.search import MinerSpec, TailEvaluationKernel, markov_item_prefilter
from ..core.support import SupportEngine
from .base import ProbabilisticMiner

__all__ = ["ProbabilisticAprioriMiner"]


class ProbabilisticAprioriMiner(ProbabilisticMiner):
    """Level-wise probabilistic frequent itemset miner (abstract).

    Subclasses provide :meth:`_frequent_probability`, the evaluator applied
    to every surviving candidate, and may override
    :meth:`_frequent_probabilities_batch` with a vectorized variant.

    Parameters
    ----------
    use_pruning:
        Apply the Chernoff-bound filter before the exact evaluation.  The
        paper's DPB/DCB configurations set this to True, DPNB/DCNB to False.
    item_prefilter:
        Discard items whose expected support is below ``min_count * pft``
        before mining starts.  This cheap, always-sound filter (the frequent
        probability of such an item is necessarily below ``pft`` by Markov's
        inequality) keeps the scaled-down benchmark runs honest without
        changing results; it can be disabled for strict faithfulness.
    workers, shards:
        Partition-parallel knobs; see :class:`MinerBase`.  Shards evaluate
        the level's probability vectors in parallel; workers additionally
        split the exact tail evaluation into candidate chunks.
    """

    #: whether the evaluator returns exact probabilities (drives statistics only)
    exact: bool = True

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
            track_memory=track_memory,
            workers=workers,
            shards=shards,
            plan=plan,
        )
        self.use_pruning = use_pruning
        self.item_prefilter = item_prefilter

    # -- evaluator ----------------------------------------------------------------------
    @abstractmethod
    def _frequent_probability(
        self, probabilities: Sequence[float], min_count: int
    ) -> float:
        """Return ``Pr[sup(X) >= min_count]`` from the non-zero probability vector."""

    def _frequent_probabilities_batch(
        self, engine: SupportEngine, min_count: int
    ) -> np.ndarray:
        """Evaluate a batch of surviving candidates.

        The default loops over :meth:`_frequent_probability`; subclasses
        whose evaluator vectorizes across candidates (DP recurrence, Normal
        moments) override this with one call into the engine.
        """
        return np.array(
            [
                self._frequent_probability(vector, min_count)
                for vector in engine.vectors
            ],
            dtype=float,
        )

    # -- statistics helpers ---------------------------------------------------------------
    @staticmethod
    def _moments(probabilities: Sequence[float]) -> Tuple[float, float]:
        expected = 0.0
        variance = 0.0
        for probability in probabilities:
            expected += probability
            variance += probability * (1.0 - probability)
        return expected, variance

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

