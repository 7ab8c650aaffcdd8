"""UApriori: the uncertain extension of Apriori (Chui, Kao & Hung 2007/2008).

A breadth-first, generate-and-test miner.  Level ``k + 1`` candidates are
produced by joining the frequent ``k``-itemsets and pruned by downward
closure; the surviving candidates' expected supports are evaluated in one
pass over the database's columns.

The whole search is one :class:`~repro.core.search.MinerSpec`: the
levelwise loop, the seeding, and the statistics accounting live in
:class:`~repro.core.search.LevelwiseSearch`, and the algorithm reduces to
the Definition-2 score kernel
(:class:`~repro.core.search.ExpectedSupportKernel`), which evaluates each
whole level in one batched :class:`~repro.core.support.SupportEngine` pass.
Chui et al.'s *decremental* pruning — abandoning a candidate mid-scan once
its running total plus the unseen-transaction count drops below the bar —
is an early-termination trick for a per-transaction scan; the batched
level evaluation (with its occupancy kill) replaces that scan wholesale.

The paper finds UApriori to be the fastest expected-support miner on dense
datasets with a high ``min_esup`` — the regime where the level-wise search
space stays small.
"""

from __future__ import annotations


from ..core.search import ExpectedSupportKernel, MinerSpec
from .base import ExpectedSupportMiner

__all__ = ["UApriori"]


class UApriori(ExpectedSupportMiner):
    """Breadth-first expected-support miner.

    Parameters
    ----------
    track_variance:
        Also accumulate the support variance of every frequent itemset
        (needed when UApriori serves as the engine of the Normal
        approximation miners).
    track_memory:
        Record peak heap allocation in the result statistics.
    plan:
        Execution knobs; see :class:`MinerBase`.
    """

    name = "uapriori"

    def __init__(
        self,
        track_variance: bool = False,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(track_memory=track_memory, plan=plan)
        self.track_variance = track_variance

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="expected",
            threshold=threshold,
            kernel=ExpectedSupportKernel(),
            seed_mode="statistics",
            track_variance=self.track_variance,
        )
