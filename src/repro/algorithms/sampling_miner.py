"""Sampling-based approximate probabilistic frequent itemset mining.

The paper's related-work list includes a third way to approximate the
frequent probability besides the Poisson and Normal distributions: sample
possible worlds and count (Calders, Garboni, Goethals, PAKDD 2010,
reference [11] of the paper).  Each sampled world is a deterministic
database; the frequent probability of an itemset is estimated as the
fraction of worlds in which its (deterministic) support reaches the
threshold.

The estimator is unbiased and its error is controlled by the number of
worlds (a Hoeffding bound gives ``epsilon = sqrt(ln(2/delta) / (2 * n_worlds))``),
but every itemset costs O(n_worlds * N), so the method is mainly interesting
as an independent cross-check of the analytic miners — which is exactly how
the test-suite uses it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.search import CandidateLevel, LevelKernel, MinerSpec, SearchContext
from .base import ProbabilisticMiner
from .common import trim_transactions

__all__ = ["WorldSamplingMiner"]


class WorldSamplingMiner(ProbabilisticMiner):
    """Monte-Carlo possible-world miner (Calders et al., PAKDD 2010).

    Parameters
    ----------
    n_worlds:
        Number of possible worlds to sample.  The half-width of the
        (1 - delta) confidence interval on every estimated frequent
        probability is ``sqrt(ln(2/delta) / (2 * n_worlds))``.
    seed:
        Seed of the world sampler (results are deterministic given the seed).
    slack:
        Safety margin subtracted from ``pft`` during candidate expansion so
        that borderline itemsets are not lost to sampling noise; the final
        filter still uses the unmodified ``pft``.

    The sampled worlds are stored as per-item boolean membership matrices
    and supports are counted with vectorized AND-reductions; above
    :attr:`max_presence_cells` the miner falls back to per-world
    dictionaries.  The random draws are consumed in the same order by both
    storages, so the estimates are identical given the seed.
    """

    name = "world-sampling"

    #: cap on the dense presence storage (one byte per boolean cell); above
    #: it the miner falls back to per-world dictionaries
    #: rather than allocating O(items * worlds * transactions) memory
    max_presence_cells: int = 200_000_000

    def __init__(
        self,
        n_worlds: int = 200,
        seed: int = 0,
        slack: float = 0.05,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(track_memory=track_memory, plan=plan)
        if n_worlds <= 0:
            raise ValueError("n_worlds must be positive")
        if not 0.0 <= slack < 1.0:
            raise ValueError("slack must lie in [0, 1)")
        self.n_worlds = n_worlds
        self.seed = seed
        self.slack = slack

    def error_bound(self, delta: float = 0.05) -> float:
        """Hoeffding half-width of the probability estimates at confidence 1 - delta."""
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_worlds))

    # -- world materialisation ---------------------------------------------------------
    def _sample_worlds(
        self, transactions: List[Dict[int, float]]
    ) -> List[List[Dict[int, float]]]:
        """Materialise ``n_worlds`` deterministic projections of the database.

        Each world is stored in the same ``{item: probability}`` shape as the
        trimmed transactions (with probability 1.0 for the retained items) so
        the support-counting loop below can stay identical to the analytic
        miners' scanning loop.
        """
        rng = np.random.default_rng(self.seed)
        worlds: List[List[Dict[int, float]]] = [[] for _ in range(self.n_worlds)]
        for units in transactions:
            if not units:
                for world in worlds:
                    world.append({})
                continue
            items = list(units.keys())
            probabilities = np.array([units[item] for item in items])
            draws = rng.random((self.n_worlds, len(items))) < probabilities
            for world_index in range(self.n_worlds):
                present = {
                    items[item_index]: 1.0
                    for item_index in np.nonzero(draws[world_index])[0]
                }
                worlds[world_index].append(present)
        return worlds

    def _sample_world_matrices(
        self, transactions: List[Dict[int, float]]
    ) -> Dict[int, np.ndarray]:
        """Materialise the sampled worlds as per-item boolean matrices.

        ``result[item][world, row]`` is True when ``item`` was drawn present
        in transaction ``row`` of world ``world``.  The random draws are made
        transaction by transaction with the exact call sequence of
        :meth:`_sample_worlds`, so both representations describe the same
        worlds for a given seed.
        """
        rng = np.random.default_rng(self.seed)
        n_rows = len(transactions)
        presence: Dict[int, np.ndarray] = {}
        for row, units in enumerate(transactions):
            if not units:
                continue
            items = list(units.keys())
            probabilities = np.array([units[item] for item in items])
            draws = rng.random((self.n_worlds, len(items))) < probabilities
            for item_index, item in enumerate(items):
                matrix = presence.get(item)
                if matrix is None:
                    matrix = np.zeros((self.n_worlds, n_rows), dtype=bool)
                    presence[item] = matrix
                matrix[:, row] = draws[:, item_index]
        return presence

    def _estimated_frequent_probability_columnar(
        self,
        presence: Dict[int, np.ndarray],
        candidate: Tuple[int, ...],
        min_count: int,
    ) -> float:
        """Vectorized support counting: AND the item matrices, count rows per world."""
        contained: Optional[np.ndarray] = None
        for item in candidate:
            matrix = presence.get(item)
            if matrix is None:
                return 0.0
            contained = matrix if contained is None else (contained & matrix)
        if contained is None:
            return 1.0
        supports = contained.sum(axis=1)
        return float(np.count_nonzero(supports >= min_count)) / self.n_worlds

    def _estimated_frequent_probability(
        self,
        worlds: List[List[Dict[int, float]]],
        candidate: Tuple[int, ...],
        min_count: int,
    ) -> float:
        if min_count <= 0:
            # Every world trivially reaches a zero support threshold; the
            # counting loop below would miss worlds with no containing
            # transaction (it only tests after an increment).
            return 1.0
        hits = 0
        for world in worlds:
            support = 0
            for units in world:
                contained = True
                for item in candidate:
                    if item not in units:
                        contained = False
                        break
                if contained:
                    support += 1
                    if support >= min_count:
                        hits += 1
                        break
        return hits / self.n_worlds

    # -- declarative search --------------------------------------------------------------
    def _expansion_bar(self, ctx: SearchContext) -> float:
        # Markov prefilter, identical to the analytic Apriori miners but
        # slack-loosened so borderline items survive sampling noise.
        return ctx.min_count * max(ctx.pft - self.slack, 0.0)

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="probabilistic",
            threshold=threshold,
            kernel=_WorldKernel(self),
            item_prefilter=self._expansion_bar,
            seed_mode="evaluate",
        )


class _WorldKernel(LevelKernel):
    """Score kernel estimating tails as hit fractions over sampled worlds.

    Candidate *expansion* uses the slack-loosened threshold
    ``pft - slack`` (so borderline itemsets are not lost to sampling
    noise); *recording* uses the unmodified ``pft``.  Survivors of a level
    are therefore a superset of the recorded itemsets — the extra breadth
    is the price of the estimator's confidence interval.
    """

    def __init__(self, miner: WorldSamplingMiner) -> None:
        self.miner = miner
        self._estimate = None

    def begin(self, ctx: SearchContext) -> None:
        miner = self.miner
        # Both storages draw worlds transaction by transaction (the same
        # RNG call sequence); they differ only in the world storage and
        # the support-counting loop.
        transactions = trim_transactions(ctx.database, ctx.seed_items)
        presence_cells = len(ctx.seed_items) * miner.n_worlds * len(transactions)
        min_count = ctx.min_count
        if presence_cells <= miner.max_presence_cells:
            presence = miner._sample_world_matrices(transactions)

            def estimate(candidate: Tuple[int, ...]) -> float:
                return miner._estimated_frequent_probability_columnar(
                    presence, candidate, min_count
                )

        else:
            worlds = miner._sample_worlds(transactions)

            def estimate(candidate: Tuple[int, ...]) -> float:
                return miner._estimated_frequent_probability(
                    worlds, candidate, min_count
                )

        self._estimate = estimate
        ctx.statistics.database_scans += 1  # the world-materialisation pass
        ctx.statistics.notes["worlds_sampled"] = float(miner.n_worlds)

    def evaluate(self, ctx: SearchContext, candidates: CandidateLevel) -> CandidateLevel:
        statistics = ctx.statistics
        expansion_threshold = max(ctx.pft - self.miner.slack, 0.0)
        survivors: List[int] = []
        for row, candidate in enumerate(candidates.tuples()):
            probability = self._estimate(candidate)
            statistics.exact_evaluations += 1
            if probability > expansion_threshold:
                survivors.append(row)
            if probability > ctx.pft:
                if len(candidate) == 1:
                    expected, variance = ctx.seed_items[candidate[0]]
                else:
                    expected = ctx.database.expected_support(candidate)
                    variance = ctx.database.support_variance(candidate)
                ctx.record(candidate, expected, variance, probability)
        return candidates.select(survivors)
