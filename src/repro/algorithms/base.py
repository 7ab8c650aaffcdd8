"""Abstract miner interfaces.

Two families of public signatures exist, matching the paper's two frequent
itemset definitions:

* :class:`ExpectedSupportMiner` — ``mine(database, min_esup)``
* :class:`ProbabilisticMiner` — ``mine(database, min_sup, pft)``

(the approximate probabilistic algorithms implement the second interface;
they differ from the exact ones only in how they evaluate the frequent
probability).

A concrete miner no longer implements a search: it implements
:meth:`MinerBase.spec`, returning the frozen declarative
:class:`~repro.core.search.MinerSpec` that :class:`LevelwiseSearch`
executes — the score kernel binding, decision rule, bound chain, seed mode
and hooks.  ``mine`` builds the threshold, asks for the spec, and hands
both to the engine under the run's pinned :class:`ExecutionPlan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Mapping, Optional, Union

from ..core.results import MiningResult, MiningStatistics
from ..core.search import LevelwiseSearch, MinerSpec
from ..core.thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from ..db.database import UncertainDatabase
from ..plan import ExecutionPlan, ensure_plan, materialize_plan, plan_scope

__all__ = ["MinerBase", "ExpectedSupportMiner", "ProbabilisticMiner"]


class MinerBase(ABC):
    """Shared construction options of every miner.

    Parameters
    ----------
    track_memory:
        When True the run records its peak Python-heap allocation in the
        result statistics (used by the memory-cost experiments).
    plan:
        An :class:`~repro.plan.ExecutionPlan` (or a plan-spec string /
        mapping — see :func:`repro.plan.ensure_plan`) carrying any subset
        of the tuning knobs, at the scope tier.
        The materialized configuration is pinned for the whole run
        (exposed afterwards as :attr:`plan`).
    """

    #: Registry name; subclasses override.
    name: str = "base"

    def __init__(
        self,
        track_memory: bool = False,
        plan: Union[None, str, Mapping[str, Any], ExecutionPlan] = None,
    ) -> None:
        self.track_memory = track_memory
        self.plan_request = ensure_plan(plan)
        #: the fully-materialized plan of the latest run (set by mine())
        self.plan: Optional[ExecutionPlan] = None

    @contextmanager
    def _planned(self):
        """Materialize and pin this run's :class:`ExecutionPlan`.

        Every knob is resolved once, up front (the constructor's plan >
        ``REPRO_PLAN`` > default) — then the complete plan is pinned with
        :func:`~repro.plan.plan_scope` for the duration of the mine, so
        every downstream consumer (SupportEngine, the columnar kernels)
        sees one immutable configuration, immune to concurrent environment
        changes or other threads' scopes.
        """
        plan = materialize_plan(self.plan_request)
        self.plan = plan
        with plan_scope(plan):
            yield plan

    def _new_statistics(self) -> MiningStatistics:
        statistics = MiningStatistics(algorithm=self.name)
        if self.plan is not None:
            statistics.notes["conv_span"] = float(self.plan.conv_span)
        return statistics

    def _run_search(self, database: UncertainDatabase, threshold: Any) -> MiningResult:
        """Build this miner's spec and execute it under the pinned plan."""
        with self._planned():
            spec = self.spec(threshold)
            return LevelwiseSearch(spec, miner=self).run(database)

    @abstractmethod
    def spec(self, threshold: Any) -> MinerSpec:
        """The declarative search specification for one query threshold."""


class ExpectedSupportMiner(MinerBase):
    """A miner that finds expected-support-based frequent itemsets (Definition 2)."""

    def mine(self, database: UncertainDatabase, min_esup: float) -> MiningResult:
        """Return every itemset whose expected support reaches ``min_esup``.

        ``min_esup`` may be a ratio of the database size (``0 < x <= 1``) or
        an absolute expected support (``x > 1``).
        """
        return self._run_search(database, ExpectedSupportThreshold(min_esup))


class ProbabilisticMiner(MinerBase):
    """A miner that finds probabilistic frequent itemsets (Definition 4)."""

    def mine(
        self, database: UncertainDatabase, min_sup: float, pft: float = 0.9
    ) -> MiningResult:
        """Return every itemset with ``Pr[sup >= N * min_sup] > pft``.

        ``min_sup`` may be a ratio or an absolute count; ``pft`` is the
        probabilistic frequentness threshold.
        """
        return self._run_search(database, ProbabilisticThreshold(min_sup, pft))
