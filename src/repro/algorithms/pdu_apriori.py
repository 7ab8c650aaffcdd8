"""PDUApriori: Poisson-distribution-based approximate miner (Wang et al., 2010).

The support of an itemset (Poisson-Binomial) is approximated by a Poisson
variable whose rate equals the expected support.  Because the Poisson upper
tail is monotone in the rate, the probabilistic threshold ``(min_sup, pft)``
can be translated *once* into an equivalent minimum expected support
``lambda*``; mining then reduces to a plain expected-support search with
``min_esup = lambda*``.  The spec says exactly that: a Definition-4
decision rule whose ``search_threshold`` hook performs the translation and
whose score kernel is the shared
:class:`~repro.core.search.ExpectedSupportKernel`.  The algorithm therefore
inherits UApriori's cost profile (fast on dense data with high thresholds)
but — as the paper notes — cannot report per-itemset frequent
probabilities, only membership.
"""

from __future__ import annotations

from typing import Optional

from ..core.search import ExpectedSupportKernel, MinerSpec, SearchContext
from ..core.support import poisson_lambda_for_threshold, poisson_tail_probability
from .base import ProbabilisticMiner

__all__ = ["PDUApriori"]


class PDUApriori(ProbabilisticMiner):
    """Approximate probabilistic miner built on the expected-support kernel.

    Parameters
    ----------
    report_probabilities:
        The original algorithm only returns the itemsets.  When this flag is
        True the result additionally carries the Poisson *estimate* of each
        frequent probability (useful for diagnostics; clearly marked as an
        estimate because the exact value is never computed).
    """

    name = "pdu-apriori"

    def __init__(
        self,
        report_probabilities: bool = False,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(
            track_memory=track_memory,
            plan=plan,
        )
        self.report_probabilities = report_probabilities

    @staticmethod
    def _search_threshold(ctx: SearchContext) -> float:
        # Translate (min_count, pft) into the equivalent expected-support
        # threshold under the Poisson approximation.  The raw value is kept
        # for the run note; the search bar is floored at a tiny positive
        # value so lambda* below 1 is not re-interpreted as a ratio anywhere.
        lambda_threshold = poisson_lambda_for_threshold(ctx.min_count, ctx.pft)
        ctx.scratch["poisson_lambda_threshold"] = float(lambda_threshold)
        return max(lambda_threshold, 1e-12)

    def _record_probability(
        self, ctx: SearchContext, expected: float
    ) -> Optional[float]:
        if not self.report_probabilities:
            return None
        return poisson_tail_probability(expected, ctx.min_count)

    @staticmethod
    def _finalize(ctx: SearchContext) -> None:
        ctx.statistics.notes["poisson_lambda_threshold"] = ctx.scratch[
            "poisson_lambda_threshold"
        ]

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="probabilistic",
            threshold=threshold,
            kernel=ExpectedSupportKernel(),
            seed_mode="statistics",
            search_threshold=self._search_threshold,
            record_probability=self._record_probability,
            finalize=self._finalize,
        )
