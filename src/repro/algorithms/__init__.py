"""The eight representative algorithms of the paper (plus a sampling estimator).

Importing this package registers every algorithm with
:mod:`repro.core.registry` under the names used throughout the paper's
experiments:

========================  =============  ======================================
Registry name             Family         Algorithm
========================  =============  ======================================
``uapriori``              expected       UApriori (Chui et al.)
``ufp-growth``            expected       UFP-growth (Leung et al.)
``uh-mine``               expected       UH-Mine (Aggarwal et al.)
``dpnb`` / ``dpb``        exact          Dynamic programming, without / with the bound chain
``dcnb`` / ``dcb``        exact          Divide-and-conquer (FFT), without / with the bound chain
``pdu-apriori``           approximate    Poisson approximation on UApriori
``ndu-apriori``           approximate    Normal approximation on UApriori
``nduh-mine``             approximate    Normal approximation on UH-Mine (the paper's proposal)
``world-sampling``        approximate    Possible-world sampling estimator (Calders et al. 2010)
========================  =============  ======================================

The *B* configurations run the one bound chain of the search engine
(occupancy count, Markov, Chernoff:
:func:`repro.core.support.undecided_after_bounds`) before the exact tail;
the *NB* ones only the occupancy count.

The brute-force references the test-suite checks every miner against live
with the tests (``tests/reference.py``), not in the registry.
"""

from ..core.registry import register_algorithm
from .base import ExpectedSupportMiner, MinerBase, ProbabilisticMiner
from .dc import DCMiner
from .dp import DPMiner
from .ndu_apriori import NDUApriori
from .nduh_mine import NDUHMine
from .pdu_apriori import PDUApriori
from .sampling_miner import WorldSamplingMiner
from .uapriori import UApriori
from .ufp_growth import UFPGrowth, UFPNode, UFPTree
from .uh_mine import UHMine, build_uh_struct_columnar

__all__ = [
    "DCMiner",
    "DPMiner",
    "ExpectedSupportMiner",
    "MinerBase",
    "NDUApriori",
    "NDUHMine",
    "PDUApriori",
    "ProbabilisticMiner",
    "UApriori",
    "UFPGrowth",
    "UFPNode",
    "UFPTree",
    "UHMine",
    "WorldSamplingMiner",
    "build_uh_struct_columnar",
]


def _register_all() -> None:
    register_algorithm(
        "uapriori", "expected", UApriori, "Breadth-first expected-support miner (Apriori)"
    )
    register_algorithm(
        "ufp-growth", "expected", UFPGrowth, "UFP-tree based expected-support miner"
    )
    register_algorithm(
        "uh-mine", "expected", UHMine, "UH-Struct based expected-support miner"
    )
    register_algorithm(
        "dpnb",
        "exact",
        lambda **kw: DPMiner(use_pruning=False, **kw),
        "Dynamic programming, no Chernoff pruning",
    )
    register_algorithm(
        "dpb",
        "exact",
        lambda **kw: DPMiner(use_pruning=True, **kw),
        "Dynamic programming with Chernoff pruning",
    )
    register_algorithm(
        "dcnb",
        "exact",
        lambda **kw: DCMiner(use_pruning=False, **kw),
        "Divide-and-conquer (FFT), no Chernoff pruning",
    )
    register_algorithm(
        "dcb",
        "exact",
        lambda **kw: DCMiner(use_pruning=True, **kw),
        "Divide-and-conquer (FFT) with Chernoff pruning",
    )
    register_algorithm(
        "pdu-apriori", "approximate", PDUApriori, "Poisson approximation on UApriori"
    )
    register_algorithm(
        "ndu-apriori", "approximate", NDUApriori, "Normal approximation on UApriori"
    )
    register_algorithm(
        "nduh-mine", "approximate", NDUHMine, "Normal approximation on UH-Mine"
    )
    register_algorithm(
        "world-sampling",
        "approximate",
        WorldSamplingMiner,
        "Monte-Carlo possible-world sampling estimator",
    )


_register_all()
