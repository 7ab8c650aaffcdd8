"""Core model: itemsets, support distributions, thresholds, results, dispatch."""

from .itemset import Itemset
from .miner import mine
from .parallel import ParallelExecutor, resolve_shards, resolve_workers
from .registry import (
    AlgorithmInfo,
    algorithm_names,
    algorithms_in_family,
    get_algorithm,
    register_algorithm,
)
from .results import FrequentItemset, MiningResult, MiningStatistics
from .rules import AssociationRule, closed_itemsets, derive_rules
from .support import (
    SupportDistribution,
    SupportEngine,
    chernoff_upper_bound,
    exact_pmf_divide_conquer,
    exact_pmf_dynamic_programming,
    frequent_probabilities_dp_batch,
    frequent_probability_dynamic_programming,
    normal_tail_probability,
    pack_probability_matrix,
    poisson_lambda_for_threshold,
    poisson_tail_probability,
)
from .thresholds import ExpectedSupportThreshold, ProbabilisticThreshold
from .topk import (
    TopKBuffer,
    TopKResult,
    mine_topk,
    rank_itemsets,
    truncate_result,
    truncation_baseline,
)

__all__ = [
    "AlgorithmInfo",
    "AssociationRule",
    "ExpectedSupportThreshold",
    "FrequentItemset",
    "Itemset",
    "MiningResult",
    "MiningStatistics",
    "ParallelExecutor",
    "ProbabilisticThreshold",
    "SupportDistribution",
    "SupportEngine",
    "algorithm_names",
    "algorithms_in_family",
    "TopKBuffer",
    "TopKResult",
    "chernoff_upper_bound",
    "closed_itemsets",
    "derive_rules",
    "exact_pmf_divide_conquer",
    "exact_pmf_dynamic_programming",
    "frequent_probabilities_dp_batch",
    "frequent_probability_dynamic_programming",
    "pack_probability_matrix",
    "get_algorithm",
    "mine",
    "mine_topk",
    "normal_tail_probability",
    "rank_itemsets",
    "truncate_result",
    "truncation_baseline",
    "poisson_lambda_for_threshold",
    "poisson_tail_probability",
    "register_algorithm",
    "resolve_shards",
    "resolve_workers",
]
