"""Table 4: cost of determining the frequent probability of a single itemset.

Micro-benchmarks of the three per-itemset primitives the paper tabulates:

* DP       — O(N * min_count) dynamic programming, exact;
* DC       — O(N log^2 N) divide-and-conquer with FFT, exact;
* Chernoff — O(N) bound computation, false positives possible.

DP and DC are the production kernels the miners run (compiled when
``repro.core.kernels`` builds).  The paper's ordering (Chernoff << DC << DP
for large N) is reported, not asserted: at this N the compiled DP is faster
than DC (README).  The accuracy column is checked: DP and DC agree within
1e-9, the Chernoff value is an upper bound.
"""

import numpy as np
import pytest

from repro.core.support import (
    chernoff_upper_bound,
    dc_tail_probabilities,
    frequent_probabilities_dp_batch,
)

from conftest import emit

N_TRANSACTIONS = 2000
MIN_COUNT = int(0.4 * N_TRANSACTIONS)

_rng = np.random.default_rng(42)
PROBABILITIES = _rng.uniform(0.1, 0.9, size=N_TRANSACTIONS)


def dp_method():
    # The production DP tail, the sweep the DP miners run (compiled when
    # repro.core.kernels builds), as dc_method is the production DC tail.
    return float(frequent_probabilities_dp_batch([PROBABILITIES], MIN_COUNT)[0])


def dc_method():
    # The production DC tail: the divide-and-conquer PMF's tail, capped by
    # the Markov and Chernoff bounds that make FFT round-off harmless.
    return float(dc_tail_probabilities([PROBABILITIES], MIN_COUNT)[0])


def chernoff_method():
    return chernoff_upper_bound(float(PROBABILITIES.sum()), MIN_COUNT)


@pytest.mark.parametrize(
    "label,method",
    [("dp", dp_method), ("dc", dc_method), ("chernoff", chernoff_method)],
)
def test_table4_point(benchmark, label, method):
    benchmark.group = "table4:per-itemset frequent probability"
    value = benchmark(method)
    assert 0.0 <= value <= 1.0


def test_table4_accuracy_relationships(benchmark):
    results = benchmark.pedantic(
        lambda: (dp_method(), dc_method(), chernoff_method()), rounds=1, iterations=1
    )
    dp_value, dc_value, chernoff_value = results
    emit(
        "Table 4: per-itemset probability methods",
        f"DP={dp_value:.6f}  DC={dc_value:.6f}  Chernoff bound={chernoff_value:.6f}",
    )
    assert dp_value == pytest.approx(dc_value, abs=1e-9)
    assert chernoff_value >= dp_value - 1e-9


def json_payload():
    """Machine-readable per-primitive timings for the trajectory (--json)."""
    import time

    timings = {}
    for label, method in (
        ("dp_seconds", dp_method),
        ("dc_seconds", dc_method),
        ("chernoff_seconds", chernoff_method),
    ):
        started = time.perf_counter()
        method()
        timings[label] = time.perf_counter() - started
    return {
        "config": {"n_transactions": N_TRANSACTIONS, "min_count": MIN_COUNT},
        "timings": timings,
        "speedups": {
            "dc_over_dp_speedup": timings["dp_seconds"] / timings["dc_seconds"],
            "chernoff_over_dc_speedup": (
                timings["dc_seconds"] / timings["chernoff_seconds"]
            ),
        },
    }


if __name__ == "__main__":  # pragma: no cover - manual entry point
    from benchio import bench_main

    raise SystemExit(bench_main("table4_probability_methods", json_payload))
