"""Ablation: FFT vs direct convolution inside the DC miner.

DESIGN.md calls out the FFT acceleration as the design choice that gives DC
its O(N log N) edge; this benchmark quantifies it both at the primitive level
(single PMF computation) and end-to-end (full DCB run).  The direct arm is
the ``conv_span`` crossover at ``sys.maxsize`` (no operand is long enough
for the FFT); the FFT arm is the default span.
"""

import sys

import numpy as np
import pytest

from repro.algorithms import DCMiner
from repro.core.support import dc_tail_probabilities, exact_pmf_divide_conquer

from conftest import emit

_rng = np.random.default_rng(11)
VECTOR = _rng.uniform(0.05, 0.95, size=4000)

#: a level of candidates shaped like Accident's exact DC levels (scale
#: 0.01, ``min_sup=0.1``): about 130 vectors of 340-3,250 rows, tails at
#: ``min_count`` 341 — the shape the ``conv_span`` default is chosen on
BATCH_MIN_COUNT = 341
BATCH = [
    _rng.uniform(0.05, 1.0, size=int(length))
    for length in _rng.integers(340, 3251, size=130)
]


#: the two arms: ``None`` resolves the default span, ``sys.maxsize`` never
#: reaches the FFT
ARMS = {"fft": None, "direct": sys.maxsize}


@pytest.mark.parametrize("span", list(ARMS.values()), ids=list(ARMS))
def test_ablation_pmf_convolution(benchmark, span):
    benchmark.group = "ablation:pmf-convolution(N=4000)"
    pmf = benchmark(lambda: exact_pmf_divide_conquer(VECTOR, span=span))
    assert pmf.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("span", list(ARMS.values()), ids=list(ARMS))
def test_ablation_dc_miner_end_to_end(benchmark, accident_db, span):
    benchmark.group = "ablation:dcb-end-to-end(accident)"
    plan = None if span is None else {"conv_span": span}
    miner = DCMiner(use_pruning=True, plan=plan)
    result = benchmark.pedantic(
        lambda: miner.mine(accident_db, min_sup=0.2, pft=0.9), rounds=1, iterations=1
    )
    assert len(result) >= 0


def test_ablation_report(benchmark):
    import time

    def measure():
        rows = {}
        for label, span in ARMS.items():
            start = time.perf_counter()
            exact_pmf_divide_conquer(VECTOR, span=span)
            rows[label] = time.perf_counter() - start
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "Ablation: convolution strategy for the exact support PMF (N=4000)",
        "\n".join(f"{label:7s} {seconds:.4f}s" for label, seconds in rows.items()),
    )
    assert rows["fft"] <= rows["direct"] * 1.5


#: direct-vs-FFT cutover spans swept by --json (the ``conv_span`` plan knob)
SPANS = (16, 32, 64, 128, 256, 512, 1024)


def json_payload():
    """Machine-readable FFT-vs-direct span sweep for the trajectory (--json).

    Sweeps the ``conv_span`` cutover (operands longer than the span go
    through the FFT) on two shapes: the single 4,000-row vector, and the
    Accident-shaped batch through :func:`dc_tail_probabilities`, whose
    walker merges a whole tree height at a time.  The batch's best span
    supports the knob's default (``best_batch_span``).  The headline
    ``fft_speedup`` is measured *at the resolved default span*, so a
    default the measurements do not support (speedup < 1) shows up
    directly in the trajectory.
    """
    import time

    from repro.core.support import resolve_conv_span

    def best_of(run, repeats=3):
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    timings = {
        "direct_seconds": best_of(
            lambda: exact_pmf_divide_conquer(VECTOR, span=ARMS["direct"])
        )
    }
    speedups = {}
    for span in SPANS:
        seconds = best_of(
            lambda: exact_pmf_divide_conquer(VECTOR, span=span)
        )
        timings[f"fft_span{span}_seconds"] = seconds
        speedups[f"fft_span{span}_speedup"] = timings["direct_seconds"] / seconds
    # The batch spans run round-robin, so a slow phase of a shared host
    # lands on every span rather than on one.
    for _ in range(5):
        for span in SPANS:
            started = time.perf_counter()
            dc_tail_probabilities(BATCH, BATCH_MIN_COUNT, span=span)
            key = f"batch_span{span}_seconds"
            timings[key] = min(timings.get(key, float("inf")), time.perf_counter() - started)
    default_span = resolve_conv_span()
    timings["fft_seconds"] = best_of(
        lambda: exact_pmf_divide_conquer(VECTOR, span=default_span)
    )
    speedups["fft_speedup"] = timings["direct_seconds"] / timings["fft_seconds"]
    best_span = min(SPANS, key=lambda span: timings[f"fft_span{span}_seconds"])
    best_batch_span = min(SPANS, key=lambda span: timings[f"batch_span{span}_seconds"])
    return {
        "config": {
            "n_transactions": len(VECTOR),
            "batch_candidates": len(BATCH),
            "batch_rows": sum(len(vector) for vector in BATCH),
            "batch_min_count": BATCH_MIN_COUNT,
            "spans": list(SPANS),
            "default_span": default_span,
            "best_span": best_span,
            "best_batch_span": best_batch_span,
        },
        "timings": timings,
        "speedups": speedups,
    }


if __name__ == "__main__":  # pragma: no cover - manual entry point
    from benchio import bench_main

    raise SystemExit(bench_main("ablation_convolution", json_payload))
