"""Portability tripwire: the exact tails give the same bits on every CPU kernel.

The DC walker convolves through one fixed-order shift kernel and an FFT
whose spectra multiply in real arithmetic, and the streaming index takes
elementwise DP steps, so no result may depend on the OpenBLAS kernel
chosen at run time or on NumPy's SIMD dispatch.  A subprocess recomputes,
under each setting below:

* the DC-family golden records (``dcb``, ``dcnb`` and the ``dc`` top-k at
  ``w1s1``), whose 50-row trees merge directly;
* a fixed DC-tail batch whose larger nodes exceed ``conv_span``, so the
  FFT branch runs (the goldens never reach it), and its PMFs;
* the DP tails of the same batch;
* the exact tails of a streaming index whose window has turned over;

and the test asserts bitwise equality with the same values computed in
this process.  Each setting is replayed twice, once on the compiled
kernels of :mod:`repro.core.kernels` (built for the compiler's baseline
target, whatever NumPy dispatches to) and once on the NumPy fallback, and
both must give the same digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")

NUMPY_MASK = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def _hex(values) -> list:
    return [float(value).hex() for value in np.asarray(values, dtype=float).ravel()]


def portable_results(compiled: bool = True) -> dict:
    """Every checked value as hex floats, keyed by what produced it.

    ``compiled=False`` computes them on the NumPy kernels, as without a C
    compiler.
    """
    from repro.core import kernels

    if compiled:
        return _portable_results()
    saved, kernels._library = kernels._library, None
    try:
        return _portable_results()
    finally:
        kernels._library = saved


def _portable_results() -> dict:
    from repro.algorithms.topk import TopKMiner
    from repro.core.miner import mine
    from repro.core.support import (
        dc_tail_probabilities,
        exact_pmf_divide_conquer,
        frequent_probabilities_dp_batch,
    )
    from repro.stream.index import IncrementalSupportIndex

    from helpers import make_random_database

    results = {}
    database = make_random_database(
        n_transactions=50, n_items=9, density=0.7, seed=7, name="golden"
    )
    for algorithm in ("dcb", "dcnb"):
        result = mine(database, algorithm, min_sup=0.07, pft=0.5, workers=1, shards=1)
        results[algorithm] = [
            [list(record.itemset.items), float(record.frequent_probability).hex()]
            for record in result
        ]
    topk = TopKMiner(evaluator="dc", workers=1, shards=1).mine(database, 10, min_sup=0.07)
    results["topk-dc"] = [
        [list(record.itemset.items), float(record.frequent_probability).hex()]
        for record in topk.itemsets
    ]

    rng = np.random.default_rng(2024)
    batch = [rng.uniform(0.0, 1.0, size=length) for length in (0, 1, 3, 40, 130, 700)]
    batch.append(np.array(([0.5, 1e-160, 0.25, 1.0, 0.0] * 60)[:300]))
    for min_count in (1, 20, 65, 350):
        results[f"tails@{min_count}"] = _hex(dc_tail_probabilities(batch, min_count))
        results[f"dp@{min_count}"] = _hex(frequent_probabilities_dp_batch(batch, min_count))
    results["pmfs"] = [_hex(exact_pmf_divide_conquer(vector)) for vector in batch]

    index = IncrementalSupportIndex(capacity=600, with_pmfs=True)
    candidates = [(0,), (1,), (0, 1)]
    index.ensure(candidates)
    for offset in range(0, 1200, 150):
        index.apply(
            [
                (slot, {0: float(rng.uniform()), 1: float(rng.uniform())})
                for slot in range(offset % 600, offset % 600 + 150)
            ]
        )
    results["stream"] = _hex(index.frequent_probabilities(candidates, 180))
    return results


_SCRIPT = (
    "import json, sys, test_portability; from repro.core import kernels; "
    "compiled = sys.argv[1] == 'compiled'; "
    "results = test_portability.portable_results(compiled); "
    "print(json.dumps([compiled and kernels.library() is not None, results]))"
)


def _replay(compiled: bool, **settings) -> subprocess.CompletedProcess:
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, _TESTS])
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, "compiled" if compiled else "numpy"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _assert_replays_match(in_process: dict, **settings) -> None:
    """Both kernel paths, replayed under ``settings``, give this process's digests."""
    from repro.core import kernels

    for compiled in (True, False):
        replay = _replay(compiled, **settings)
        if replay.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in replay.stderr:
            pytest.skip(f"NumPy refuses NPY_DISABLE_CPU_FEATURES={NUMPY_MASK!r} here")
        assert replay.returncode == 0, replay.stderr
        ran_compiled, results = json.loads(replay.stdout)
        if not compiled or kernels.library() is not None:
            assert ran_compiled == compiled
        assert results == in_process, "compiled" if compiled else "numpy"


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # pragma: no cover - other NumPy builds
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.fixture(scope="module")
def in_process() -> dict:
    return json.loads(json.dumps(portable_results()))


def test_compiled_and_numpy_kernels_give_the_same_digests(in_process):
    assert json.loads(json.dumps(portable_results(compiled=False))) == in_process


def test_replayed_values_run_the_fft_path(in_process, monkeypatch):
    # The replay only guards the FFT if it runs: the DC walker's FFT branch
    # must be hit.
    import repro.core.support as support

    calls = {"walker": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(support, "_fft_convolve", counting("walker", support._fft_convolve))
    assert json.loads(json.dumps(portable_results())) == in_process
    assert calls["walker"]


def test_same_bits_under_the_prescott_openblas_kernel(in_process):
    if not _dynamic_arch_openblas():
        pytest.skip("NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    _assert_replays_match(in_process, OPENBLAS_CORETYPE="Prescott")


def test_same_bits_without_numpy_avx2_and_avx512_loops(in_process):
    _assert_replays_match(in_process, NPY_DISABLE_CPU_FEATURES=NUMPY_MASK)
