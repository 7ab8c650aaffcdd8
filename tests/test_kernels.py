"""The compiled kernels against their NumPy references, bit for bit.

:mod:`repro.core.kernels` moves the DP sweep, the direct convolution and
the streaming index's tail and PMF steps to C.  Every cell must take the
same operations on the same operands in the same order as the NumPy
kernel it replaces, so each check here compares the two paths' raw
bytes on hypothesis-drawn inputs built from boundary probabilities (0.0,
1.0, 1e-200, exact dyadics and arbitrary floats), ragged and empty
batches, thresholds on both sides of every width, and span edges.  The
build itself must fail quietly: no compiler, a failing compiler, or a
library that will not load all leave the NumPy kernels in charge.
"""

from __future__ import annotations

import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernels, support
from repro.core.support import (
    convolve_pmfs,
    frequent_probabilities_dp_batch,
    pack_probability_matrix,
    resolve_conv_span,
    shift_convolve,
)
from repro.stream import index as stream_index

probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-200, 0.5, 0.25, 0.75]),
    st.floats(min_value=0.0, max_value=1.0),
)
ragged = st.lists(st.lists(probabilities, max_size=40), max_size=8)


#: a string condition is evaluated at setup (pytest provides ``sys``), so
#: collecting this module builds nothing
compiled = pytest.mark.skipif(
    "sys.modules['repro.core.kernels'].library() is None",
    reason="no compiled kernels (no C compiler, or --numpy-kernels)",
)


def _on_numpy(function, *args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_library", None)
        return function(*args, **kwargs)


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.shape == right.shape
        and left.dtype == right.dtype
        and left.tobytes() == right.tobytes()
    )


@compiled
class TestDynamicProgrammingSweep:
    @settings(max_examples=150, deadline=None)
    @given(batch=ragged, min_count=st.integers(min_value=0, max_value=45))
    @example(batch=[], min_count=1)
    @example(batch=[[]], min_count=1)
    @example(batch=[[], [0.5, 0.5], []], min_count=0)
    @example(batch=[[1e-200] * 30, [1.0] * 30, [0.0] * 30], min_count=15)
    @example(batch=[[1.0, 1.0, 1.0], [0.5]], min_count=3)
    def test_ragged_batches(self, batch, min_count):
        width = max((len(vector) for vector in batch), default=0)
        for count in (min_count, 1, width, width + 1):
            compiled = frequent_probabilities_dp_batch(batch, count)
            reference = _on_numpy(frequent_probabilities_dp_batch, batch, count)
            assert _same_bits(compiled, reference), count

    @settings(max_examples=60, deadline=None)
    @given(batch=ragged.filter(len), min_count=st.integers(min_value=1, max_value=42))
    def test_padded_matrix_input(self, batch, min_count):
        matrix = pack_probability_matrix(batch)
        compiled = frequent_probabilities_dp_batch(matrix, min_count)
        reference = _on_numpy(frequent_probabilities_dp_batch, matrix, min_count)
        assert _same_bits(compiled, reference)

    def test_the_sweep_runs_compiled(self, monkeypatch):
        calls = []
        original = kernels.dp_tails

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(kernels, "dp_tails", counting)
        assert frequent_probabilities_dp_batch([[0.5, 0.5], [1.0]], 1).tolist() == [0.75, 1.0]
        assert calls

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            kernels.dp_tails(np.zeros(3), np.array([0, 2]), 1)
        with pytest.raises(ValueError):
            kernels.dp_tails(np.zeros(3), np.array([0, 3, 1, 3]), 1)
        with pytest.raises(ValueError):
            kernels.dp_tails(np.zeros(3), np.array([0, 3]), 0)


SPAN_EDGES = (1, 2, 3, resolve_conv_span(), resolve_conv_span() + 1)


@compiled
class TestShiftConvolution:
    @settings(max_examples=80, deadline=None)
    @given(
        left=st.sampled_from(SPAN_EDGES),
        right=st.sampled_from(SPAN_EDGES),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        boundary=st.booleans(),
    )
    def test_coefficient_major_batches_at_span_edges(self, left, right, batch, seed, boundary):
        rng = np.random.default_rng(seed)
        operands = [rng.uniform(size=(length, batch)) for length in (left, right)]
        if boundary:
            for operand in operands:
                operand[rng.uniform(size=operand.shape) < 0.4] = rng.choice(
                    [0.0, 1.0, 1e-200]
                )
        compiled = shift_convolve(*operands, axis=0)
        reference = _on_numpy(shift_convolve, *operands, axis=0)
        assert _same_bits(compiled, reference)
        # one column at a time, along the default last axis
        for column in range(batch):
            vectors = [operand[:, column] for operand in operands]
            assert _same_bits(
                shift_convolve(*vectors), _on_numpy(shift_convolve, *vectors)
            )
            assert _same_bits(
                convolve_pmfs(*vectors), _on_numpy(convolve_pmfs, *vectors)
            )
        # the transposed layout, along the last axis
        transposed = [operand.T for operand in operands]
        assert _same_bits(
            shift_convolve(*transposed), _on_numpy(shift_convolve, *transposed)
        )

    def test_broadcast_and_integer_operands_take_the_numpy_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "shift_convolve", None)  # must not be reached
        left = np.array([[0.5], [0.5]])
        right = np.array([[0.25, 0.5], [0.75, 0.5]])
        assert shift_convolve(left, right, axis=0).shape == (3, 2)
        assert shift_convolve(np.array([1, 2]), np.array([3])).tolist() == [3.0, 6.0]

    @settings(max_examples=30, deadline=None)
    @given(
        vector=st.lists(probabilities, min_size=1, max_size=90),
        span=st.sampled_from(SPAN_EDGES),
    )
    def test_divide_conquer_walker(self, vector, span):
        vectors = [np.array(vector), np.array(vector[: len(vector) // 2 + 1])]
        for min_count in (1, len(vector) // 2 + 1, len(vector)):
            compiled = support.dc_tail_probabilities(vectors, min_count, span=span)
            reference = _on_numpy(
                support.dc_tail_probabilities, vectors, min_count, span=span
            )
            assert _same_bits(compiled, reference)


@compiled
class TestStreamSteps:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=12),
        candidates=st.integers(min_value=1, max_value=6),
        steps=st.integers(min_value=1, max_value=16),
        rows=st.integers(min_value=0, max_value=14),
        seed=st.integers(min_value=0, max_value=2**16),
        strided=st.booleans(),
    )
    def test_tail_and_pmf_steps_at_and_below_the_cap(
        self, width, candidates, steps, rows, seed, strided
    ):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(steps, candidates))
        p[rng.uniform(size=p.shape) < 0.3] = rng.choice([0.0, 1.0, 1e-200])
        start = rng.uniform(size=(candidates, width + 1))
        for helper in (stream_index._tail_steps, stream_index._pmf_steps):
            # a span of a wider state array, as the index stores them
            host = np.full((candidates, width + 5), 7.0) if strided else None
            compiled = host[:, 2 : width + 3] if strided else start.copy()
            compiled[...] = start
            reference = start.copy()
            helper(compiled, p, rows)
            _on_numpy(helper, reference, p, rows)
            assert _same_bits(np.ascontiguousarray(compiled), reference)
            if strided:
                assert (host[:, :2] == 7.0).all() and (host[:, width + 3 :] == 7.0).all()

    def test_rejects_misshapen_steps(self):
        with pytest.raises(ValueError):
            kernels.tail_steps(np.zeros((2, 3)), np.zeros((4, 3)), 0)
        with pytest.raises(ValueError):
            kernels.pmf_steps(np.zeros((2, 1)), np.zeros((4, 2)), 0)
        with pytest.raises(ValueError):  # columns, not rows, contiguous
            kernels.tail_steps(np.zeros((3, 2)).T, np.zeros((4, 2)), 0)


class TestBuildAndFallback:
    def test_numpy_kernels_fixture_forces_the_fallback(self, numpy_kernels, monkeypatch):
        assert kernels.library() is None
        monkeypatch.setattr(kernels, "dp_tails", None)  # must not be reached
        assert frequent_probabilities_dp_batch([[0.5, 0.5], [1.0]], 1).tolist() == [0.75, 1.0]

    def _rebuild(self, monkeypatch, tmp_path, compilers):
        monkeypatch.setattr(kernels, "_library", kernels._UNLOADED)
        monkeypatch.setattr(kernels, "COMPILERS", compilers)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return kernels.library()

    def _script(self, tmp_path, body: str) -> str:
        path = tmp_path / "fake-cc"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_missing_compiler_falls_back(self, monkeypatch, tmp_path):
        assert self._rebuild(monkeypatch, tmp_path, (str(tmp_path / "no-cc"),)) is None
        assert frequent_probabilities_dp_batch([[0.5, 0.5]], 1).tolist() == [0.75]
        assert shift_convolve(np.array([0.5, 0.5]), np.array([0.5, 0.5])).tolist() == [
            0.25, 0.5, 0.25,
        ]

    def test_failing_compiler_falls_back_without_raising(self, monkeypatch, tmp_path):
        compiler = self._script(tmp_path, "echo 'cc: fatal error' >&2; exit 1")
        assert self._rebuild(monkeypatch, tmp_path, (compiler,)) is None
        assert frequent_probabilities_dp_batch([[0.5, 0.5]], 1).tolist() == [0.75]
        assert not [
            name for name in os.listdir(tmp_path / "cache" / "repro") if name.endswith(".so")
        ]

    def test_unloadable_library_falls_back(self, monkeypatch, tmp_path):
        # "compiles" by writing a file that is not a shared library
        compiler = self._script(
            tmp_path,
            'while [ "$1" != "-o" ]; do shift; done; echo junk > "$2"; cat > /dev/null',
        )
        assert self._rebuild(monkeypatch, tmp_path, (compiler,)) is None

    @compiled
    def test_builds_once_into_the_cache_directory(self, monkeypatch, tmp_path):
        assert self._rebuild(monkeypatch, tmp_path, kernels.COMPILERS) is not None
        built = os.listdir(tmp_path / "cache" / "repro")
        assert len(built) == 1 and built[0].startswith("kernels-") and built[0].endswith(".so")
        # a second process (here: a cleared handle) loads the cached file
        compiler = self._script(tmp_path, "exit 1")
        assert self._rebuild(monkeypatch, tmp_path, (compiler,)) is not None
        assert os.listdir(tmp_path / "cache" / "repro") == built

    @compiled
    def test_unwritable_cache_uses_a_temporary_directory(self, monkeypatch, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory would go")
        assert self._rebuild(monkeypatch, tmp_path, kernels.COMPILERS) is not None
        # the library was built in a temporary directory, loaded, and the
        # directory removed: the mapped library keeps working without it
        assert not [name for name in os.listdir(tmp_path) if name.startswith("repro-kernels-")]
        assert kernels.library() is not None
        assert frequent_probabilities_dp_batch([[0.5, 0.5]], 1).tolist() == [0.75]
        assert shift_convolve(np.array([0.5, 0.5]), np.array([0.5, 0.5])).tolist() == [
            0.25, 0.5, 0.25,
        ]
