"""Golden-equivalence suite: the MinerSpec engine is held to a bitwise contract.

``tests/goldens/search_engine_goldens.json`` was captured by
``tools/capture_search_goldens.py``: every registered miner over the
equivalence grid ((workers, shards) in {(1, 1), (2, 2)}), the five top-k
evaluators over the same grid, and the streaming miners' per-slide record
series — all serialized with ``repr`` floats, so equality of the serialized
form is bitwise equality of the mining results.

This module replays the exact same grid through the
:class:`~repro.core.search.LevelwiseSearch` engine and asserts byte
equality.  It also replays the ``w1s1`` goldens under layouts the grid
does not capture (uneven shards, more shards than workers, store-mapped
shards), plus the two satellites that ride on the engine:

* the apriori join's maintained-sort-order contract (``presorted=True``
  produces the identical candidate list the sorting join produced); and
* the uniform statistics accounting, pinned per miner (see the
  :class:`~repro.core.results.MiningStatistics` docstring for the rules).
"""

from __future__ import annotations

import importlib.util
import json
import os
import random

import pytest

from helpers import make_random_database

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "search_engine_goldens.json"
)

# The capture harness is the single source of truth for the grid, the
# thresholds, the per-miner options and the serialization; importing it here
# means the replay can never drift from the capture.
_spec = importlib.util.spec_from_file_location(
    "capture_search_goldens",
    os.path.join(_REPO_ROOT, "tools", "capture_search_goldens.py"),
)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

with open(_GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDENS = json.load(_handle)

THRESHOLD_KEYS = sorted(GOLDENS["threshold_grid"])
TOPK_KEYS = sorted(GOLDENS["topk_grid"])
STREAMING_KEYS = sorted(GOLDENS["streaming"])


def _parse_key(key):
    algorithm, _, ws, _ = key.split("|")
    workers, shards = ws[1:].split("s")
    return algorithm, int(workers), int(shards)


@pytest.fixture(scope="module")
def database():
    return make_random_database(**GOLDENS["dataset"])


def _mine_threshold(database, algorithm, workers, shards):
    from repro.core.miner import mine
    from repro.core.registry import get_algorithm

    kwargs = dict(harness.MINER_OPTIONS[algorithm], workers=workers, shards=shards)
    if get_algorithm(algorithm).family == "expected":
        return mine(database, algorithm, min_esup=harness.MIN_ESUP, **kwargs)
    return mine(database, algorithm, min_sup=harness.MIN_SUP, pft=harness.PFT, **kwargs)


def _mine_topk(database, evaluator, workers, shards):
    from repro.algorithms.topk import TopKMiner

    miner = TopKMiner(evaluator=evaluator, workers=workers, shards=shards)
    min_sup = None if evaluator == "esup" else harness.MIN_SUP
    return miner.mine(database, GOLDENS["topk_k"], min_sup=min_sup)


def _stream_results(database, key):
    """The per-slide results of the golden streaming miner ``key``."""
    from repro.stream import (
        StreamingDP,
        StreamingTopK,
        StreamingUApriori,
        TransactionStream,
    )

    stream_config = GOLDENS["stream"]
    window = stream_config["window"]
    miners = {
        "stream-uapriori": lambda: StreamingUApriori(window, harness.MIN_ESUP),
        "stream-dp": lambda: StreamingDP(window, harness.MIN_SUP, harness.PFT),
        "stream-topk-esup": lambda: StreamingTopK(window, k=5),
        "stream-topk-dp": lambda: StreamingTopK(
            window, k=5, evaluator="dp", min_sup=harness.MIN_SUP
        ),
    }
    stream = TransactionStream.from_records(
        [dict(transaction.units) for transaction in database]
    )
    return list(
        miners[key]().results(
            stream, stream_config["step"], max_slides=stream_config["slides"]
        )
    )


def _counters(statistics):
    return (
        statistics.database_scans,
        statistics.candidates_generated,
        statistics.candidates_pruned,
        statistics.exact_evaluations,
    )


# -- the bitwise contract --------------------------------------------------------------
class TestGoldenEquivalence:
    def test_golden_keys_are_the_capture_grid(self):
        assert THRESHOLD_KEYS == sorted(
            harness.config_key(algorithm, config)
            for algorithm in harness.MINER_OPTIONS
            for config in harness.GRID
        )
        assert TOPK_KEYS == sorted(
            harness.config_key(f"topk-{evaluator}", config)
            for evaluator in harness.TOPK_EVALUATORS
            for config in harness.GRID
        )

    @pytest.mark.parametrize("key", THRESHOLD_KEYS)
    def test_threshold_grid_bitwise(self, database, key):
        algorithm, workers, shards = _parse_key(key)
        result = _mine_threshold(database, algorithm, workers, shards)
        assert harness.serialize_records(result) == GOLDENS["threshold_grid"][key]

    @pytest.mark.parametrize("key", TOPK_KEYS)
    def test_topk_grid_bitwise(self, database, key):
        name, workers, shards = _parse_key(key)
        result = _mine_topk(database, name[len("topk-"):], workers, shards)
        assert harness.serialize_records(result) == GOLDENS["topk_grid"][key]

    @pytest.mark.parametrize("key", STREAMING_KEYS)
    def test_streaming_bitwise(self, database, key):
        per_slide = [
            harness.serialize_records(result)
            for result in _stream_results(database, key)
        ]
        assert per_slide == GOLDENS["streaming"][key]


# -- layouts outside the capture grid --------------------------------------------------
#: (label, store-backed, workers, shards): uneven in-process shards, more
#: shards than pool workers over shared-memory segments, a store-mapped
#: database mined serially and in uneven in-process shards, and store-mapped
#: shards shipped to the pool as store descriptors.
LAYOUTS = [
    ("ram-w1s3", False, 1, 3),
    ("ram-w2s3", False, 2, 3),
    ("store-w1s1", True, 1, 1),
    ("store-w1s3", True, 1, 3),
    ("store-w2s3", True, 2, 3),
]

#: the capture-grid config whose goldens the extra layouts replay
REFERENCE_CONFIG = {"workers": 1, "shards": 1}


@pytest.fixture(scope="module")
def store_database(database, tmp_path_factory):
    from repro.db.store import ColumnarStore

    directory = tmp_path_factory.mktemp("golden-store") / "store"
    return ColumnarStore.save(database, str(directory)).database()


class TestLayoutInvariance:
    """Every miner's results are the same bytes under every layout, so any
    layout the grid does not capture must replay the ``w1s1`` golden too.
    The golden file keeps the capture grid, and this class replays its
    ``w1s1`` entries."""

    def _data(self, request, store_backed):
        return request.getfixturevalue("store_database" if store_backed else "database")

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[layout[0] for layout in LAYOUTS])
    @pytest.mark.parametrize("algorithm", sorted(harness.MINER_OPTIONS))
    def test_threshold_miner_layout_invariant(self, request, algorithm, layout):
        _, store_backed, workers, shards = layout
        data = self._data(request, store_backed)
        result = _mine_threshold(data, algorithm, workers, shards)
        key = harness.config_key(algorithm, REFERENCE_CONFIG)
        assert harness.serialize_records(result) == GOLDENS["threshold_grid"][key]

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[layout[0] for layout in LAYOUTS])
    @pytest.mark.parametrize("evaluator", harness.TOPK_EVALUATORS)
    def test_topk_layout_invariant(self, request, evaluator, layout):
        _, store_backed, workers, shards = layout
        data = self._data(request, store_backed)
        result = _mine_topk(data, evaluator, workers, shards)
        key = harness.config_key(f"topk-{evaluator}", REFERENCE_CONFIG)
        assert harness.serialize_records(result) == GOLDENS["topk_grid"][key]


# -- satellite: the maintained-sort-order join ------------------------------------------
class TestAprioriJoinPresorted:
    def _random_level(self, rng, size):
        universe = range(20)
        level = {tuple(sorted(rng.sample(universe, size))) for _ in range(40)}
        return sorted(level)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_presorted_join_output_unchanged(self, size):
        """``presorted=True`` on a sorted level == the sorting join, exactly."""
        from repro.algorithms.common import apriori_join

        rng = random.Random(size)
        level = self._random_level(rng, size)
        shuffled = list(level)
        rng.shuffle(shuffled)
        expected = apriori_join(shuffled)  # the engine's pre-refactor call shape
        assert apriori_join(level, presorted=True) == expected
        assert apriori_join(level) == expected

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_join_of_sorted_level_is_sorted(self, size):
        """The invariant that lets the driver sort once per run: sorted in,
        sorted out — so survivors (which preserve order) re-enter presorted."""
        from repro.algorithms.common import apriori_join

        rng = random.Random(100 + size)
        level = self._random_level(rng, size)
        joined = apriori_join(level, presorted=True)
        assert joined == sorted(joined)
        # ...and the chain holds: any subsequence of the output is a valid
        # presorted input for the next level.
        survivors = joined[::2]
        assert apriori_join(survivors, presorted=True) == apriori_join(survivors)


# -- satellite: uniform statistics accounting -------------------------------------------
#: (database_scans, candidates_generated, candidates_pruned, exact_evaluations)
#: per miner on the golden dataset, workers=1, shards=1 —
#: the uniform accounting of the engine (rules documented on
#: ``MiningStatistics``).  A change here means the accounting contract moved:
#: update the docstring and these pins together, deliberately.
COUNTER_PINS = {
    "uapriori": (4, 125, 61, 0),
    "ufp-growth": (2, 73, 0, 0),
    "uh-mine": (2, 164, 100, 0),
    "dpb": (3, 120, 83, 107),
    "dpnb": (3, 120, 83, 129),
    "dcb": (3, 120, 83, 107),
    "dcnb": (3, 120, 83, 129),
    "pdu-apriori": (3, 120, 83, 0),
    "ndu-apriori": (3, 120, 83, 129),
    "nduh-mine": (2, 122, 85, 0),
    "world-sampling": (4, 120, 83, 129),
}


#: the same four counters for the five top-k evaluators (k=10, workers=1,
#: shards=1).  Every candidate whose score kernel runs is an exact
#: evaluation, so ``normal`` and ``poisson`` count theirs like ``dp``/``dc``.
TOPK_COUNTER_PINS = {
    "esup": (1, 45, 35, 0),
    "dp": (1, 45, 28, 45),
    "dc": (1, 45, 28, 45),
    "normal": (1, 129, 56, 129),
    "poisson": (1, 45, 28, 45),
}

#: per-slide counters of the four streaming miners on the golden stream
STREAMING_COUNTER_PINS = {
    "stream-uapriori": [(0, 125, 45, 0), (0, 103, 52, 0), (0, 121, 62, 0), (0, 121, 73, 0)],
    "stream-dp": [(0, 84, 31, 71), (0, 58, 38, 43), (0, 95, 59, 81), (0, 95, 63, 63)],
    "stream-topk-esup": [(0, 28, 23, 0), (0, 28, 23, 0), (0, 30, 25, 0), (0, 27, 21, 0)],
    "stream-topk-dp": [(0, 28, 19, 24), (0, 28, 20, 20), (0, 30, 21, 29), (0, 34, 23, 32)],
}

_CHAIN_NOTES = ("markov_tested", "markov_pruned", "chernoff_tested", "chernoff_pruned")

#: stream-dp's per-slide bound-chain notes, in ``_CHAIN_NOTES`` order
STREAM_DP_CHAIN_PINS = [(93, 22, 71, 0), (67, 24, 43, 0), (104, 23, 81, 0), (104, 41, 63, 0)]


class TestUniformAccounting:
    @pytest.mark.parametrize("algorithm", sorted(COUNTER_PINS))
    def test_counters_pinned(self, database, algorithm):
        from repro.core.miner import mine
        from repro.core.registry import get_algorithm

        kwargs = dict(harness.MINER_OPTIONS[algorithm], workers=1, shards=1)
        if get_algorithm(algorithm).family == "expected":
            result = mine(database, algorithm, min_esup=harness.MIN_ESUP, **kwargs)
        else:
            result = mine(
                database, algorithm, min_sup=harness.MIN_SUP, pft=harness.PFT, **kwargs
            )
        assert _counters(result.statistics) == COUNTER_PINS[algorithm]

    def test_bounds_only_reduce_exact_evaluations(self, database):
        """The *B/NB* pairs agree on generated/pruned; bounds only cut the
        exact-evaluation bill — the accounting keeps them comparable."""
        for bounded, unbounded in (("dpb", "dpnb"), ("dcb", "dcnb")):
            assert COUNTER_PINS[bounded][:3] == COUNTER_PINS[unbounded][:3]
            assert COUNTER_PINS[bounded][3] <= COUNTER_PINS[unbounded][3]

    @pytest.mark.parametrize("evaluator", sorted(TOPK_COUNTER_PINS))
    def test_topk_counters_pinned(self, database, evaluator):
        result = _mine_topk(database, evaluator, 1, 1)
        assert _counters(result.statistics) == TOPK_COUNTER_PINS[evaluator]

    @pytest.mark.parametrize("key", sorted(STREAMING_COUNTER_PINS))
    def test_streaming_counters_pinned_per_slide(self, database, key):
        assert [
            _counters(result.statistics) for result in _stream_results(database, key)
        ] == STREAMING_COUNTER_PINS[key]

    def test_stream_dp_reports_the_bound_chain(self, database):
        """stream-dp runs the batch miners' bound chain, notes included:
        Chernoff sees exactly Markov's survivors, and its survivors are
        exactly the exact evaluations."""
        per_slide = []
        for result in _stream_results(database, "stream-dp"):
            notes = result.statistics.notes
            per_slide.append(tuple(int(notes[key]) for key in _CHAIN_NOTES))
            assert notes["chernoff_tested"] == (
                notes["markov_tested"] - notes["markov_pruned"]
            )
            assert result.statistics.exact_evaluations == (
                notes["chernoff_tested"] - notes["chernoff_pruned"]
            )
        assert per_slide == STREAM_DP_CHAIN_PINS


# -- the spec itself --------------------------------------------------------------------
class TestMinerSpecValidation:
    def test_rejects_unknown_definition(self):
        from repro.core.search import MinerSpec

        with pytest.raises(ValueError, match="definition"):
            MinerSpec(name="x", definition="fuzzy")

    def test_rejects_unknown_seed_mode(self):
        from repro.core.search import MinerSpec

        with pytest.raises(ValueError, match="seed_mode"):
            MinerSpec(name="x", definition="expected", seed_mode="telepathy")

    def test_specs_are_frozen(self):
        from repro.core.search import MinerSpec

        spec = MinerSpec(name="x", definition="expected")
        with pytest.raises(AttributeError):
            spec.name = "y"
