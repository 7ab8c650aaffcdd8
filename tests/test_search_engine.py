"""Golden-equivalence suite: the MinerSpec engine is held to a bitwise contract.

``tests/goldens/search_engine_goldens.json`` was captured at the last
pre-refactor commit by ``tools/capture_search_goldens.py``: every registered
miner over the full equivalence grid (backend x (workers, shards)),
the five top-k evaluators over the same grid, and the streaming miners'
per-slide record series — all serialized with ``repr`` floats, so equality
of the serialized form is bitwise equality of the mining results.

This module replays the exact same grid through the refactored
:class:`~repro.core.search.LevelwiseSearch` engine and asserts byte
equality.  It also replays the columnar ``w1s1`` goldens under layouts the
grid does not capture (uneven shards, more shards than workers, store-mapped
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
    algorithm, backend, ws, _ = key.split("|")
    workers, shards = ws[1:].split("s")
    return algorithm, backend, int(workers), int(shards)


@pytest.fixture(scope="module")
def database():
    return make_random_database(**GOLDENS["dataset"])


def _mine_threshold(database, algorithm, backend, workers, shards):
    from repro.core.miner import mine
    from repro.core.registry import get_algorithm

    kwargs = dict(
        harness.MINER_OPTIONS[algorithm],
        backend=backend,
        workers=workers,
        shards=shards,
    )
    if get_algorithm(algorithm).family == "expected":
        return mine(database, algorithm, min_esup=harness.MIN_ESUP, **kwargs)
    return mine(database, algorithm, min_sup=harness.MIN_SUP, pft=harness.PFT, **kwargs)


def _mine_topk(database, evaluator, backend, workers, shards):
    from repro.algorithms.topk import TopKMiner

    miner = TopKMiner(
        evaluator=evaluator,
        backend=backend,
        workers=workers,
        shards=shards,
    )
    min_sup = None if evaluator == "esup" else harness.MIN_SUP
    return miner.mine(database, GOLDENS["topk_k"], min_sup=min_sup).itemsets


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
        algorithm, backend, workers, shards = _parse_key(key)
        result = _mine_threshold(database, algorithm, backend, workers, shards)
        assert harness.serialize_records(result) == GOLDENS["threshold_grid"][key]

    @pytest.mark.parametrize("key", TOPK_KEYS)
    def test_topk_grid_bitwise(self, database, key):
        name, backend, workers, shards = _parse_key(key)
        result = _mine_topk(database, name[len("topk-"):], backend, workers, shards)
        assert harness.serialize_records(result) == GOLDENS["topk_grid"][key]

    @pytest.mark.parametrize("key", STREAMING_KEYS)
    def test_streaming_bitwise(self, database, key):
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
        per_slide = [
            harness.serialize_records(result)
            for result in miners[key]().results(
                stream, stream_config["step"], max_slides=stream_config["slides"]
            )
        ]
        assert per_slide == GOLDENS["streaming"][key]


# -- layouts outside the capture grid --------------------------------------------------
#: (label, store-backed, workers, shards): uneven in-process shards, more
#: shards than pool workers over shared-memory segments, and store-mapped
#: shards shipped to the pool as store descriptors.
LAYOUTS = [
    ("ram-w1s3", False, 1, 3),
    ("ram-w2s3", False, 2, 3),
    ("store-w2s3", True, 2, 3),
]

#: the capture-grid config whose goldens the extra layouts replay
REFERENCE_CONFIG = {"backend": "columnar", "workers": 1, "shards": 1}


@pytest.fixture(scope="module")
def store_database(database, tmp_path_factory):
    from repro.db.store import ColumnarStore

    directory = tmp_path_factory.mktemp("golden-store") / "store"
    return ColumnarStore.save(database, str(directory)).database()


class TestLayoutInvariance:
    """Every golden of a (miner, backend) pair is the same bytes across the
    grid's layouts, so any other layout must replay the columnar ``w1s1``
    golden too.  These layouts are not captured: the golden file keeps the
    capture grid, and this class replays its ``w1s1`` entries."""

    def test_captured_layouts_agree(self):
        assert REFERENCE_CONFIG in harness.GRID
        for section in ("threshold_grid", "topk_grid"):
            for key, records in GOLDENS[section].items():
                name, backend, _, _ = _parse_key(key)
                single = dict(REFERENCE_CONFIG, backend=backend)
                reference = harness.config_key(name, single)
                assert records == GOLDENS[section][reference], key

    def _data(self, request, store_backed):
        return request.getfixturevalue("store_database" if store_backed else "database")

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[layout[0] for layout in LAYOUTS])
    @pytest.mark.parametrize("algorithm", sorted(harness.MINER_OPTIONS))
    def test_threshold_miner_layout_invariant(self, request, algorithm, layout):
        _, store_backed, workers, shards = layout
        data = self._data(request, store_backed)
        result = _mine_threshold(data, algorithm, "columnar", workers, shards)
        key = harness.config_key(algorithm, REFERENCE_CONFIG)
        assert harness.serialize_records(result) == GOLDENS["threshold_grid"][key]

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[layout[0] for layout in LAYOUTS])
    @pytest.mark.parametrize("evaluator", harness.TOPK_EVALUATORS)
    def test_topk_layout_invariant(self, request, evaluator, layout):
        _, store_backed, workers, shards = layout
        data = self._data(request, store_backed)
        result = _mine_topk(data, evaluator, "columnar", workers, shards)
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
#: per miner on the golden dataset, columnar backend, workers=1, shards=1 —
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
    "exhaustive-expected": (6, 381, 308, 0),
    "exhaustive-prob": (5, 255, 209, 255),
}


class TestUniformAccounting:
    @pytest.mark.parametrize("algorithm", sorted(COUNTER_PINS))
    def test_counters_pinned(self, database, algorithm):
        from repro.core.miner import mine
        from repro.core.registry import get_algorithm

        kwargs = dict(
            harness.MINER_OPTIONS[algorithm], backend="columnar", workers=1, shards=1
        )
        if get_algorithm(algorithm).family == "expected":
            result = mine(database, algorithm, min_esup=harness.MIN_ESUP, **kwargs)
        else:
            result = mine(
                database, algorithm, min_sup=harness.MIN_SUP, pft=harness.PFT, **kwargs
            )
        statistics = result.statistics
        assert (
            statistics.database_scans,
            statistics.candidates_generated,
            statistics.candidates_pruned,
            statistics.exact_evaluations,
        ) == COUNTER_PINS[algorithm]

    def test_bounds_only_reduce_exact_evaluations(self, database):
        """The *B/NB* pairs agree on generated/pruned; bounds only cut the
        exact-evaluation bill — the accounting keeps them comparable."""
        for bounded, unbounded in (("dpb", "dpnb"), ("dcb", "dcnb")):
            assert COUNTER_PINS[bounded][:3] == COUNTER_PINS[unbounded][:3]
            assert COUNTER_PINS[bounded][3] <= COUNTER_PINS[unbounded][3]


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

    def test_exhaustive_generator_requires_unseeded_search(self):
        from repro.core.search import MinerSpec

        with pytest.raises(ValueError, match="exhaustive"):
            MinerSpec(
                name="x",
                definition="expected",
                level_generator="exhaustive",
                seed_mode="statistics",
            )

    def test_specs_are_frozen(self):
        from repro.core.search import MinerSpec

        spec = MinerSpec(name="x", definition="expected")
        with pytest.raises(AttributeError):
            spec.name = "y"
