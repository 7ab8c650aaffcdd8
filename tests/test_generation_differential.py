"""Array data generation against the frozen scalar copies in ``reference``.

Generated databases are built as arrays: the generators write a row CSR,
every probability model answers all units with one draw call,
:meth:`UncertainDatabase.from_rows` adopts the CSR and the columnar view
comes from one stable argsort.  Each piece must reproduce the scalar code
it replaced bit for bit — the same rows in the same per-row item order,
the same probability bytes, the same column bytes and the same column
insertion order — and a generated database must not build transaction
objects until the row API asks for them.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from reference import (
    ReferenceDenseSparseGenerator,
    ReferenceQuestGenerator,
    reference_attach_probabilities,
    reference_columns,
)
from repro.datasets import (
    ConstantProbabilityModel,
    DenseSparseGenerator,
    GaussianProbabilityModel,
    ProbabilityModel,
    QuestGenerator,
    UniformProbabilityModel,
    ZipfProbabilityModel,
    attach_probabilities,
    make_accident,
)
from repro.db import UncertainDatabase

SEEDS = (0, 11, 29, 1234)


class CoordinateModel(ProbabilityModel):
    """Probabilities that depend on the unit's coordinates, not on a draw."""

    def sample(self) -> float:  # pragma: no cover - never asked
        raise AssertionError("a coordinate model is asked through __call__")

    def __call__(self, tid: int, item: int) -> float:
        return ((tid * 31 + item * 7) % 10) / 9.0


class SquaredGaussian(GaussianProbabilityModel):
    """A Gaussian subclass that changes the per-draw semantics."""

    def sample(self) -> float:
        return super().sample() ** 2


#: name -> model factory(seed); each call gives a fresh model
MODELS = {
    "gaussian": lambda seed: GaussianProbabilityModel(0.5, 0.5, seed=seed),
    "uniform": lambda seed: UniformProbabilityModel(0.1, 0.9, seed=seed),
    "zipf": lambda seed: ZipfProbabilityModel(skew=1.5, seed=seed),
    "constant": lambda seed: ConstantProbabilityModel(0.7),
    "coordinate": lambda seed: CoordinateModel(seed=seed),
    "squared-gaussian": lambda seed: SquaredGaussian(0.6, 0.2, seed=seed),
}

#: name -> (production factory(seed), frozen factory(seed), rows)
GENERATORS = {
    "quest": (
        lambda seed: QuestGenerator(
            n_items=120, avg_transaction_length=9, avg_pattern_length=5, n_patterns=30, seed=seed
        ),
        lambda seed: ReferenceQuestGenerator(
            n_items=120, avg_transaction_length=9, avg_pattern_length=5, n_patterns=30, seed=seed
        ),
        150,
    ),
    "dense-sparse": (
        lambda seed: DenseSparseGenerator(
            n_items=90, avg_transaction_length=6, popularity_decay=1.1, seed=seed
        ),
        lambda seed: ReferenceDenseSparseGenerator(
            n_items=90, avg_transaction_length=6, popularity_decay=1.1, seed=seed
        ),
        # more rows than one draw block holds, so blocks are stitched
        1700,
    ),
}


def assert_same_database(database: UncertainDatabase, reference: UncertainDatabase) -> None:
    """Rows, per-row item order, probability bytes, columns and their order."""
    assert len(database) == len(reference)
    assert database.name == reference.name
    columns = database.columnar()._columns
    expected_columns = reference_columns(reference)
    assert list(columns) == list(expected_columns)
    for item, (rows, probs) in expected_columns.items():
        got_rows, got_probs = columns[item]
        assert got_rows.tobytes() == rows.tobytes()
        assert got_probs.tobytes() == probs.tobytes()
        assert not got_rows.flags.writeable and not got_probs.flags.writeable
    assert database.items() == sorted(expected_columns)
    for got, expected in zip(database, reference):
        assert got.tid == expected.tid
        assert list(got.units) == list(expected.units)
        values = np.array(list(got.units.values()), dtype=np.float64)
        expected_values = np.array(list(expected.units.values()), dtype=np.float64)
        assert values.tobytes() == expected_values.tobytes()


class TestGeneratorsMatchScalarCopies:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_generate(self, generator, model, seed):
        make, make_reference, rows = GENERATORS[generator]
        database = make(seed).generate(rows, MODELS[model](seed + 1), name="g")
        item_lists = make_reference(seed).generate_item_lists(rows)
        reference = reference_attach_probabilities(item_lists, MODELS[model](seed + 1), name="g")
        assert_same_database(database, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_item_lists(self, generator, seed):
        make, make_reference, rows = GENERATORS[generator]
        production = make(seed)
        frozen = make_reference(seed)
        # two calls: the generator's stream continues across calls
        for count in (rows, 7):
            assert production.generate_item_lists(count) == frozen.generate_item_lists(count)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quest_patterns(self, seed):
        production = GENERATORS["quest"][0](seed)
        frozen = GENERATORS["quest"][1](seed)
        assert production._patterns == frozen._patterns
        assert (
            production._pattern_probabilities.tobytes()
            == frozen._pattern_probabilities.tobytes()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_attach_probabilities(self, model, seed):
        rng = np.random.default_rng(seed)
        item_lists = [
            rng.choice(40, size=rng.integers(0, 12), replace=False).tolist() for _ in range(80)
        ]
        database = attach_probabilities(item_lists, MODELS[model](seed), name="a")
        reference = reference_attach_probabilities(item_lists, MODELS[model](seed), name="a")
        assert_same_database(database, reference)

    def test_paper_benchmark_matches(self):
        """A full-shape paper benchmark (Accident, Gaussian(0.5, 0.5))."""
        assert_same_database(make_accident(scale=0.002, seed=11), _frozen_accident(0.002))


def _frozen_accident(scale: float) -> UncertainDatabase:
    """``make_accident(scale, seed=11)`` through the frozen scalar copies."""
    spec = repro.datasets.benchmark.BENCHMARKS["accident"]
    rows, n_items = repro.datasets.benchmark._scaled_counts(spec, scale)
    frozen = ReferenceDenseSparseGenerator(
        n_items=n_items,
        avg_transaction_length=spec.avg_transaction_length,
        popularity_decay=0.6,
        max_inclusion=0.95,
        seed=11,
    )
    model = GaussianProbabilityModel(mean=0.5, variance=0.5, seed=12)
    return reference_attach_probabilities(
        frozen.generate_item_lists(rows), model, name=f"accident-{rows}"
    )


def _same_as_reference(item_lists, make_model):
    database = attach_probabilities(item_lists, make_model(), name="e")
    reference = reference_attach_probabilities(item_lists, make_model(), name="e")
    assert_same_database(database, reference)
    return database, reference


class TestEdgeCases:
    def test_gaussian_clips_at_minimum_and_one(self):
        item_lists = [list(range(30))] * 40
        database, reference = _same_as_reference(
            item_lists, lambda: GaussianProbabilityModel(0.5, 4.0, seed=3, minimum=0.01)
        )
        values = [p for t in reference for p in t.units.values()]
        assert 0.01 in values and 1.0 in values

    def test_zipf_zero_level_units_are_dropped(self):
        item_lists = [list(range(20))] * 50
        database, reference = _same_as_reference(
            item_lists, lambda: ZipfProbabilityModel(skew=2.0, seed=5)
        )
        assert database.columnar().nnz() < 20 * 50
        assert all(p > 0.0 for t in database for p in t.units.values())

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_constant_extremes(self, probability):
        item_lists = [[3, 1, 2], [], [5]]
        database, _ = _same_as_reference(
            item_lists, lambda: ConstantProbabilityModel(probability)
        )
        expected_units = 0 if probability == 0.0 else 4
        assert database.columnar().nnz() == expected_units
        assert len(database) == 3

    def test_empty_input(self):
        database, _ = _same_as_reference([], lambda: UniformProbabilityModel(seed=1))
        assert len(database) == 0 and database.items() == []
        assert database.transactions == ()

    def test_empty_rows(self):
        database, _ = _same_as_reference(
            [[], [4, 2], [], [], [2]], lambda: UniformProbabilityModel(seed=2)
        )
        assert [len(t) for t in database] == [0, 2, 0, 0, 1]

    def test_duplicate_item_keeps_first_position_and_last_draw(self):
        database, _ = _same_as_reference(
            [[3, 1, 3, 2], [7, 7]], lambda: UniformProbabilityModel(seed=4)
        )
        assert list(database[0].units) == [3, 1, 2]

    def test_duplicate_whose_last_draw_is_zero_is_dropped(self):
        database = UncertainDatabase.from_rows([0, 3], [5, 6, 5], [0.5, 0.4, 0.0])
        assert database[0].units == {6: 0.4}
        assert list(database.columnar()._columns) == [6]

    def test_items_too_wide_to_key_take_the_dict_pass(self):
        wide = 1 << 62
        database = UncertainDatabase.from_rows(
            [0, 3, 4], [wide, 5, wide, 7], [0.5, 0.4, 0.3, 0.2]
        )
        assert database.row_csr()[0].tolist() == [0, 2, 3]
        assert database[0].units == {wide: 0.3, 5: 0.4}
        assert database.items() == [5, 7, wide]

    def test_coordinate_model_is_asked_per_unit(self):
        database, _ = _same_as_reference(
            [[0, 1, 2], [3, 4]], lambda: CoordinateModel(seed=0)
        )
        assert database[1].units == {3: CoordinateModel()(1, 3), 4: CoordinateModel()(1, 4)}

    def test_gaussian_subclass_overriding_sample_is_asked_per_unit(self):
        _same_as_reference([list(range(10))] * 10, lambda: SquaredGaussian(0.6, 0.2, seed=9))
        assert not SquaredGaussian()._draws_in_one_call()
        assert GaussianProbabilityModel()._draws_in_one_call()


class TestFromRowsValidation:
    """``from_rows`` raises the errors ``UncertainTransaction`` raises."""

    @pytest.mark.parametrize(
        "items,probabilities,message",
        [
            ([1, -2], [0.5, 0.5], "item identifiers must be non-negative, got -2"),
            ([1, 2], [0.5, 1.5], r"probability for item 2 must lie in \[0, 1\], got 1.5"),
            ([1, 2], [-0.1, 0.5], r"probability for item 1 must lie in \[0, 1\], got -0.1"),
            ([1, 2], [0.5, float("nan")], "probability for item 2"),
        ],
    )
    def test_invalid_units(self, items, probabilities, message):
        with pytest.raises(ValueError, match=message):
            UncertainDatabase.from_rows([0, 2], items, probabilities)
        with pytest.raises(ValueError, match=message):
            UncertainDatabase.from_records([dict(zip(items, probabilities))])

    def test_model_returning_out_of_range_probability(self):
        class Broken(ProbabilityModel):
            def sample(self) -> float:
                return 1.25

        for attach in (attach_probabilities, reference_attach_probabilities):
            with pytest.raises(ValueError, match="got 1.25"):
                attach([[1]], Broken())

    @pytest.mark.parametrize(
        "offsets,items,probabilities",
        [
            ([], [], []),
            ([1, 2], [1], [0.5]),
            ([0, 2, 1], [1, 2], [0.5, 0.5]),
            ([0, 3], [1, 2], [0.5, 0.5]),
            ([0, 2], [1, 2], [0.5]),
        ],
    )
    def test_malformed_csr(self, offsets, items, probabilities):
        with pytest.raises(ValueError, match="row CSR"):
            UncertainDatabase.from_rows(offsets, items, probabilities)

    def test_adopted_arrays_are_copies_and_read_only(self):
        items = np.array([4, 1])
        database = UncertainDatabase.from_rows([0, 2], items, [0.5, 0.25])
        items[0] = 9
        offsets, stored, probabilities = database.row_csr()
        assert stored.tolist() == [4, 1]
        assert not (offsets.flags.writeable or stored.flags.writeable)
        assert not probabilities.flags.writeable


#: the mines that must run without transaction objects
LAZY_MINES = [
    ("uapriori", {"min_esup": 0.1}),
    ("uh-mine", {"min_esup": 0.1}),
    ("dpnb", {"min_sup": 0.2, "pft": 0.9}),
    ("dpb", {"min_sup": 0.2, "pft": 0.9}),
    ("dcnb", {"min_sup": 0.2, "pft": 0.9}),
    ("dcb", {"min_sup": 0.2, "pft": 0.9}),
]

#: row-API calls, each of which builds the transactions on first use
ROW_API = {
    "iter": lambda db: next(iter(db)),
    "getitem": lambda db: db[0],
    "transactions": lambda db: db.transactions,
    "stats": lambda db: db.stats(),
    "restricted_to": lambda db: db.restricted_to([0, 1]),
    "head": lambda db: db.head(3),
    "split": lambda db: db.split(),
}


class TestRowsOnDemand:
    def test_setup_and_mining_leave_rows_unbuilt(self):
        database = make_accident(scale=0.001, seed=11)
        assert len(database) == 340
        database.items()
        database.columnar().item_statistics()
        for algorithm, params in LAZY_MINES:
            repro.mine(database, algorithm=algorithm, **params)
        assert database._rows is None

    @pytest.mark.parametrize("call", sorted(ROW_API))
    def test_first_row_call_builds_the_frozen_rows(self, call):
        database = make_accident(scale=0.001, seed=11)
        database.columnar()
        assert database._rows is None
        ROW_API[call](database)
        assert database._rows is not None
        assert_same_database(database, _frozen_accident(0.001))

    def test_store_database_builds_rows_from_its_columns(self, tmp_path):
        from repro.db.store import ColumnarStore

        database = make_accident(scale=0.001, seed=11)
        served = ColumnarStore.save(database, str(tmp_path / "store")).database()
        assert len(served) == len(database) and served._rows is None
        assert served.items() == database.items()
        assert served._rows is None
        for got, expected in zip(served, database):
            assert list(got.units) == sorted(expected.units)
            assert got.units == expected.units
