"""The unified ExecutionPlan: precedence, serialization, scoping.

Pins the contracts of :mod:`repro.plan`:

* the resolution pipeline resolves **every** knob as
  ``explicit > scoped plan > REPRO_PLAN > default`` (the full parametrized
  matrix, one case per knob per adjacent tier pair),
* the pipeline reads only ``REPRO_PLAN`` and ``REPRO_FAULTS`` — the
  retired per-knob variables are ignored,
* ``to_dict``/``from_dict`` round-trip and unknown keys are rejected,
* ``plan_scope`` is contextvar-backed: concurrent threads never observe
  each other's plans, and no tier writes to ``os.environ``,
* ``materialize_plan`` returns a fully specified plan,
* two concurrent *service* requests with different plans never observe
  each other's configuration (the scope-vs-thread bleed regression the
  plan pipeline exists to fix).
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import fields

import pytest

from repro.core.miner import mine
from repro.plan import (
    KNOBS,
    PLAN_ENV,
    ExecutionPlan,
    active_plan,
    ensure_plan,
    materialize_plan,
    parse_plan_spec,
    plan_scope,
    resolve_knob,
)
from repro.service import (
    MiningClient,
    MiningServer,
    decode_records,
    record_keys,
)

from helpers import make_random_database

#: knobs of earlier releases; every tier rejects them as unknown (the cache
#: budgets are now constants of repro.db.columnar, the DP block budget is
#: repro.core.support.DP_BLOCK_BYTES)
RETIRED_KNOBS = {
    "backend": "rows",
    "bitset": "off",
    "fanout": "shm",
    "dense_crossover": "0.25",
    "dp_block_bytes": "1048576",
    "dense_cache_bytes": "64m",
    "bitmap_cache_bytes": "4m",
    "prefix_cache_bytes": "8m",
    "mapped_cache_bytes": "8m",
}

#: the per-knob variables of earlier releases; the pipeline ignores them
RETIRED_ENV = {
    "REPRO_BACKEND": "rows",
    "REPRO_BITSET": "off",
    "REPRO_FANOUT": "pickle",
    "REPRO_WORKERS": "3",
    "REPRO_SHARDS": "2",
    "REPRO_DENSE_CROSSOVER": "0.5",
    "REPRO_CONV_SPAN": "99",
    "REPRO_DP_BLOCK_BYTES": "1048576",
    "REPRO_DENSE_CACHE_BYTES": "2m",
    "REPRO_BITMAP_CACHE_BYTES": "2m",
    "REPRO_PREFIX_CACHE_BYTES": "2m",
    "REPRO_MAPPED_CACHE_BYTES": "2m",
}


@pytest.fixture(autouse=True)
def _clean_plan_env(monkeypatch):
    """Isolate every test from ambient plan variables."""
    for name in list(RETIRED_ENV) + [PLAN_ENV, "REPRO_FAULTS"]:
        monkeypatch.delenv(name, raising=False)


def _default(name):
    """The default tier of ``name`` with nothing set anywhere."""
    if name == "shards":
        return KNOBS["workers"].default
    return KNOBS[name].default


# -- the precedence matrix -------------------------------------------------------------
# Per knob: one (value, parsed) pair per tier, adjacent tiers (and the
# default) always yielding *different* parsed values so each assertion
# below can only pass if the intended tier actually won.  Environment
# values are the raw strings of a REPRO_PLAN token.

MATRIX = {
    "workers": ((5, 5), (4, 4), ("3", 3)),
    "shards": ((6, 6), (5, 5), ("4", 4)),
    "conv_span": ((96, 96), (128, 128), ("192", 192)),
    "faults": (("seed=1", "seed=1"), ("seed=2", "seed=2"), ("seed=3", "seed=3")),
}


class TestPrecedenceMatrix:
    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_explicit_beats_scope_beats_env_beats_default(self, name, monkeypatch):
        assert name in MATRIX, f"knob {name!r} missing from the precedence matrix"
        explicit, scope, env = MATRIX[name]
        monkeypatch.setenv(PLAN_ENV, f"{name}={env[0]}")
        with plan_scope(ExecutionPlan(**{name: scope[0]})):
            assert resolve_knob(name, explicit[0]) == explicit[1]
            assert resolve_knob(name) == scope[1]
        assert resolve_knob(name) == env[1]
        monkeypatch.delenv(PLAN_ENV)
        assert resolve_knob(name) == _default(name)
        assert _default(name) != env[1]

    @pytest.mark.parametrize(
        "name", [name for name, knob in KNOBS.items() if knob.default is not None]
    )
    def test_static_default_tier(self, name):
        assert resolve_knob(name) == KNOBS[name].default

    def test_dynamic_defaults(self):
        # shards follow the resolved worker count
        with plan_scope(ExecutionPlan(workers=3)):
            assert resolve_knob("shards") == 3
        assert resolve_knob("shards", workers=5) == 5

    def test_faults_variable_beats_its_plan_entry(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "faults=seed=1,workers=2")
        monkeypatch.setenv("REPRO_FAULTS", "seed=2")
        assert resolve_knob("faults") == "seed=2"
        assert resolve_knob("workers") == 2
        # An *empty* REPRO_FAULTS counts as unset.
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert resolve_knob("faults") == "seed=1"

    @pytest.mark.parametrize("variable", sorted(RETIRED_ENV))
    def test_retired_per_knob_variable_is_ignored(self, variable, monkeypatch):
        monkeypatch.setenv(variable, RETIRED_ENV[variable])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = materialize_plan()
        assert resolved == ExecutionPlan(**{name: _default(name) for name in KNOBS})

    def test_resolution_never_mutates_environ(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "workers=4")
        before = dict(os.environ)
        with plan_scope(ExecutionPlan(conv_span=64, shards=2)):
            for name in KNOBS:
                resolve_knob(name)
        materialize_plan("workers=2,conv_span=64")
        assert dict(os.environ) == before


# -- plan object: parsing, round-trips, algebra ----------------------------------------


class TestExecutionPlan:
    def test_four_knobs(self):
        assert [field.name for field in fields(ExecutionPlan)] == [
            "workers", "shards", "conv_span", "faults",
        ]
        assert list(KNOBS) == [field.name for field in fields(ExecutionPlan)]
        for name, value in RETIRED_KNOBS.items():
            with pytest.raises(ValueError, match="unknown plan knob"):
                ExecutionPlan.from_dict({name: value})
            with pytest.raises(TypeError):
                ExecutionPlan(**{name: value})

    def test_construction_normalizes_values(self):
        plan = ExecutionPlan(conv_span="64", workers="auto", shards="3")
        assert plan.conv_span == 64
        assert plan.workers >= 1
        assert plan.shards == 3
        assert parse_plan_spec("workers=auto").workers == plan.workers

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"shards": 0},
            {"conv_span": -1},
            {"faults": "seed=1,no-such-site=0.5"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPlan(**kwargs)

    def test_round_trip_through_dict(self):
        plan = ExecutionPlan(
            workers=2, shards=4, conv_span=128, faults="seed=1",
        )
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan
        partial = ExecutionPlan(workers=2)
        assert ExecutionPlan.from_dict(partial.to_dict()) == partial
        assert partial.to_dict() == {"workers": 2}

    @pytest.mark.parametrize(
        "mapping",
        [
            {"workers": 2, "wrokers": 3},
            {"bitset": False},
            {"fanout": "shm"},
            {"dense_crossover": 0.25},
            {"backend": "rows"},
            {"auto": True},
            {"dense_cache_bytes": 1 << 20},
            {"bitmap_cache_bytes": 1 << 20},
            {"prefix_cache_bytes": 1 << 20},
            {"mapped_cache_bytes": 1 << 20},
        ],
    )
    def test_from_dict_rejects_unknown_keys(self, mapping):
        with pytest.raises(ValueError, match="unknown plan knob"):
            ExecutionPlan.from_dict(mapping)

    def test_merged_over_layers_set_fields(self):
        base = ExecutionPlan(workers=2, conv_span=64)
        over = ExecutionPlan(conv_span=128)
        merged = over.merged_over(base)
        assert merged.workers == 2 and merged.conv_span == 128
        assert ExecutionPlan().is_empty()
        assert not base.is_empty()

    @pytest.mark.parametrize(
        ("spec", "expected"),
        [
            ("workers=2,conv_span=64", {"workers": 2, "conv_span": 64}),
            ("faults=seed=1;socket-drop=0.1", {"faults": "seed=1;socket-drop=0.1"}),
            (" workers = 2 , ", {"workers": 2}),
        ],
    )
    def test_parse_plan_spec(self, spec, expected):
        assert parse_plan_spec(spec).to_dict() == expected

    @pytest.mark.parametrize(
        "spec",
        [
            "frobnicate",
            "turbo=on",
            "workers=-1",
            "bitset=off",
            "fanout=shm",
            "dense_crossover=0.3",
            "backend=rows",
            "backend=columnar",
            "dense_cache_bytes=64m",
            "bitmap_cache_bytes=4m",
            "prefix_cache_bytes=8m",
            "mapped_cache_bytes=8m",
        ],
    )
    def test_parse_plan_spec_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_plan_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "backend=rows",
            "workers=2,backend=columnar",
            "dense_cache_bytes=4m",
            "bitmap_cache_bytes=4m",
            "prefix_cache_bytes=8m",
            "workers=2,mapped_cache_bytes=8m",
        ],
    )
    def test_retired_knob_in_repro_plan_is_unknown(self, spec, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, spec)
        with pytest.raises(ValueError, match="unknown plan knob"):
            materialize_plan()

    @pytest.mark.parametrize("spec", ["auto", "auto,workers=2"])
    def test_bare_auto_token_is_rejected(self, spec):
        with pytest.raises(ValueError, match="expected 'knob=value'"):
            parse_plan_spec(spec)

    def test_ensure_plan_spellings(self):
        assert ensure_plan(None) is None
        plan = ExecutionPlan(workers=2)
        assert ensure_plan(plan) is plan
        assert ensure_plan({"workers": 2}) == plan
        assert ensure_plan("workers=2") == plan


# -- scoping: nesting and thread isolation ---------------------------------------------


class TestPlanScope:
    def test_scopes_nest_and_inner_shadows(self):
        with plan_scope(ExecutionPlan(workers=2, conv_span=64)):
            with plan_scope(ExecutionPlan(conv_span=128)):
                assert resolve_knob("workers") == 2  # inherited from outer
                assert resolve_knob("conv_span") == 128  # shadowed by inner
            assert resolve_knob("conv_span") == 64
        assert active_plan() is None

    def test_none_scope_is_noop(self):
        with plan_scope(None):
            assert active_plan() is None

    def test_threads_never_observe_each_others_scope(self):
        barrier = threading.Barrier(2)
        observed = {}

        def worker(label: str, workers: int, pause: float) -> None:
            with plan_scope(ExecutionPlan(workers=workers)):
                barrier.wait(timeout=10.0)
                time.sleep(pause)  # interleave: both scopes live at once
                observed[label] = resolve_knob("workers")

        threads = [
            threading.Thread(target=worker, args=("a", 3, 0.01)),
            threading.Thread(target=worker, args=("b", 7, 0.03)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert observed == {"a": 3, "b": 7}
        assert active_plan() is None  # the main thread saw neither


# -- materialization -------------------------------------------------------------------


class TestMaterialize:
    def test_materialized_plan_is_fully_specified(self):
        plan = materialize_plan()
        assert all(getattr(plan, name) is not None for name in KNOBS)

    def test_explicit_beats_request_beats_env(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "conv_span=99,shards=3")
        plan = materialize_plan("workers=2,shards=2", explicit={"workers": 6})
        assert plan.workers == 6  # explicit
        assert plan.shards == 2  # the request
        assert plan.conv_span == 99  # REPRO_PLAN
        assert plan.faults == KNOBS["faults"].default

    def test_materialized_mine_bitwise_equals_default_mine(self):
        database = make_random_database(
            n_transactions=60, n_items=10, density=0.5, seed=3
        )
        resolved = materialize_plan()
        default = mine(database, algorithm="dcb", min_sup=0.2, pft=0.9)
        explicit = mine(
            database, algorithm="dcb", min_sup=0.2, pft=0.9, plan=resolved.to_dict()
        )
        assert record_keys(default.itemsets) == record_keys(explicit.itemsets)


# -- the service: no scope-vs-thread bleed ---------------------------------------------


def _inline_spec(database) -> dict:
    return {
        "kind": "inline",
        "records": [
            [[item, probability] for item, probability in sorted(t.units.items())]
            for t in database.transactions
        ],
    }


class TestServicePlanIsolation:
    def test_concurrent_requests_with_different_plans_never_bleed(self):
        database = make_random_database(
            n_transactions=40, n_items=6, density=0.5, seed=31
        )
        expected = record_keys(
            mine(database, algorithm="uapriori", min_esup=0.2).itemsets
        )
        plans = [
            {"conv_span": 0, "shards": 1},
            {"conv_span": 1 << 12, "shards": 2},
        ]
        env_before = dict(os.environ)
        barrier = threading.Barrier(len(plans))
        failures = []
        with MiningServer(max_workers=4, max_queue=32) as server:
            server.registry.register("shared", _inline_spec(database))
            host, port = server.address

            def drive(plan: dict) -> None:
                try:
                    with MiningClient(host, port) as client:
                        for _ in range(6):
                            barrier.wait(timeout=30.0)  # force overlap each round
                            reply = client.mine(
                                "shared", algorithm="uapriori", min_esup=0.2,
                                plan=dict(plan), cache=False,
                            )
                            for name, value in plan.items():
                                if reply["plan"][name] != value:
                                    failures.append(
                                        (name, value, reply["plan"][name])
                                    )
                            got = record_keys(decode_records(reply["itemsets"]))
                            if got != expected:
                                failures.append(("result-bleed", plan))
                except Exception as error:  # noqa: BLE001 - collected below
                    barrier.abort()
                    failures.append(("exception", repr(error)))

            threads = [
                threading.Thread(target=drive, args=(plan,)) for plan in plans
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Per-request plans are pure resolution: the process env is untouched.
        assert dict(os.environ) == env_before
