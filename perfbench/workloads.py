"""The benchmark's three workloads: closed loops over repro's public entry points.

Each workload sends one op at a time from one client and calls only
``repro.mine``, the ``repro.datasets`` generators, ``ColumnarStore`` and
``MiningServer``/``MiningClient``, so the same code measures any commit.
The dataset seed and the request-sequence seed are arguments; the program
only sees the inputs they generate.

``t25i15d-uapriori``
    Why: the dense levelwise case, where ``db`` (column resolution,
    occupancy, the prefix cache) and ``search`` (join, prune) do the work.
    Quest T25I15D analogue, 3,200 rows x 679 items, ``uapriori`` at
    ``min_esup=0.02``: 67,230 candidates, 2,607 itemsets, about 0.4 s a
    pass, so a run holds dozens of passes.  The prefix cache fits: only
    passes of 1.6 s or more (``min_esup`` 0.0145 or lower) overflow it,
    and a run holds too few of those to be steady on a shared host.
    Bypasses the exact tails and the service.
``accident-exact``
    Why: ``core/support`` does nearly all the work (DP batch, DC tails,
    bound chain) while ``db`` and ``search`` stay under a few percent.
    Accident analogue at scale 0.01, 3,401 rows x 468 items; one pass
    runs ``dcnb``, ``dcb``, ``dpnb`` and ``dpb`` at ``min_sup=0.1,
    pft=0.9`` (192 candidates, 27 itemsets each).  The prefix cache fits.
``kosarak-service``
    Why: the only workload through the ``service`` layers, the
    memory-mapped store view, the sparse ``searchsorted`` intersection
    and the ``uh-mine`` expander; it writes the result cache as well as
    reads it.  Kosarak analogue at scale 0.003, 2,970 rows x 983 sparse
    items, saved as a ``ColumnarStore`` and registered on an in-process
    ``MiningServer(max_workers=2)``; one client on one connection replays
    a seeded sequence per round: 11 queries, ``uapriori`` at ``min_esup``
    0.003-0.01, ``uh-mine`` at 0.015-0.02 and ``dpnb`` at ``pft`` 0.5-0.9.
    A round takes about 3.5 s, so a run replays it ten times or more.
    Bypasses the DC tails and dense prefix work.

A batch pass builds a fresh database (set-up) and mines it, so every pass
starts with cold view caches as a command-line run does.  A service round
builds the dataset, saves the store, boots the server and registers it
(set-up), then replays the request sequence against the fresh server.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from harness import (
    REFERENCE_DIGITS,
    answer_of,
    compare,
    peak_rss_mb,
    records_of_reply,
    records_of_result,
)

Query = Tuple[str, Dict[str, float]]

EXACT_MINERS = ("dcnb", "dcb", "dpnb", "dpb")

#: name -> (dataset builder(seed, tiny), queries by tiny flag)
BATCH: Dict[str, Tuple[Callable[[int, bool], Any], Dict[bool, List[Query]]]] = {
    "t25i15d-uapriori": (
        lambda seed, tiny: repro.datasets.make_t25i15d(
            n_transactions=300 if tiny else 3200, seed=seed
        ),
        {
            False: [("uapriori", {"min_esup": 0.02})],
            True: [("uapriori", {"min_esup": 0.05})],
        },
    ),
    "accident-exact": (
        lambda seed, tiny: repro.datasets.make_accident(
            scale=0.001 if tiny else 0.01, seed=seed
        ),
        {
            False: [(name, {"min_sup": 0.1, "pft": 0.9}) for name in EXACT_MINERS],
            True: [(name, {"min_sup": 0.2, "pft": 0.9}) for name in EXACT_MINERS],
        },
    ),
}

SERVICE = "kosarak-service"
SERVICE_DATASET = "kosarak"
#: per algorithm: (threshold parameter, grid loosest first, fixed parameters).
#: The exact miners' cache groups fix ``min_sup`` and filter on ``pft``.
SERVICE_GRID: Dict[bool, List[Tuple[str, str, List[float], Dict[str, float]]]] = {
    False: [
        ("uapriori", "min_esup", [0.003, 0.004, 0.005, 0.007, 0.01], {}),
        ("uh-mine", "min_esup", [0.015, 0.02], {}),
        ("dpnb", "pft", [0.5, 0.7, 0.9], {"min_sup": 0.01}),
    ],
    True: [
        ("uapriori", "min_esup", [0.01, 0.02], {}),
        ("uh-mine", "min_esup", [0.01, 0.02], {}),
        ("dpnb", "pft", [0.5, 0.9], {"min_sup": 0.02}),
    ],
}
#: warm requests per (algorithm, threshold) pair and round; with one cold
#: request per pair, about 14% of the sequence is cold
WARM_REPEATS = {False: 6, True: 2}
SERVICE_WORKERS = 2
SETUPS_PER_ROUND = 2


def query_key(algorithm: str, params: Dict[str, float]) -> str:
    return algorithm + " " + " ".join(f"{name}={params[name]}" for name in sorted(params))


def service_queries(tiny: bool) -> List[Query]:
    return [
        (algorithm, dict(fixed, **{parameter: value}))
        for algorithm, parameter, grid, fixed in SERVICE_GRID[tiny]
        for value in grid
    ]


def service_sequence(seq_seed: int, tiny: bool) -> List[Tuple[int, bool]]:
    """One round's requests as (query index, cold), in a seeded order.

    Every query appears once with ``cache: false`` and ``WARM_REPEATS``
    times warm.  The first warm request of each algorithm asks its
    loosest threshold, so each round has exactly one miss per cache group
    and every other warm request is a stricter-threshold filter or an
    exact hit; the seed only changes the order.
    """
    queries = service_queries(tiny)
    sequence = [(index, True) for index in range(len(queries))]
    sequence += [(index, False) for index in range(len(queries))] * WARM_REPEATS[tiny]
    random.Random(seq_seed).shuffle(sequence)
    loosest: Dict[str, int] = {}
    for index, (algorithm, _) in enumerate(queries):
        loosest.setdefault(algorithm, index)  # grids list the loosest first
    for algorithm, loose_index in loosest.items():
        warm = [
            position
            for position, (index, cold) in enumerate(sequence)
            if not cold and queries[index][0] == algorithm
        ]
        first = warm[0]
        swap = next(position for position in warm if sequence[position][0] == loose_index)
        sequence[first], sequence[swap] = sequence[swap], sequence[first]
    return sequence


@dataclass
class Context:
    workload: str
    data_seed: int
    seq_seed: int
    seconds: float
    tiny: bool
    #: reference answers by query key; ``None`` records answers instead
    references: Optional[Dict[str, Any]]
    work_dir: str
    tracer: Any = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: sample lists by name (seconds)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    sizes: Dict[str, Any] = field(default_factory=dict)
    #: recorded answers by query key (record mode)
    answers: Dict[str, Any] = field(default_factory=dict)
    #: requests per round (service) for the tail percentile
    warm_per_round: int = 0
    #: op latencies by sample name, then by query index
    per_query: Dict[str, Dict[int, List[float]]] = field(default_factory=dict)
    #: peak resident set (MiB) at the end of the first pass or round
    first_op_rss_mb: float = math.nan
    #: untraced service latencies by (position in the round's sequence, cold)
    per_position: Dict[Tuple[int, bool], List[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def problem(self, message: str) -> None:
        self.problems.append(message)


def _scope(tracer, op: Any, phase: str):
    return tracer.scope(op, phase) if tracer is not None else contextlib.nullcontext()


def _check(ctx: Context, outcome: Outcome, key: str, records, where: str) -> bool:
    if ctx.references is None:
        outcome.answers.setdefault(key, answer_of(records, REFERENCE_DIGITS))
        return True
    expected = ctx.references.get(key)
    problem = "no reference recorded" if expected is None else compare(expected, records)
    if problem is not None:
        outcome.problem(f"{where} {key}: {problem}")
        return False
    return True


def _stop(ctx: Context, deadline: float, durations: List[float], done: int, minimum: int) -> bool:
    if ctx.references is None:
        return True
    if done < minimum:
        return False
    return time.perf_counter() + statistics.median(durations) > deadline


# -- batch workloads ---------------------------------------------------------------------
def run_batch(ctx: Context) -> Outcome:
    build, queries_by_size = BATCH[ctx.workload]
    queries = queries_by_size[ctx.tiny]
    outcome = Outcome()
    deadline = time.perf_counter() + ctx.seconds
    durations: List[float] = []
    consecutive_errors = 0
    op = 0
    while True:
        op += 1
        # The traced run alternates untraced and traced passes so that the
        # tracing overhead is measured within one process.
        tracer = ctx.tracer if ctx.tracer is not None and op % 2 == 0 else None
        started = time.perf_counter()
        outcome.attempted += 1
        try:
            setup, times, results, database = _batch_pass(build, queries, ctx, op, tracer)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            outcome.failed += 1
            outcome.problem(f"pass {op} raised:\n{traceback.format_exc()}")
            consecutive_errors += 1
            if consecutive_errors >= 3:
                break
        else:
            consecutive_errors = 0
            ok = True
            for (algorithm, params), result in zip(queries, results):
                key = query_key(algorithm, params)
                ok &= _check(ctx, outcome, key, records_of_result(result), f"pass {op}")
            if not ok:
                outcome.failed += 1
            prefix = "traced_" if tracer is not None else ""
            outcome.add(prefix + "setup_s", setup)
            outcome.add(prefix + "mine_s", sum(times))
            for index, seconds in enumerate(times):
                outcome.per_query.setdefault(prefix + "mine_s", {}).setdefault(index, []).append(seconds)
            # a run from nothing, as a command-line user waits for it
            outcome.add(prefix + "cold_s", setup + sum(times))
            if not outcome.sizes:
                outcome.sizes = _batch_sizes(database, queries, results)
            del results, database
        durations.append(time.perf_counter() - started)
        if op == 1:
            outcome.first_op_rss_mb = peak_rss_mb()
        if _stop(ctx, deadline, durations, op, 2 if ctx.tracer is not None else 1):
            break
    return outcome


def _batch_pass(build, queries: List[Query], ctx: Context, op: int, tracer):
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        with _scope(tracer, f"setup-{op}", "setup"):
            started = time.perf_counter()
            database = build(ctx.data_seed, ctx.tiny)
            database.columnar().item_statistics()
            setup = time.perf_counter() - started
        gc.collect()
        results, times = [], []
        with _scope(tracer, op, "pass"):
            for algorithm, params in queries:
                started = time.perf_counter()
                results.append(repro.mine(database, algorithm=algorithm, **params))
                times.append(time.perf_counter() - started)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup, times, results, database


def _batch_sizes(database, queries: List[Query], results) -> Dict[str, Any]:
    view = database.columnar()
    cache = getattr(view, "_prefix_cache", None)
    evictions = getattr(cache, "evictions", None)
    return {
        "rows": len(database),
        "items": len(database.items()),
        "nnz": view.nnz(),
        "queries": [query_key(algorithm, params) for algorithm, params in queries],
        "candidates": [result.statistics.candidates_generated for result in results],
        "itemsets": [len(result) for result in results],
        "prefix_cache_budget_bytes": getattr(cache, "budget_bytes", None),
        "prefix_cache_evictions": evictions,
        "prefix_cache": None if evictions is None else ("overflows" if evictions else "fits"),
    }


# -- service workload --------------------------------------------------------------------
def run_service(ctx: Context) -> Outcome:
    queries = service_queries(ctx.tiny)
    if ctx.references is None:
        # Recording: answer every query once with cache:false.
        sequence = [(index, True) for index in range(len(queries))]
    else:
        sequence = service_sequence(ctx.seq_seed, ctx.tiny)
    outcome = Outcome(warm_per_round=sum(1 for _, cold in sequence if not cold))
    deadline = time.perf_counter() + ctx.seconds
    durations: List[float] = []
    rounds = 0
    while True:
        rounds += 1
        started = time.perf_counter()
        try:
            _service_round(ctx, queries, sequence, rounds, outcome)
        except Exception:  # noqa: BLE001 - a failed set-up fails the round
            outcome.attempted += 1
            outcome.failed += 1
            outcome.problem(f"round {rounds} raised:\n{traceback.format_exc()}")
            break
        durations.append(time.perf_counter() - started)
        if rounds == 1:
            outcome.first_op_rss_mb = peak_rss_mb()
        if _stop(ctx, deadline, durations, rounds, 2 if ctx.tracer is not None else 1):
            break
    return outcome


def _service_round(ctx: Context, queries: List[Query], sequence, round_index: int, outcome: Outcome) -> None:
    from repro.db.store import ColumnarStore
    from repro.service import MiningClient, MiningServer

    # The traced run alternates untraced and traced rounds; every round
    # replays the same sequence, so the overhead compares like with like.
    tracer = ctx.tracer if ctx.tracer is not None and round_index % 2 == 0 else None
    server = client = None
    directories = []

    def boot(attempt: int):
        """Generate the dataset, save the store, boot the server, register it."""
        directory = os.path.join(ctx.work_dir, f"store-{round_index}-{attempt}")
        directories.append(directory)
        gc.collect()
        with _scope(tracer, f"setup-{round_index}-{attempt}", "setup"):
            started = time.perf_counter()
            database = repro.datasets.make_kosarak(
                scale=0.001 if ctx.tiny else 0.003, seed=ctx.data_seed
            )
            ColumnarStore.save(database, directory)
            booted = MiningServer(max_workers=SERVICE_WORKERS).start()
            try:
                connected = MiningClient(*booted.address, timeout_seconds=120.0, retries=0)
                connected.register(SERVICE_DATASET, kind="store", directory=directory)
            except BaseException:
                booted.close()
                raise
            setup = time.perf_counter() - started
        outcome.add("traced_setup_s" if tracer is not None else "setup_s", setup)
        return booted, connected, database

    try:
        if tracer is not None:
            tracer.install()
        # Set-up is short next to a round, so it is repeated to give
        # setup_s several samples; only the last server serves the round.
        for attempt in range(1, SETUPS_PER_ROUND):
            spare_server, spare_client, _ = boot(attempt)
            spare_client.close()
            spare_server.close()
        server, client, database = boot(SETUPS_PER_ROUND)
        if not outcome.sizes:
            outcome.sizes = {
                "rows": len(database),
                "items": len(database.items()),
                "nnz": database.columnar().nnz(),
                "queries": [query_key(algorithm, params) for algorithm, params in queries],
                "requests_per_round": len(sequence),
                "cold_per_round": sum(1 for _, cold in sequence if cold),
                "service_workers": SERVICE_WORKERS,
            }
        del database

        cold_answers: Dict[int, Any] = {}
        warm_answers: Dict[int, List[Tuple[int, Any]]] = {}
        failed = set()
        prefix = "traced_" if tracer is not None else ""
        busy = 0.0
        for position, (index, cold) in enumerate(sequence):
            algorithm, params = queries[index]
            key = query_key(algorithm, params)
            op = (round_index, position)
            outcome.attempted += 1
            gc.collect()
            try:
                with _scope(tracer, op, "request"):
                    started = time.perf_counter()
                    reply = client.mine(
                        SERVICE_DATASET, algorithm=algorithm, cache=not cold, **params
                    )
                    latency = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 - structured errors fail the op
                failed.add(position)
                outcome.problem(f"round {round_index} request {position} {key}: {error!r}")
                continue
            name = prefix + ("cold_s" if cold else "warm_s")
            outcome.add(name, latency)
            outcome.per_query.setdefault(name, {}).setdefault(index, []).append(latency)
            if tracer is None:
                outcome.per_position.setdefault((position, cold), []).append(latency)
            busy += latency
            if tracer is not None and not cold:
                tracer.count("service.cache_asked", 1, op=op)
                tracer.count("service.cache_served", reply.get("cache") in ("hit", "filter"), op=op)
            # A cold answer is checked against the reference here; a warm one
            # is checked against the cold answer below, so against it too.
            where = f"round {round_index} request {position}"
            if not cold:
                warm_answers.setdefault(index, []).append((position, reply["itemsets"]))
            elif _check(ctx, outcome, key, records_of_reply(reply), where):
                cold_answers[index] = reply["itemsets"]
            else:
                failed.add(position)

        if busy:
            outcome.add(prefix + "round_rps", (len(sequence) - len(failed)) / busy)
        # Outside the timed sequence: every warm answer must be bitwise
        # identical to the same round's cache:false answer to that query.
        # A cold answer that failed its own check fails all of them.
        for index, answers in warm_answers.items():
            for position, itemsets in answers:
                if itemsets != cold_answers.get(index):
                    failed.add(position)
                    outcome.problem(
                        f"round {round_index} request {position} "
                        f"{query_key(*queries[index])}: warm answer differs from "
                        "the cache:false answer"
                    )
        outcome.failed += len(failed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if client is not None:
            client.close()
        if server is not None:
            server.close()
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)


def run(ctx: Context) -> Outcome:
    return run_service(ctx) if ctx.workload == SERVICE else run_batch(ctx)


WORKLOADS = tuple(BATCH) + (SERVICE,)


def warm_up(work_dir: str) -> None:
    """Untimed ops on tiny inputs, so lazy imports and first calls are paid here."""
    from repro.db.store import ColumnarStore
    from repro.service import MiningClient, MiningServer

    database = repro.datasets.make_accident(scale=0.0005, seed=1)
    database.columnar().item_statistics()
    for algorithm in ("uapriori", "uh-mine"):
        repro.mine(database, algorithm=algorithm, min_esup=0.3)
    for algorithm in EXACT_MINERS:
        repro.mine(database, algorithm=algorithm, min_sup=0.3, pft=0.9)
    directory = os.path.join(work_dir, "warm-up")
    ColumnarStore.save(database, directory)
    try:
        with MiningServer(max_workers=SERVICE_WORKERS) as server:
            with MiningClient(*server.address, timeout_seconds=60.0, retries=0) as client:
                client.register("warm-up", kind="store", directory=directory)
                client.mine("warm-up", algorithm="uapriori", min_esup=0.3)
                client.mine("warm-up", algorithm="uapriori", min_esup=0.4)
                client.mine("warm-up", algorithm="dpnb", min_sup=0.3, pft=0.9, cache=False)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
