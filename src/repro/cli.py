"""Command line interface: ``repro-mine``.

The subcommands cover the common workflows:

``repro-mine list``
    Show the registered algorithms and datasets.

``repro-mine mine``
    Mine a benchmark dataset (or an ``item:probability`` text file) with one
    algorithm and print the frequent itemsets.

``repro-mine mine-topk``
    Mine the k highest-ranked itemsets (expected-support or frequentness-
    probability ranking) with threshold-raising pruning; ``--verify``
    additionally mines everything through the corresponding threshold miner,
    truncates, and checks the two agree.

``repro-mine experiment``
    Run one of the paper's figure/table scenarios and print the resulting
    table.

``repro-mine stream-mine``
    Replay a dataset as a transaction stream through a sliding window and
    re-emit the frequent set after every slide (incremental maintenance;
    ``--verify`` additionally batch-mines each window and checks agreement).

``repro-mine store-build``
    Persist a dataset as an out-of-core memory-mapped columnar store
    (:mod:`repro.db.store`); ``repro-mine mine --store DIR`` then mines it
    off the mapped planes without loading the data into RAM.

``repro-mine serve``
    Run the mining service (:mod:`repro.service`): a long-lived JSON-over-
    socket server with a warm dataset registry, a monotonicity-exploiting
    result cache and bounded concurrent admission.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.miner import mine
from .core.registry import algorithm_names, get_algorithm
from .db.store import ColumnarStore, resolve_store_path
from .core.topk import (
    mine_topk,
    ranking_of,
    resolve_evaluator,
    truncation_baseline,
)
from .datasets.registry import dataset_names, load_dataset
from .db.io import read_uncertain
from .eval import reporting, runner, scenarios
from .stream import (
    BATCH_EQUIVALENTS,
    STREAMING_MINERS,
    TransactionStream,
    make_streaming_miner,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Frequent itemset mining over uncertain databases (VLDB 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered algorithms and datasets")

    mine_parser = subparsers.add_parser("mine", help="mine one dataset with one algorithm")
    mine_parser.add_argument("--algorithm", "-a", default="uapriori", help="algorithm name")
    mine_parser.add_argument(
        "--dataset", "-d", default="accident", help="benchmark dataset name or path to an item:probability file"
    )
    mine_parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "mine an out-of-core columnar store (see store-build) instead of "
            "--dataset; with no DIR, the REPRO_STORE environment variable "
            "supplies the directory"
        ),
    )
    mine_parser.add_argument("--scale", type=float, default=0.002, help="benchmark scale factor")
    mine_parser.add_argument("--min-esup", type=float, default=None, help="minimum expected support")
    mine_parser.add_argument("--min-sup", type=float, default=None, help="minimum support")
    mine_parser.add_argument("--pft", type=float, default=0.9, help="probabilistic frequent threshold")
    mine_parser.add_argument("--limit", type=int, default=20, help="print at most this many itemsets")
    _add_parallel_arguments(mine_parser)

    topk_parser = subparsers.add_parser(
        "mine-topk", help="mine the k highest-ranked itemsets of one dataset"
    )
    topk_parser.add_argument(
        "--algorithm",
        "-a",
        default="uapriori",
        help=(
            "registered algorithm or evaluator name (esup/dp/dc/normal/poisson); "
            "expected-support algorithms rank by Definition 2, probabilistic "
            "ones by Definition 4 at --min-sup"
        ),
    )
    topk_parser.add_argument(
        "--dataset", "-d", default="accident", help="benchmark dataset name or path to an item:probability file"
    )
    topk_parser.add_argument("--scale", type=float, default=0.002, help="benchmark scale factor")
    topk_parser.add_argument("-k", type=int, default=10, help="how many itemsets to return")
    topk_parser.add_argument(
        "--min-sup",
        type=float,
        default=None,
        help="support level of the probabilistic ranking (default 0.3)",
    )
    topk_parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "also mine everything through the corresponding threshold miner, "
            "truncate to k, and check the two results agree"
        ),
    )
    _add_parallel_arguments(topk_parser)

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper's experiment scenarios"
    )
    experiment_parser.add_argument(
        "figure",
        choices=["fig4", "fig5", "fig6", "table8", "table9", "topk"],
        help="which experiment family to run",
    )
    experiment_parser.add_argument("--scale", type=float, default=0.002, help="dataset scale factor")
    experiment_parser.add_argument(
        "--max-points", type=int, default=None, help="truncate each sweep to this many points"
    )
    _add_parallel_arguments(experiment_parser)

    stream_parser = subparsers.add_parser(
        "stream-mine",
        help="mine a sliding window over a replayed transaction stream",
    )
    stream_parser.add_argument(
        "--algorithm",
        "-a",
        choices=sorted(STREAMING_MINERS),
        default="uapriori",
        help="streaming miner variant",
    )
    stream_parser.add_argument(
        "--dataset", "-d", default="accident", help="benchmark dataset name or path to an item:probability file"
    )
    stream_parser.add_argument("--scale", type=float, default=0.002, help="benchmark scale factor")
    stream_parser.add_argument("--window", "-w", type=int, default=256, help="sliding window capacity")
    stream_parser.add_argument("--step", type=int, default=32, help="arrivals per slide")
    stream_parser.add_argument(
        "--slides", type=int, default=None, help="stop after this many slides (default: drain the stream)"
    )
    stream_parser.add_argument("--min-esup", type=float, default=None, help="minimum expected support (uapriori)")
    stream_parser.add_argument("--min-sup", type=float, default=None, help="minimum support (dp)")
    stream_parser.add_argument("--pft", type=float, default=0.9, help="probabilistic frequent threshold (dp)")
    stream_parser.add_argument("--limit", type=int, default=10, help="print at most this many itemsets per slide")
    stream_parser.add_argument(
        "--verify",
        action="store_true",
        help="batch-mine every window from scratch and check the frequent sets agree",
    )
    _add_parallel_arguments(stream_parser)

    store_parser = subparsers.add_parser(
        "store-build",
        help="persist a dataset as an out-of-core memory-mapped columnar store",
    )
    store_parser.add_argument(
        "--dataset", "-d", default="accident", help="benchmark dataset name or path to an item:probability file"
    )
    store_parser.add_argument("--scale", type=float, default=0.002, help="benchmark scale factor")
    store_parser.add_argument(
        "--out", "-o", required=True, metavar="DIR", help="target store directory"
    )

    verify_parser = subparsers.add_parser(
        "store-verify",
        help="recompute plane checksums of a columnar store and report corruption",
    )
    verify_parser.add_argument(
        "directory",
        nargs="?",
        default=None,
        metavar="DIR",
        help="store directory (default: the REPRO_STORE environment variable)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the JSON-over-socket mining service"
    )
    serve_parser.add_argument(
        "--host", default=None, help="bind address (default: REPRO_SERVICE_HOST or 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: REPRO_SERVICE_PORT or 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="concurrent request executors (default: REPRO_SERVICE_WORKERS or 4)",
    )
    serve_parser.add_argument(
        "--queue",
        type=int,
        default=None,
        help=(
            "requests allowed to wait for an executor before rejection "
            "(default: REPRO_SERVICE_QUEUE or 16)"
        ),
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request timeout in seconds (default: REPRO_SERVICE_TIMEOUT_SECONDS or 30)",
    )
    serve_parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=DATASET[:SCALE]",
        help="pre-register a benchmark dataset at startup (repeatable)",
    )
    serve_parser.add_argument(
        "--register-store",
        action="append",
        default=[],
        metavar="NAME=DIR",
        help="pre-register an out-of-core columnar store at startup (repeatable)",
    )
    serve_parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound 'host port' to PATH once serving (for scripts/CI)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve_parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "install a deterministic fault-injection plan for the server "
            "process (e.g. 'seed=7;socket-drop@2'; see REPRO_FAULTS)"
        ),
    )

    return parser


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the partition-parallel engine "
            "(default: the plan's workers knob, 1; 0 = one per CPU)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "row shards of the columnar view "
            "(default: the plan's shards knob, else the worker count)"
        ),
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="SPEC",
        help=(
            "execution plan: a comma-separated knob spec such as "
            "'workers=4,conv_span=256' "
            "(default: REPRO_PLAN; --workers/--shards stay the "
            "strongest tier, and a knob named in --plan beats REPRO_PLAN)"
        ),
    )


def _command_list() -> int:
    print("Algorithms:")
    for name in algorithm_names():
        info = get_algorithm(name)
        print(f"  {name:22s} [{info.family}]  {info.description}")
    print("\nDatasets:")
    for name in dataset_names():
        print(f"  {name}")
    return 0


def _load_mine_database(args: argparse.Namespace):
    if getattr(args, "store", None) is not None:
        directory = resolve_store_path(args.store or None)
        return ColumnarStore.open(directory).database()
    if args.dataset in dataset_names():
        return load_dataset(args.dataset, scale=args.scale)
    return read_uncertain(args.dataset, name=args.dataset)


def _command_mine(args: argparse.Namespace) -> int:
    database = _load_mine_database(args)

    info = get_algorithm(args.algorithm)
    if info.family == "expected":
        threshold = args.min_esup if args.min_esup is not None else 0.5
        result = mine(
            database,
            algorithm=args.algorithm,
            min_esup=threshold,
            workers=args.workers,
            shards=args.shards,
            plan=args.plan,
        )
    else:
        threshold = args.min_sup if args.min_sup is not None else 0.5
        result = mine(
            database,
            algorithm=args.algorithm,
            min_sup=threshold,
            pft=args.pft,
            workers=args.workers,
            shards=args.shards,
            plan=args.plan,
        )

    statistics = result.statistics
    print(
        f"{args.algorithm}: {len(result)} frequent itemsets in "
        f"{statistics.elapsed_seconds:.3f}s over {len(database)} transactions"
    )
    for record in result.itemsets[: args.limit]:
        probability = (
            f"  Pr={record.frequent_probability:.3f}"
            if record.frequent_probability is not None
            else ""
        )
        print(f"  {record.itemset.items}  esup={record.expected_support:.2f}{probability}")
    if len(result) > args.limit:
        print(f"  ... ({len(result) - args.limit} more)")
    return 0


def _command_mine_topk(args: argparse.Namespace) -> int:
    if args.dataset in dataset_names():
        database = load_dataset(args.dataset, scale=args.scale)
    else:
        database = read_uncertain(args.dataset, name=args.dataset)

    evaluator = resolve_evaluator(args.algorithm)
    ranking = ranking_of(evaluator)
    min_sup: Optional[float] = None
    if ranking == "probability":
        min_sup = args.min_sup if args.min_sup is not None else 0.3
    elif args.min_sup is not None:
        print(
            f"note: --min-sup is ignored — {args.algorithm!r} ranks by "
            "expected support (Definition 2), not frequentness probability"
        )

    result = mine_topk(
        database,
        args.k,
        algorithm=args.algorithm,
        min_sup=min_sup,
        workers=args.workers,
        shards=args.shards,
        plan=args.plan,
    )
    statistics = result.statistics
    label = "esup ranking" if ranking == "esup" else f"Pr ranking at min_sup={min_sup}"
    print(
        f"topk-{evaluator}: best {len(result)} of k={args.k} ({label}) in "
        f"{statistics.elapsed_seconds:.3f}s over {len(database)} transactions"
    )
    for rank, record in enumerate(result, start=1):
        probability = (
            f"  Pr={record.frequent_probability:.4f}"
            if record.frequent_probability is not None
            else ""
        )
        print(
            f"  #{rank:<3d} {record.itemset.items}  "
            f"esup={record.expected_support:.2f}{probability}"
        )

    if args.verify:
        baseline = truncation_baseline(
            database,
            args.k,
            evaluator,
            min_sup=min_sup,
            reference=result,
            workers=args.workers,
            shards=args.shards,
            plan=args.plan,
        )
        matches = result.ranked_keys() == baseline.ranked_keys()
        print(
            f"verify (mine-then-truncate via {args.algorithm!r} family): "
            f"{'match' if matches else 'MISMATCH'}"
        )
        if not matches:
            return 1
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.figure == "topk":
        for spec in scenarios.topk_scenarios(args.scale):
            print(f"== {spec.scenario_id}: {spec.title} ==")
            points = runner.run_topk_scenario(
                spec,
                verify=True,
                max_points=args.max_points,
                workers=args.workers,
                shards=args.shards,
                plan=args.plan,
            )
            rows = [point.as_dict() for point in points]
            print(
                reporting.format_table(
                    rows,
                    [
                        "algorithm",
                        "k",
                        "n_itemsets",
                        "kth_score",
                        "elapsed_seconds",
                        "baseline_seconds",
                        "matches_truncation",
                    ],
                )
            )
            print()
        return 0
    if args.figure == "fig4":
        specs = scenarios.figure4_time_and_memory(args.scale)
    elif args.figure == "fig5":
        specs = scenarios.figure5_min_sup(args.scale)
    elif args.figure == "fig6":
        specs = scenarios.figure6_min_sup(args.scale)
    elif args.figure == "table8":
        specs = [scenarios.table8_accuracy_dense(args.scale)]
    else:
        specs = [scenarios.table9_accuracy_sparse(args.scale)]

    for spec in specs:
        print(f"== {spec.experiment_id}: {spec.title} ==")
        if spec.experiment_id.startswith("table"):
            points = runner.run_accuracy_experiment(
                spec,
                max_points=args.max_points,
                workers=args.workers,
                shards=args.shards,
                plan=args.plan,
            )
            print(reporting.format_accuracy_table(points))
        else:
            points = runner.run_experiment(
                spec,
                max_points=args.max_points,
                workers=args.workers,
                shards=args.shards,
                plan=args.plan,
            )
            print(reporting.format_sweep_table(points))
        print()
    return 0


def _command_stream_mine(args: argparse.Namespace) -> int:
    if args.dataset in dataset_names():
        database = load_dataset(args.dataset, scale=args.scale)
    else:
        database = read_uncertain(args.dataset, name=args.dataset)

    if args.algorithm == "uapriori":
        options = {"min_esup": args.min_esup if args.min_esup is not None else 0.3}
    else:
        options = {
            "min_sup": args.min_sup if args.min_sup is not None else 0.3,
            "pft": args.pft,
        }
    batch_algorithm, batch_kwargs = BATCH_EQUIVALENTS[args.algorithm], dict(options)

    stream = TransactionStream.from_database(database)
    miner = make_streaming_miner(args.algorithm, args.window, plan=args.plan, **options)

    print(
        f"stream-{args.algorithm}: window={args.window} step={args.step} "
        f"over {len(database)} replayed transactions"
    )
    slide = 0
    mismatches = 0
    while args.slides is None or slide <= args.slides:
        step = args.window if slide == 0 else args.step
        result = miner.advance(stream, step)
        if result is None:
            break
        statistics = result.statistics
        line = (
            f"slide {slide:3d}  [{miner.window.oldest_sequence},"
            f"{miner.window.next_sequence}): {len(result)} frequent itemsets "
            f"in {statistics.elapsed_seconds * 1000.0:.2f}ms"
        )
        if args.verify:
            batch = mine(
                miner.window.contents(),
                algorithm=batch_algorithm,
                workers=args.workers,
                shards=args.shards,
                plan=args.plan,
                **batch_kwargs,
            )
            matches = {r.itemset.items for r in result} == {
                r.itemset.items for r in batch
            }
            mismatches += not matches
            line += (
                f"  (batch {batch.statistics.elapsed_seconds * 1000.0:.2f}ms, "
                f"{'match' if matches else 'MISMATCH'})"
            )
        print(line)
        for record in result.itemsets[: args.limit]:
            probability = (
                f"  Pr={record.frequent_probability:.3f}"
                if record.frequent_probability is not None
                else ""
            )
            print(f"    {record.itemset.items}  esup={record.expected_support:.2f}{probability}")
        if len(result) > args.limit:
            print(f"    ... ({len(result) - args.limit} more)")
        slide += 1
    if args.verify and mismatches:
        print(f"verification FAILED on {mismatches} slides")
        return 1
    return 0


def _command_store_build(args: argparse.Namespace) -> int:
    if args.dataset in dataset_names():
        database = load_dataset(args.dataset, scale=args.scale)
    else:
        database = read_uncertain(args.dataset, name=args.dataset)
    store = ColumnarStore.save(database, args.out)
    print(
        f"store-build: {store.n_transactions} transactions, "
        f"{store.n_items} items, {store.nnz} units -> {store.directory}"
    )
    print(
        f"  planes {store.data_nbytes} bytes on disk, "
        f"manifest {store.manifest_nbytes} bytes "
        f"(mine with: repro-mine mine --store {store.directory})"
    )
    return 0


def _command_store_verify(args: argparse.Namespace) -> int:
    directory = resolve_store_path(args.directory)
    store = ColumnarStore.open(directory)
    report = store.verify()
    print(f"store-verify: {report['directory']}")
    for plane, entry in sorted(report["planes"].items()):
        if entry.get("skipped"):
            detail = f"skipped ({entry['skipped']})"
        elif entry.get("error"):
            detail = f"ERROR ({entry['error']})"
        elif entry["ok"]:
            detail = f"ok (crc32 {entry['actual']}, {entry['nbytes']} bytes)"
        else:
            detail = (
                f"CORRUPT (expected crc32 {entry['expected']}, "
                f"got {entry['actual']})"
            )
        print(f"  {plane:8s} {detail}")
    if report["ok"]:
        print("store-verify: OK")
        return 0
    print("store-verify: FAILED")
    return 1


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import MiningServer

    if args.faults:
        from . import faults

        faults.install_faults(faults.FaultPlan.parse(args.faults))
        print(f"serve: fault plan installed ({args.faults!r})")
    server = MiningServer(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_queue=args.queue,
        timeout_seconds=args.timeout,
        use_cache=not args.no_cache,
    )
    for entry in args.register:
        name, _, target = entry.partition("=")
        if not name or not target:
            print(f"serve: bad --register {entry!r}, expected NAME=DATASET[:SCALE]")
            return 2
        dataset, _, scale = target.partition(":")
        spec = {"kind": "benchmark", "dataset": dataset}
        if scale:
            spec["scale"] = float(scale)
        server.registry.register(name, spec)
        print(f"serve: registered {name!r} <- benchmark {dataset!r}")
    for entry in args.register_store:
        name, _, directory = entry.partition("=")
        if not name or not directory:
            print(f"serve: bad --register-store {entry!r}, expected NAME=DIR")
            return 2
        server.registry.register(name, {"kind": "store", "directory": directory})
        print(f"serve: registered {name!r} <- store {directory}")

    server.start()
    host, port = server.address
    print(f"serve: listening on {host}:{port} (workers={server.max_workers}, "
          f"queue={server.max_queue}, timeout={server.timeout_seconds:g}s)")
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")

    def _stop(signum, frame):  # pragma: no cover - signal path
        server.close()

    previous = [
        (signal.SIGINT, signal.signal(signal.SIGINT, _stop)),
        (signal.SIGTERM, signal.signal(signal.SIGTERM, _stop)),
    ]
    try:
        # Blocks until a signal or a client 'shutdown' op closes the server.
        server.wait()
    finally:
        server.close()
        for signum, handler in previous:
            signal.signal(signum, handler)
    print("serve: stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-mine`` console script."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "store-build":
        return _command_store_build(args)
    if args.command == "store-verify":
        return _command_store_verify(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "mine":
        return _command_mine(args)
    if args.command == "mine-topk":
        return _command_mine_topk(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "stream-mine":
        return _command_stream_mine(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
