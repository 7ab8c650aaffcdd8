#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload t25i15d-uapriori --seed 11 --seconds 35 --trace 0

``--seed`` is the request-sequence seed; ``--data-seed`` (default 11) seeds
the dataset, whose answers are checked against the references recorded
under ``perfbench/references`` for that data seed (11 and the held-out 29).
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer metrics of a separate traced run, whose spans are written to
``perfbench/out``.  The process exits non-zero on any wrong answer.

``--record`` answers each query once and writes the reference file for
``--data-seed`` (and ``--tiny``) instead of measuring.

End-to-end metrics.  A time is the fastest of the ops of one run (see
``harness.FAST_QUANTILE`` for why not the median), printed next to the
ops' median, IQR and count.  An op is one query: a batch pass that runs
several queries is timed per query, and its fastest time is the sum of
each query's fastest time across the run's passes.

* ``setup_s``: building one op's inputs.  Batch: generate the dataset,
  build its columnar view and item statistics.  Service: generate the
  dataset, save the store, boot the server, register the store, twice
  per round.
* ``mine_s``: one cold mine as its caller sees it.  Batch: one pass on the
  freshly built database.  Service: one ``cache: false`` request.
* ``cold_ms`` / ``warm_ms``: cold and warm op latency.  Service:
  ``cache: false`` requests versus cached requests (hits, filters and the
  misses that fill the cache).  Batch: a run from nothing (the fastest
  set-up plus the fastest pass, what a command-line user waits for)
  versus a pass on a database already in memory.
* On the service, whose requests mix queries from 10 ms to 500 ms,
  ``mine_s``, ``cold_ms`` and ``warm_ms`` are the geometric mean over the
  distinct queries of each query's fastest request across rounds.
* ``warm_tail_ms``: service: the highest percentile with at least 10
  samples beyond it over one round's warm requests, each at its fastest
  latency across rounds (every round replays the same sequence), so the
  same percentile on every run and a tail of the program, not of a slow
  host phase.  Batch: ``warm_ms`` again, because a run has too few
  passes for any tail.  The percentile is printed.
* ``throughput_rps``: ops per second of op time.  Service: the requests
  of one round divided by the sum of each request's fastest latency over
  the rounds (every round replays the same sequence).  Batch: 1 /
  ``cold_ms``.  The printed median and IQR are over rounds or passes.
* ``peak_rss_mb``: peak resident set of the run process by the end of its
  first pass or round.  Each service round boots fresh servers in the same
  process, whose freed thread arenas and heap fragments make the peak
  over a whole run drift with the number of rounds it holds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references")
OUT = os.path.join(HERE, "out")
DEFAULT_DATA_SEED = 11


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11, help="request-sequence seed")
    parser.add_argument("--data-seed", type=int, default=DEFAULT_DATA_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--record", action="store_true", help="write references")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # Measure the default ExecutionPlan: no REPRO_* override may leak in.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import repro from {os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        return 2

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    references = None
    reference_file = harness.reference_path(REFERENCES, args.workload, args.data_seed, args.tiny)
    if not args.record:
        try:
            references = harness.load_references(reference_file)["answers"]
        except OSError as error:
            print(f"no reference for this workload and data seed: {error}", file=sys.stderr)
            return 2

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workloads.warm_up(work_dir)
        # Park what the imports and the warm-up allocated in the permanent
        # generation, so the gc.collect() before each op stays short.
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        probe_before = harness.host_probe()
        ctx = workloads.Context(
            workload=args.workload,
            data_seed=args.data_seed,
            seq_seed=args.seed,
            seconds=args.seconds,
            tiny=args.tiny,
            references=references,
            work_dir=work_dir,
            tracer=tracer,
        )
        started = time.perf_counter()
        outcome = workloads.run(ctx)
        elapsed = time.perf_counter() - started
        rss = outcome.first_op_rss_mb
        probe = probe_before + harness.host_probe()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.record:
        if outcome.problems or outcome.failed:
            return 1
        harness.save_references(
            reference_file,
            {
                "workload": args.workload,
                "data_seed": args.data_seed,
                "tiny": args.tiny,
                "sizes": outcome.sizes,
                "answers": outcome.answers,
            },
        )
        print(f"recorded {len(outcome.answers)} answers to {reference_file}")
        return 0

    service = args.workload == workloads.SERVICE
    end_to_end = end_to_end_metrics(outcome, service, rss)
    layers: Dict[str, float] = {}
    if tracer is not None:
        untraced = outcome.samples.get("cold_s" if service else "mine_s", [])
        traced = outcome.samples.get("traced_cold_s" if service else "traced_mine_s", [])
        overhead = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced
            else 0.0
        )
        layers = tracer.layer_metrics("request" if service else "pass", overhead)

    correct = outcome.failed == 0 and not outcome.problems and outcome.attempted > 0
    stamp = {
        "workload": args.workload,
        "git_sha": harness.git_sha(ROOT),
        "data_seed": args.data_seed,
        "sequence_seed": args.seed,
        "seconds": args.seconds,
        "measured_seconds": elapsed,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops": {"attempted": outcome.attempted, "failed": outcome.failed},
        "plan": harness.resolved_plan(),
        "sizes": outcome.sizes,
        "host": harness.host(),
        "host_probe_s": harness.summary(probe),
    }
    report(stamp, end_to_end, layers, tracer)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"run-{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "stamp": stamp,
                "end_to_end": end_to_end,
                "per_layer": layers,
                "correct": correct,
                "samples": outcome.samples,
            },
            handle,
            indent=1,
        )
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{name}.json"), {"stamp": stamp})

    if args.trace:
        from tracer import LAYER_METRICS

        metrics = {
            key: {"value": value, "unit": LAYER_METRICS[key][0]} for key, value in layers.items()
        }
    else:
        metrics = {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in end_to_end.items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def end_to_end_metrics(outcome, service: bool, rss: float) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from harness import FAST_QUANTILE, quantile_label, summary, tail_quantile

    samples = outcome.samples

    def entry(unit: str, name: str, scale: float, quantile: float = FAST_QUANTILE):
        result = summary([value * scale for value in samples.get(name, [])], quantile)
        result["unit"] = unit
        result["statistic"] = quantile_label(quantile)
        return result

    def per_query(unit: str, name: str, scale: float):
        """Service: the geometric mean over the distinct queries of each one's
        fastest request, so the value does not depend on the mix."""
        result = entry(unit, name, scale)
        groups = outcome.per_query.get(name, {}).values()
        if groups:
            fastest = [np.quantile(values, FAST_QUANTILE) for values in groups]
            result["value"] = float(np.exp(np.mean(np.log(fastest)))) * scale
        result["statistic"] = f"gmean query {quantile_label(FAST_QUANTILE)}"
        return result

    if service:
        mine = per_query("s", "cold_s", 1.0)
        cold = per_query("ms", "cold_s", 1e3)
        warm = per_query("ms", "warm_s", 1e3)
        # Every round replays the same sequence: one round at each
        # request's fastest latency across rounds.
        fastest = {
            key: np.quantile(values, FAST_QUANTILE)
            for key, values in outcome.per_position.items()
        }
        quantile = tail_quantile(outcome.warm_per_round)
        tail = entry("ms", "warm_s", 1e3, quantile)
        warm_fastest = [value for (_, cold), value in fastest.items() if not cold]
        if warm_fastest:
            tail["value"] = float(np.quantile(warm_fastest, quantile)) * 1e3
        tail["statistic"] = f"{quantile_label(quantile)} request {quantile_label(FAST_QUANTILE)}s"
        throughput = summary(samples.get("round_rps", []))
        if fastest:
            throughput["value"] = len(fastest) / sum(fastest.values())
        throughput["statistic"] = f"request {quantile_label(FAST_QUANTILE)}s"
    else:
        # A pass at each query's fastest time across passes: a query takes
        # a fraction of a pass, so more of them fit in a host's fast phase.
        groups = outcome.per_query.get("mine_s", {}).values()
        fastest_pass = sum(np.quantile(values, FAST_QUANTILE) for values in groups)
        fastest_cold = fastest_pass + np.quantile(samples.get("setup_s", [math.nan]), FAST_QUANTILE)
        label = quantile_label(FAST_QUANTILE)
        mine = entry("s", "mine_s", 1.0)
        warm = entry("ms", "mine_s", 1e3)
        cold = entry("ms", "cold_s", 1e3)
        for result, value in ((mine, fastest_pass), (warm, fastest_pass * 1e3)):
            result["value"] = float(value)
            result["statistic"] = f"sum query {label}"
        cold["value"] = float(fastest_cold) * 1e3
        cold["statistic"] = f"{label} setup + mine"
        tail = warm
        throughput = summary([1.0 / value for value in samples.get("cold_s", [])])
        throughput["value"] = 1.0 / float(fastest_cold)
        throughput["statistic"] = "1 / cold"
    return {
        "setup_s": entry("s", "setup_s", 1.0),
        "mine_s": mine,
        "cold_ms": cold,
        "warm_ms": warm,
        "warm_tail_ms": tail,
        "throughput_rps": dict(throughput, unit="1/s"),
        "peak_rss_mb": {
            "value": rss,
            "median": rss,
            "iqr": float("nan"),
            "n": 1,
            "unit": "MiB",
            "statistic": "peak by op 1",
        },
    }


def report(stamp, end_to_end, layers, tracer) -> None:
    def fmt(value) -> str:
        return "-" if value is None or (isinstance(value, float) and math.isnan(value)) else f"{value:.6g}"

    print(
        f"workload {stamp['workload']}  data_seed={stamp['data_seed']} "
        f"sequence_seed={stamp['sequence_seed']}  sha={stamp['git_sha']}"
    )
    print(f"plan {json.dumps(stamp['plan'], sort_keys=True)}")
    print(f"sizes {json.dumps(stamp['sizes'], sort_keys=True)}")
    print(
        f"{'end-to-end metric':<20} {'unit':<6} {'value':>12} {'statistic':<17} "
        f"{'median':>12} {'iqr':>12} {'n':>6}"
    )
    for name, entry in end_to_end.items():
        print(
            f"{name:<20} {entry['unit']:<6} {fmt(entry['value']):>12} {entry['statistic']:<17} "
            f"{fmt(entry['median']):>12} {fmt(entry['iqr']):>12} {entry['n']:>6}"
        )
    print(f"ops attempted {stamp['ops']['attempted']} failed {stamp['ops']['failed']}")
    probe = stamp["host_probe_s"]
    print(
        f"host probe (diagnostic, not a metric): {fmt(probe['median'])} s "
        f"iqr {fmt(probe['iqr'])} n {probe['n']}"
    )
    if tracer is not None:
        from tracer import LAYER_METRICS

        print(f"{'per-layer metric (traced run)':<32} {'unit':<6} {'median over ops':>16}")
        for name, value in layers.items():
            unit = LAYER_METRICS[name][0]
            shown = "MISSING" if tracer.is_missing(name) else fmt(value)
            print(f"{name:<32} {unit:<6} {shown:>16}")
        if tracer.missing:
            print(f"missing trace targets: {', '.join(tracer.missing)}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
