#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about a minute in all).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload passes, traced and untraced, with the metric
names ``BENCHMARK.json`` declares; that a corrupted reference and an op
that raises both make the run fail; that the traced run reports a
renamed layer function as missing and carries on; and that a directory
holding only the benchmark (no program) fails without printing a result.
Each case runs ``run.py`` in a fresh process, as a measuring run does.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "selftest")
REFERENCES = os.path.join(HERE, "references")
WORKLOADS = ("t25i15d-uapriori", "accident-exact", "kosarak-service")
TINY = ["--tiny", "--seconds", "2"]

#: prepended to every case: keeps the self-test's output (and, for the
#: corrupted-reference case, its references) apart from a measuring run's
REDIRECT = """
import sys
sys.path.insert(0, {here!r})
import run
run.OUT = {out!r}
run.REFERENCES = {references!r}
"""
#: prepended to ``run.main`` to make every op raise inside the program once
#: the untimed warm-up is done
RAISE_IN_MINE = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
import repro, repro.service.server, workloads
def broken(*args, **kwargs):
    raise RuntimeError("injected failure")
warm_up = workloads.warm_up
def warm_up_then_break(*args, **kwargs):
    warm_up(*args, **kwargs)
    repro.mine = broken
    repro.service.server.mine = broken
workloads.warm_up = warm_up_then_break
"""
#: prepended to ``run.main`` to simulate a layer function that was renamed
RENAMED_TARGET = """
import sys
sys.path[:0] = [{here!r}]
import tracer
tracer.TARGETS.append(
    ("db.column_resolve", "repro.db.columnar", "ColumnarView.renamed_batch_vectors", "span", "all")
)
"""


def run(args: List[str], prelude: str = "", references: str = REFERENCES) -> Tuple[int, Optional[dict], str]:
    """``run.main(args)`` in a fresh process, after REDIRECT and ``prelude``."""
    code = REDIRECT.format(here=HERE, out=OUT, references=references)
    code += prelude.format(here=HERE, src=os.path.join(ROOT, "src"))
    code += "\nsys.exit(run.main(sys.argv[1:]))\n"
    return execute([sys.executable, "-c", code, *args], ROOT)


def execute(command: List[str], cwd: str) -> Tuple[int, Optional[dict], str]:
    process = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = process.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return process.returncode, result, process.stdout + process.stderr


def declared(kind: str) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


def corrupt_reference(workload: str, directory: str) -> None:
    """Copy the tiny references and nudge one score of ``workload`` by 1e-6."""
    shutil.copytree(REFERENCES, directory)
    path = os.path.join(directory, f"{workload}.tiny.seed11.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        document = json.load(handle)
    answer = next(iter(document["answers"].values()))
    answer["esup"][0] *= 1 + 1e-6
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    failures: List[str] = []

    def expect(label: str, condition: bool, detail: str = "") -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            failures.append(label)
            if detail:
                print(detail[-3000:])

    for workload in WORKLOADS:
        for trace, names in (("0", declared("end_to_end")), ("1", declared("per_layer"))):
            code, result, output = run(["--workload", workload, "--trace", trace, *TINY])
            expect(
                f"{workload} trace={trace} passes with the declared metrics",
                code == 0
                and result is not None
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and sorted(result["metrics"]) == sorted(names),
                output,
            )

    for workload in ("t25i15d-uapriori", "kosarak-service"):
        references = os.path.join(OUT, f"corrupt-{workload}")
        corrupt_reference(workload, references)
        code, result, output = run(["--workload", workload, *TINY], references=references)
        expect(
            f"{workload} fails on a corrupted reference",
            code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
            output,
        )

    for workload in ("accident-exact", "kosarak-service"):
        code, result, output = run(["--workload", workload, *TINY], RAISE_IN_MINE)
        expect(
            f"{workload} fails when an op raises",
            code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
            output,
        )

    code, result, output = run(
        ["--workload", "t25i15d-uapriori", "--trace", "1", *TINY], RENAMED_TARGET
    )
    spans = os.path.join(OUT, "spans-t25i15d-uapriori-seed11-trace1.json")
    missing = []
    if os.path.exists(spans):
        with open(spans, encoding="utf-8") as handle:
            missing = json.load(handle)["missing"]
    expect(
        "a renamed layer function is reported missing and the traced run continues",
        code == 0
        and result is not None
        and result["metrics"]["trace.missing_targets"]["value"] == 1
        and missing == ["repro.db.columnar:ColumnarView.renamed_batch_vectors"],
        output,
    )

    bare = os.path.join(OUT, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    script = os.path.join("perfbench", "run.py")
    code, result, output = execute(
        [sys.executable, script, "--workload", "accident-exact", *TINY], bare
    )
    expect(
        "a directory without the program fails without printing a result",
        code != 0 and result is None,
        output,
    )

    shutil.rmtree(OUT, ignore_errors=True)
    print("self-test", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
