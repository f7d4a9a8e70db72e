"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench/selftest.py

The counts and metrics tests run the benchmark itself (a few minutes on
two cores); the rest are quick.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    cfg = declared()
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in cfg["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in cfg["workloads"]] == list(workloads.BENCHMARKED)


def test_self_time_subtracts_covered_children():
    # parent 0..10 with children 1..4 and 3..6 (overlapping, other thread)
    # and a grandchild inside the first child
    recs = [[1, 0, "p", 0.0, 10.0, 1, "r", None],
            [2, 1, "c", 1.0, 4.0, 1, "r", None],
            [3, 1, "c", 3.0, 6.0, 2, "r", None],
            [4, 2, "g", 2.0, 3.0, 1, "r", None]]
    st = spans.self_times(recs)
    assert st == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_reaches_inputs(workload):
    import zvlab.cli

    def seed_of(inp):
        if inp.argv is not None:
            return zvlab.cli.build_parser().parse_args(inp.argv).seed
        return inp.stage_args.seed

    a, b = workloads.setup(workload, 1), workloads.setup(workload, 2)
    assert (seed_of(a), seed_of(b)) == (1, 2)
    assert a.seed == 1 and b.seed == 2


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "singular-couple",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_command_prints_every_end_to_end_metric():
    out, last = bench("--workload", "all", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert last["correct"] and last["failed"] == 0
    table = {line.split()[0]: line.split() for line in out.splitlines()}
    for name, unit in run.END_TO_END.items():
        assert table[name][1] == unit
        assert len(table[name]) == 2 + len(workloads.WORKLOADS)
        for w in workloads.WORKLOADS:
            assert last["metrics"][f"{w}.{name}"]["unit"] == unit
    assert table["failed_frac"][1] == "ratio"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    runs = [bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "1")[1] for _ in range(2)]
    for r in runs:
        assert r["correct"], "traced CSV must equal the untraced CSV"
    counts = {name for name, unit in spans.LAYER_METRICS.items()
              if unit == "count" or name == "rng.block_normals.mb_computed"}
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second
