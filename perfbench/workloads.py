"""The benchmark's workloads: inputs built from a seed, and one job each.

A job runs one workload once, in this process, and returns its CSV text,
its check verdicts, its exit code and its wall time.  Setup (importing
zvlab and building the inputs) is kept apart from the job so that the
runner can time it on its own in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Paths are the CLI default for couple runs; not a power of two on purpose,
# so the last Philox block is partial.
CLI_ARGV = {
    "singular-couple": ["couple", "--scenario", "singular-1d", "--fast",
                        "--paths", "20000"],
    "additive-pipeline": ["full-pipeline", "--scenario", "additive-1d",
                          "--fast", "--paths", "20000"],
}
WORKLOADS = ("singular-couple", "additive-pipeline", "singular-2d-build")
# The workloads BENCHMARK.json lists.  With two, each run has time for
# several jobs and all runs still end within the hour they are allowed;
# the third covers the 2-d code and the PDE solver and is run on request.
BENCHMARKED = WORKLOADS[:2]

# singular-2d-build: b0(x) = 2 |x|^-1.2 x on the unit disc, unit diffusion
B0_SCALE = 2.0
B0_POWER = 1.2
CONSISTENCY_STEPS = (100, 200)
CONSISTENCY_PATHS = 2000
CONSISTENCY_X0 = (0.25, 0.25)


@dataclass
class Inputs:
    workload: str
    seed: int
    argv: list | None = None          # CLI workloads
    scenario: object = None           # singular-2d-build
    stage_args: object = None


@dataclass
class JobResult:
    wall_s: float
    exit_code: int
    csv_text: str
    verdicts: list                    # [[check-id, verdict], ...]
    stage_s: dict = field(default_factory=dict)


def singular_b0_2d(t, x):
    r = np.sqrt(np.sum(x ** 2, axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where((r <= 1.0) & (r > 0.0), B0_SCALE * r ** (-B0_POWER), 0.0)
    return mag * x


def setup(workload: str, seed: int) -> Inputs:
    """Import zvlab and build the workload's inputs from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    import scipy.sparse.linalg  # noqa: F401  (loaded lazily by the 2-d solve)
    import zvlab.cli
    if workload in CLI_ARGV:
        argv = CLI_ARGV[workload] + ["--seed", str(seed)]
        zvlab.cli.build_parser().parse_args(argv)
        return Inputs(workload, seed, argv=argv)
    from zvlab.fields import CoefficientSet, GridSpec, constant_sigma
    from zvlab.scenarios import Scenario
    coeffs = CoefficientSet(sigma=constant_sigma(np.eye(2)), b0=singular_b0_2d,
                            kappa1=0.5, kappa2=0.5)
    sc = Scenario(name="singular-2d", description="2-d singular drift",
                  coeffs=coeffs, grid=GridSpec(d=2, n=81, m=80, L=2.0, T=1.0),
                  x0=CONSISTENCY_X0)
    stage_args = argparse.Namespace(seed=seed, grid=None, fast=False)
    return Inputs(workload, seed, scenario=sc, stage_args=stage_args)


def _verdicts(csv_text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return [[r["check-id"], r["verdict"]] for r in rows]


def _run_cli(inp: Inputs, out_dir: str) -> JobResult:
    import zvlab.cli
    for name in ("report.csv", "report.json"):
        if os.path.exists(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))
    t0 = time.perf_counter()
    code = zvlab.cli.main(inp.argv + ["--out", out_dir])
    wall = time.perf_counter() - t0
    if not os.path.exists(os.path.join(out_dir, "report.csv")):
        return JobResult(wall, code, "", [])
    with open(os.path.join(out_dir, "report.csv")) as fh:
        csv_text = fh.read()
    with open(os.path.join(out_dir, "report.json")) as fh:
        stage_s = json.load(fh)[0]["timings_s"]
    return JobResult(wall, code, csv_text, _verdicts(csv_text), stage_s)


def _run_2d(inp: Inputs) -> JobResult:
    """Transform build with its certificates (the CLI's build-transform
    stage on a 2-d scenario), then the transform-consistency run."""
    from zvlab import cli, sde
    from zvlab.report import RunReport, combined_exit_code, csv_payload
    sc = inp.scenario
    t0 = time.perf_counter()
    rep = RunReport(scenario=sc.name, seed=inp.seed, config={})
    zm = cli.stage_build_transform(rep, sc, inp.stage_args)
    cons = sde.transform_consistency(zm, np.array(sc.x0), CONSISTENCY_STEPS,
                                     n_paths=CONSISTENCY_PATHS, seed=inp.seed)
    for n, err, se, dropped in zip(CONSISTENCY_STEPS, cons["error"],
                                   cons["se"], cons["excluded"]):
        rep.add(f"consistency-error-{n}", err, "info",
                ci_low=err - 1.96 * se, ci_high=err + 1.96 * se)
        rep.add(f"consistency-excluded-{n}", float(dropped), "info")
    rep.add("consistency-decreasing", float(cons["decreasing"]),
            "pass" if cons["decreasing"] else "fail", threshold=1.0)
    rep.add("consistency-slope", cons["slope"], "info", provenance="fit")
    csv_text = csv_payload([rep])
    wall = time.perf_counter() - t0
    return JobResult(wall, combined_exit_code([rep]), csv_text,
                     _verdicts(csv_text))


def run_job(inp: Inputs, threads: int, out_dir: str) -> JobResult:
    """One job with ZVLAB_THREADS=threads; the pool reads it per call."""
    os.environ["ZVLAB_THREADS"] = str(threads)
    if inp.argv is not None:
        return _run_cli(inp, out_dir)
    return _run_2d(inp)
