"""Time-to-verdict benchmark for zvlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; zvlab is imported from src/.  NAME is
one of singular-couple, additive-pipeline, singular-2d-build, or `all`,
which runs each in its own process and prints one table.  BENCHMARK.json
lists the first two (workloads.BENCHMARKED); singular-2d-build, the only
workload that reaches the 2-d code and the PDE solver, runs on request.

--trace 0 is a closed loop in one process: jobs run back to back in pairs,
one with ZVLAB_THREADS=1 and one with ZVLAB_THREADS=nproc, the order
alternating from pair to pair so that slow drift of the host weighs on both
worker counts alike.  A run makes at least MIN_PAIRS[NAME] pairs and
starts another while fewer than S seconds have passed since the first.
It reports the end-to-end metrics.  --trace 1 runs one untraced and one
traced job with ZVLAB_THREADS=nproc and reports the per-layer metrics and
the tracing overhead.

Every job uses the run's seed.  A job fails if it raises, exits non-zero,
gives a verdict other than the reference list in reference_verdicts.json,
or writes a CSV that differs from the run's first job (across worker
counts, and between the traced and untraced job).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it stamps the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
# Pairs a run makes at least.  On a shared 2-core host one job's wall time
# varies by 5-15 % from one job to the next with the host's load, so a run's
# medians need several pairs.  additive-pipeline gets three because its
# 2-worker job varies most; at about 25 s a pair, that keeps all runs of
# both benchmarked workloads under an hour.
MIN_PAIRS = {"singular-couple": 2, "additive-pipeline": 3,
             "singular-2d-build": 2}
END_TO_END = {"setup_s": "s", "job_s": "s", "job_s_1w": "s",
              "scaling_x": "ratio", "peak_rss_mb": "MB"}

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports zvlab and builds inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _libc_malloc_trim():
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


MALLOC_TRIM = _libc_malloc_trim()


def release_memory():
    """Free what earlier jobs left behind before the next one starts.

    A user runs one job per process.  Without this, heap the allocator kept
    from earlier jobs in this process would count in later jobs' peak RSS
    (on glibc it adds about 40 MB once 2-worker jobs have run)."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def attempt(inp, threads: int, out_dir: str):
    """One job; None if it raised (the traceback goes to stderr)."""
    try:
        return workloads.run_job(inp, threads, out_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def reference_verdicts(workload: str) -> list:
    with open(os.path.join(HERE, "reference_verdicts.json")) as fh:
        return json.load(fh)[workload]


def gate(jobs, workload: str) -> list:
    """Per job: the reason it failed, or None."""
    ref = reference_verdicts(workload)
    first_csv = next((j.csv_text for j in jobs if j is not None), None)
    reasons = []
    for j in jobs:
        if j is None:
            reasons.append("raised")
        elif j.exit_code != 0:
            reasons.append(f"exit code {j.exit_code}")
        elif j.verdicts != ref:
            bad = [v for v in j.verdicts if v not in ref] or ["missing checks"]
            reasons.append(f"verdicts differ from reference: {bad}")
        elif j.csv_text != first_csv:
            reasons.append("CSV differs from the run's first job")
        else:
            reasons.append(None)
    return reasons


def env_stamp(threads_used) -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = 0
    pkg = os.path.join(SRC, "zvlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "zvlab_threads": list(threads_used),
        "commit": commit,
        "src_lines": src_lines,
    }


def report(workload, seed, jobs, reasons, metrics, threads_used):
    """Human-readable lines, the environment stamp, then the result line."""
    failed = sum(r is not None for r in reasons)
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs, {failed} failed")
    for i, r in enumerate(reasons):
        if r is not None:
            print(f"  job {i} failed: {r}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / len(jobs):.6g} ratio "
          f"({failed}/{len(jobs)})")
    print(json.dumps({"env": env_stamp(threads_used)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))


def run_timed(workload: str, seed: int, seconds: float, out_dir: str):
    setup_s = statistics.median(probe_setup(workload, seed)
                                for _ in range(SETUP_PROBES))
    inp = workloads.setup(workload, seed)
    counts = (1, nproc())
    jobs = {c: [] for c in counts}
    order = []
    t_start = time.perf_counter()
    while (len(order) < MIN_PAIRS[workload] * len(counts)
           or time.perf_counter() - t_start < seconds):
        pair = counts if len(order) % (2 * len(counts)) == 0 else counts[::-1]
        for c in pair:
            release_memory()
            t0 = time.perf_counter()
            j = attempt(inp, c, out_dir)
            jobs[c].append(time.perf_counter() - t0 if j is None else j.wall_s)
            order.append(j)
    job_s = statistics.median(jobs[counts[1]])
    job_s_1w = statistics.median(jobs[counts[0]])
    values = {
        "setup_s": setup_s,
        "job_s": job_s,
        "job_s_1w": job_s_1w,
        "scaling_x": job_s_1w / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report(workload, seed, order, gate(order, workload), metrics, counts)


def run_traced(workload: str, seed: int, out_dir: str):
    import spans
    inp = workloads.setup(workload, seed)
    c = nproc()
    release_memory()
    plain = attempt(inp, c, out_dir)
    rec = spans.Recorder(run_id=f"{workload}-seed{seed}-traced")
    release_memory()
    with spans.traced(rec):
        traced = attempt(inp, c, out_dir)
    jobs = [plain, traced]
    reasons = gate(jobs, workload)
    if plain is None or traced is None:
        overhead, stage_s = 0.0, {}
    else:
        overhead, stage_s = traced.wall_s - plain.wall_s, traced.stage_s
    metrics = spans.layer_metrics(rec.spans, stage_s, overhead)
    spans.write_spans(rec.spans, os.path.join(out_dir, "spans.csv"))
    report(workload, seed, jobs, reasons, metrics, [c])


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    results = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
        env = lines[-2]
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>18s}" for w in results))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:34s} {unit:6s} " + " ".join(
            f"{r['metrics'][name]['value']:18.6g}" for r in results.values()))
    print(f"{'failed_frac':34s} {'ratio':6s} " + " ".join(
        f"{r['failed'] / r['attempted']:12.6g} ({r['failed']}/{r['attempted']})"
        for r in results.values()))
    print(env)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "zvlab")):
        print(f"error: no zvlab package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        workloads.setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        run_traced(args.workload, args.seed, out_dir)
    else:
        run_timed(args.workload, args.seed, args.seconds, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
