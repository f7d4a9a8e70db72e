"""Command-line driver: stage-by-stage runs of the workbench pipeline.

Subcommands map to pipeline stages (corrector solve, transform build,
path simulation, occupation-functional estimate, coupled run, Harnack
checks) plus full-pipeline and list-scenarios.  Every run produces one
report: CSV carries the numeric payload only, JSON adds config, timings
and the coupled runs' counters.  Exit code 0 means all checks passed, 2
at least one failed, 3 at least one was inconclusive, 1 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .coupling import (SAMPLED_FLOOR, CouplingConfig, calibrate_k1,
                       coalescence_report, constant_rows, gamma_threshold,
                       h5_certificate, pair_ensembles, theta_for_gamma,
                       truncation_rows, verify_log_harnack, verify_martingale,
                       verify_moment_bound, verify_power_harnack)
# unused here; perfbench/spans.py resolves simulate_pair through this module
from .coupling import simulate_pair  # noqa: F401
from .fields import GridSpec, NormSpec
from .pde import phi_rows, sample_operator, solve_phi_system
from .report import RunReport, combined_exit_code, csv_payload, json_payload
from .scenarios import Scenario, get_scenario, scenario_names
from .sde import (SdeModel, SimSpec, bump_family_stat, integrate_stat,
                  interval_bump, krylov_stat, original_model, plain_ensemble,
                  run_ensembles, transformed_model)
from .zvonkin import (bilipschitz_certificate, build_zvonkin,
                      ellipticity_certificate, identity_rows,
                      roundtrip_certificate, transformed_constants)

SIM_PATHS = 10_000
COUPLE_PATHS = 20_000
FAST_DIVISOR = 5
COUPLE_STEPS = 400        # base m for coupled runs; halved grid refines it
BUMP_WIDTHS = tuple(0.05 * 2 ** (j / 2) for j in range(5))
DEFAULT_GAMMA = 16.0


def f_shift_sin(z):
    return 1.0 + 0.5 * np.sin(z[:, 0])


def f_bump(z):
    return 0.5 + np.exp(-z[:, 0] ** 2)


def f_level(z):
    return np.full(z.shape[0], 2.0)


HARNACK_FS = (f_shift_sin, f_bump, f_level)


# ---------------------------------------------------------------------------
# shared plumbing


def _grid(sc: Scenario, args) -> GridSpec:
    g = sc.grid
    if args.grid:
        n, m = args.grid
        g = replace(g, n=n, m=m)
    if args.fast:
        g = replace(g, n=min(g.n, 201), m=min(g.m, 200))
    return g


def _n_paths(args, default: int) -> int:
    if args.paths is not None:
        return args.paths
    return default // FAST_DIVISOR if args.fast else default


def _coupling_inputs(sc: Scenario, args):
    """Pair, constants, start points, and ellipticity for the coupled stages.

    Scenarios with declared constants couple the raw coefficients; the
    singular ones couple the transformed equation with sampled constants.
    """
    if sc.coupling is not None:
        cs = sc.coupling
        pair = SdeModel(d=sc.d, drift=sc.coeffs.b1, sigma=sc.coeffs.sigma)
        consts = {"K_T": cs.K_T, "delta_T": cs.delta_T, "lam_T": cs.lam_T,
                  "alpha": cs.alpha, "declared": True}
        return pair, consts, np.array(cs.x), np.array(cs.y)
    zm = build_zvonkin(sc.coeffs, _grid(sc, args))
    consts = transformed_constants(zm, n_pairs=128, seed=args.seed + 900)
    consts.update(declared=False, K_T=max(consts["K_T"], SAMPLED_FLOOR),
                  delta_T=max(consts["delta_T"], SAMPLED_FLOOR))
    pair = transformed_model(zm)
    x = np.full(sc.d, 0.25)
    return pair, consts, x, -x


def _ensembles(rep: RunReport, sc: Scenario, args, reads) -> dict:
    """The ensembles named in reads, by name, each simulated once, all in
    one pool call (sde.run_ensembles), timed as ensembles.

    The plain statistics (integrate, krylov, bump-family) come from one
    pass over the plain paths.  The coupled runs are couple, power (the
    couple run's seed and step grid) and calibration.  The plain pass has
    the couple run's seed, so a range draws its Philox lanes once for the
    plain pass and both runs.  Every input is checked before anything is
    stepped, and the plain statistics finish before the coupled runs."""
    grid = _grid(sc, args)
    out = {}
    spec = SimSpec(T=grid.T, n_steps=max(grid.m, 100),
                   n_paths=_n_paths(args, SIM_PATHS), seed=args.seed, L=grid.L)
    x0 = np.array(sc.x0)
    ns = sc.b0_norm if sc.b0_norm is not None else NormSpec(p=4.0, q=16.0, d=sc.d)
    stats = {}
    if "integrate" in reads:
        stats["integrate"] = integrate_stat(x0, spec)
    if "krylov" in reads:
        ev, norm_fn = interval_bump(0.0, 0.05)
        stats["krylov"] = krylov_stat(spec, ev, ns, f_norm=norm_fn(ns, 0.0, spec.T))
    if "bump-family" in reads:
        stats["bump-family"] = bump_family_stat(spec, ns, BUMP_WIDTHS)
    runs = {}
    if not reads.isdisjoint(("coupling-inputs", "couple", "power", "calibration")):
        pair, consts, x, y = out["coupling-inputs"] = _coupling_inputs(sc, args)
        base = CouplingConfig(T=grid.T, m=100 if args.fast else COUPLE_STEPS,
                              n_paths=_n_paths(args, COUPLE_PATHS), L=grid.L,
                              K_T=consts["K_T"], delta_T=consts["delta_T"],
                              lam_T=consts["lam_T"], alpha=consts["alpha"])
        if "couple" in reads:
            runs["couple"] = (pair, x, y, base, args.seed)
        if "power" in reads:
            thr = gamma_threshold(base)
            gamma = args.gamma if args.gamma is not None else (
                DEFAULT_GAMMA if DEFAULT_GAMMA > thr else 2.0 * thr)
            if gamma <= thr:
                raise ValueError(f"gamma {gamma} is below the admissible threshold "
                                 f"{thr:.3f} for this scenario's constants")
            cfg = replace(base, gamma=gamma)
            runs["power"] = (pair, x, y, replace(cfg, theta=theta_for_gamma(cfg)),
                             args.seed)
        if "calibration" in reads:
            runs["calibration"] = (pair, x, y, base, args.seed + 1000)
    if stats or runs:
        plain = [plain_ensemble([original_model(sc.coeffs, sc.d)], [x0], spec,
                                list(stats.values()))] if stats else []
        done = _timed(rep, "ensembles", lambda: run_ensembles(
            plain + pair_ensembles(list(runs.values()))))
        if stats:
            out.update(zip(stats, done.pop(0)))
        out.update(zip(runs, done))
    return out


# ---------------------------------------------------------------------------
# stages; each lists the checks whose rows it reports, over the ensembles
# it reads


def stage_solve_pde(rep: RunReport, sc: Scenario, args):
    lam = args.lam if args.lam is not None else 10.0
    op = sample_operator(sc.coeffs, _grid(sc, args))
    # sc.b0_norm is None exactly when b0 is: the L^p-L^q estimate's norm
    rep.checks += phi_rows(op, lam, solve_phi_system(op, lam), sc.b0_norm)


def stage_build_transform(rep: RunReport, sc: Scenario, args):
    pairs = 1000 if args.fast else 4000
    zm = build_zvonkin(sc.coeffs, _grid(sc, args))
    rep.checks += bilipschitz_certificate(zm, n_pairs=pairs, seed=args.seed + 10)["rows"]
    rep.checks += roundtrip_certificate(zm, n_points=pairs // 4, seed=args.seed + 11)["rows"]
    rep.checks += ellipticity_certificate(zm, n_points=pairs // 4,
                                          seed=args.seed + 12)["rows"]
    if sc.coeffs.b0 is None:
        rep.checks += identity_rows(zm)
    else:
        rep.checks += transformed_constants(zm, n_pairs=128, seed=args.seed + 13)["rows"]
    return zm


def stage_simulate(rep: RunReport, sc: Scenario, args, ens):
    rep.checks += ens.rows


def stage_krylov(rep: RunReport, sc: Scenario, args, est, fam):
    rep.checks += est["rows"] + fam["rows"]


def stage_couple(rep: RunReport, sc: Scenario, args, inputs, res):
    pair, consts = inputs[:2]
    rep.checks += constant_rows(res.cfg, "closed-form" if consts["declared"]
                                else "sampled")
    if consts["declared"]:
        rep.checks += h5_certificate(pair, res.cfg, seed=args.seed + 20)["rows"]
    rep.checks += verify_martingale(res)["rows"]
    rep.checks += verify_moment_bound(res)["rows"]
    rep.checks += coalescence_report(res)["rows"]
    rep.checks += truncation_rows(res)
    rep.metrics["couple"] = {"couple": res.counters()}


def stage_harnack(rep: RunReport, sc: Scenario, args, power, cal, log):
    """Power Harnack rows from the power run; log Harnack rows from the
    log run (the couple stage's run), with k1 fitted on the calibration
    run."""
    kappa1 = power.cfg.lam_T
    rep.checks += verify_power_harnack(power, HARNACK_FS)["rows"]
    k1 = calibrate_k1(cal, HARNACK_FS, kappa1=kappa1)
    rep.checks += k1["rows"]
    rep.checks += verify_log_harnack(log, HARNACK_FS, kappa1=kappa1,
                                     k1_hat=k1["k1_hat"])["rows"]
    rep.metrics["harnack"] = {"power": power.counters(),
                              "calibration": cal.counters(),
                              "log": log.counters()}


# name -> (stage, the ensembles its rows read, passed in this order)
STAGES = {
    "solve-pde": (stage_solve_pde, ()),
    "build-transform": (stage_build_transform, ()),
    "simulate": (stage_simulate, ("integrate",)),
    "krylov": (stage_krylov, ("krylov", "bump-family")),
    "couple": (stage_couple, ("coupling-inputs", "couple")),
    "harnack": (stage_harnack, ("power", "calibration", "couple")),
}
FULL_PIPELINE = ("build-transform", "simulate", "krylov", "couple", "harnack")


def run_command(rep: RunReport, sc: Scenario, args):
    """Simulate every ensemble the command's stages read, once, then run
    the stages in order, each timed by its name.  full-pipeline couples
    only scenarios with declared constants."""
    names = (args.command,)
    if args.command == "full-pipeline":
        names = [n for n in FULL_PIPELINE
                 if sc.coupling is not None or n not in ("couple", "harnack")]
    ens = _ensembles(rep, sc, args, {r for n in names for r in STAGES[n][1]})
    for name in names:
        fn, reads = STAGES[name]
        _timed(rep, name, fn, rep, sc, args, *(ens[r] for r in reads))


def _timed(rep: RunReport, name: str, fn, *fn_args):
    t0 = time.perf_counter()
    out = fn(*fn_args)
    rep.timings[name] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_grid(text):
    try:
        n, m = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,m (two integers), got {text!r}")
    return n, m


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text):
    # the stages derive seeds up to seed + 1000, and each must fit Philox's
    # uint64 key
    if not text.isdecimal() or int(text) >= 2 ** 63:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, 2^63), got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    p = _Parser(prog="zvlab",
                description="singular-drift transform workbench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--scenario", required=True)
    common.add_argument("--seed", type=_seed, default=1)
    common.add_argument("--paths", type=_positive_int, default=None)
    common.add_argument("--grid", type=_parse_grid, default=None,
                        metavar="N,M", help="space,time node counts")
    common.add_argument("--lambda", dest="lam", type=float, default=None)
    common.add_argument("--gamma", type=float, default=None)
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--fast", action="store_true",
                        help="reduced paths and grid for smoke runs")
    for name in (*STAGES, "full-pipeline"):
        sub.add_parser(name, parents=[common])
    sub.add_parser("list-scenarios")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name in scenario_names():
            print(f"{name:14s} {get_scenario(name).description}")
        return 0
    try:
        sc = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep = RunReport(scenario=sc.name, seed=args.seed, config={
        "command": args.command, "scenario": sc.name, "seed": args.seed,
        "paths": args.paths, "grid": args.grid, "lambda": args.lam,
        "gamma": args.gamma, "fast": args.fast, "version": __version__,
    })
    try:
        _timed(rep, "command", run_command, rep, sc, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = csv_payload([rep])
    json_text = json_payload([rep])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.csv"), "w") as fh:
            fh.write(csv_text)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(json_text)
    else:
        sys.stdout.write(csv_text if args.format == "csv" else json_text)
    return combined_exit_code([rep])


if __name__ == "__main__":
    sys.exit(main())
