"""Command-line driver: stage-by-stage runs of the workbench pipeline.

Subcommands map to pipeline stages (corrector solve, transform build,
path simulation, occupation-functional estimate, coupled run, Harnack
checks) plus full-pipeline and list-scenarios.  Every run produces one
report: CSV carries the numeric payload only, JSON adds config and
timings.  Exit code 0 means all checks passed, 2 at least one failed,
3 at least one was inconclusive, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .coupling import (CouplingConfig, calibrate_k1, coalescence_report,
                       gamma_threshold, h5_certificate, harnack_power_check,
                       log_harnack_check, simulate_pair, verify_martingale,
                       verify_moment_bound)
from .fields import GridSpec, NormSpec
from .pde import solve_phi_system
from .report import RunReport, combined_exit_code, csv_payload, json_payload
from .scenarios import Scenario, get_scenario, scenario_names
from .sde import (SdeModel, SimSpec, bump_family_report, integrate,
                  interval_bump, krylov_estimate, original_model,
                  transformed_model)
from .zvonkin import (bilipschitz_certificate, build_zvonkin,
                      ellipticity_certificate, roundtrip_certificate,
                      transformed_constants)

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
    if args.paths:
        return args.paths
    return default // FAST_DIVISOR if args.fast else default


def _sim_spec(sc: Scenario, grid: GridSpec, args, n_paths: int) -> SimSpec:
    return SimSpec(T=grid.T, n_steps=max(grid.m, 100), n_paths=n_paths,
                   seed=args.seed, L=grid.L)


def _coupling_inputs(sc: Scenario, grid: GridSpec, args):
    """Pair, constants, start points, and ellipticity for the coupled stages.

    Scenarios with declared constants couple the raw coefficients; the
    singular ones couple the transformed equation with sampled constants.
    """
    if sc.coupling is not None:
        cs = sc.coupling
        pair = SdeModel(d=sc.d, drift=sc.coeffs.b1, sigma=sc.coeffs.sigma,
                        name=sc.name)
        consts = {"K_T": cs.K_T, "delta_T": cs.delta_T, "lam_T": cs.lam_T,
                  "alpha": cs.alpha, "declared": True}
        return pair, consts, np.array(cs.x), np.array(cs.y)
    zm = build_zvonkin(sc.coeffs, grid)
    consts = transformed_constants(zm, n_pairs=128, seed=args.seed + 900)
    consts["declared"] = False
    # the sampled one-sided/alignment statistics can be <= 0 (no singular
    # part); any upper bound is a valid constant, so floor them
    consts["K_T"] = max(consts["K_T"], 0.05)
    consts["delta_T"] = max(consts["delta_T"], 0.05)
    pair = transformed_model(zm)
    x = np.full(sc.d, 0.25)
    return pair, consts, x, -x


def _coupling_config(grid: GridSpec, args, consts, n_paths: int,
                     gamma: float | None = None) -> CouplingConfig:
    m = COUPLE_STEPS
    if args.fast:
        m = 100
    return CouplingConfig(T=grid.T, m=m, n_paths=n_paths, L=grid.L,
                          K_T=consts["K_T"], delta_T=consts["delta_T"],
                          lam_T=consts["lam_T"], alpha=consts["alpha"],
                          gamma=gamma)


# ---------------------------------------------------------------------------
# stages; each appends CheckRecords to the report


def stage_solve_pde(rep: RunReport, sc: Scenario, args):
    grid = _grid(sc, args)
    lam = args.lam if args.lam else 10.0
    sol = solve_phi_system(sc.coeffs, grid, lam)
    sup_phi = float(np.abs(sol.u).max())
    rep.add("pde-lambda", lam, "info")
    rep.add("pde-sup-phi", sup_phi, "pass" if np.isfinite(sup_phi) else "fail")
    rep.add("pde-capped-nodes", float(sol.capped_nodes), "info")


def stage_build_transform(rep: RunReport, sc: Scenario, args, pairs=4000):
    grid = _grid(sc, args)
    if args.fast:
        pairs = 1000
    zm = build_zvonkin(sc.coeffs, grid)
    rep.add("zvonkin-lambda", zm.lam, "info", provenance="fit")
    rep.add("zvonkin-grad-sup", zm.grad_sup,
            "pass" if zm.grad_sup < zm.grad_target else "fail",
            threshold=zm.grad_target)
    bl = bilipschitz_certificate(zm, n_pairs=pairs, seed=args.seed + 10)
    rep.add("bilip-violations", float(bl["violations"]),
            "pass" if bl["passed"] else "fail", threshold=0.0)
    rep.add("bilip-ratio-min", bl["ratio_min"], "pass", threshold=0.5)
    rep.add("bilip-ratio-max", bl["ratio_max"], "pass", threshold=1.5)
    rt = roundtrip_certificate(zm, n_points=pairs // 4, seed=args.seed + 11)
    rep.add("roundtrip-defect", max(rt["roundtrip_x"], rt["roundtrip_y"]),
            "pass" if rt["passed"] else "fail", threshold=rt["tol"])
    el = ellipticity_certificate(zm, n_points=pairs // 4, seed=args.seed + 12)
    rep.add("ellipticity-min-eig", el["min_eig"],
            "pass" if el["passed"] else "fail", threshold=el["lower_bound"])
    rep.add("ellipticity-max-eig", el["max_eig"],
            "pass" if el["passed"] else "fail", threshold=el["upper_bound"])
    if sc.coeffs.b0 is None:
        # no singular part: the transform must be the identity bit-for-bit
        pts = np.linspace(-grid.L / 2, grid.L / 2, 41)[:, None]
        Z, _, _ = zm.transformed(0.5 * grid.T, pts)
        same = bool(np.all(Z == sc.coeffs.b1(0.5 * grid.T, pts)))
        rep.add("identity-drift-nodes", float(same),
                "pass" if same else "fail", threshold=1.0,
                provenance="identity")
        rep.add("identity-grad-sup", zm.grad_sup,
                "pass" if zm.grad_sup == 0.0 else "fail", threshold=0.0,
                provenance="identity")
    else:
        tc = transformed_constants(zm, n_pairs=128, seed=args.seed + 13)
        rep.add("transformed-lip-Z", tc["lip_Z"],
                "pass" if np.isfinite(tc["lip_Z"]) else "fail")
    return zm


def stage_simulate(rep: RunReport, sc: Scenario, args):
    grid = _grid(sc, args)
    spec = _sim_spec(sc, grid, args, _n_paths(args, SIM_PATHS))
    model = original_model(sc.coeffs, sc.d)
    ens = integrate(model, np.array(sc.x0), spec)
    rr = ens.rng_report
    rep.add("escape-fraction", ens.escape_fraction,
            "pass" if ens.escape_fraction <= 0.01 else "fail", threshold=0.01)
    rep.add("rng-increment-mean", float(np.max(np.abs(rr["increment_mean"]))),
            "pass" if rr["mean_ok"] else "fail")
    rep.add("rng-increment-var", float(np.mean(rr["increment_var"])),
            "pass" if rr["var_ok"] else "fail")
    alive = ~ens.escaped
    rep.add("terminal-mean", float(ens.terminal[alive, 0].mean()), "info")
    rep.add("terminal-var", float(ens.terminal[alive, 0].var()), "info")
    return ens


def stage_krylov(rep: RunReport, sc: Scenario, args):
    grid = _grid(sc, args)
    spec = _sim_spec(sc, grid, args, _n_paths(args, SIM_PATHS))
    model = original_model(sc.coeffs, sc.d)
    ns = sc.b0_norm if sc.b0_norm is not None else NormSpec(p=4.0, q=16.0, d=sc.d)
    ev, norm_fn = interval_bump(0.0, 0.05)
    est = krylov_estimate(model, np.array(sc.x0), spec, ev, ns,
                          f_norm=norm_fn(ns, 0.0, grid.T))
    rep.add("krylov-ratio", est["ratio"], "info",
            ci_low=est["ci95"][0] / est["f_norm"],
            ci_high=est["ci95"][1] / est["f_norm"])
    fam = bump_family_report(model, np.array(sc.x0), spec, ns, BUMP_WIDTHS)
    rep.add("krylov-bump-max-over-median", fam["max_over_median"],
            "pass" if fam["passed"] else "fail", threshold=3.0)
    return est


def stage_couple(rep: RunReport, sc: Scenario, args):
    grid = _grid(sc, args)
    pair, consts, x, y = _coupling_inputs(sc, grid, args)
    cfg = _coupling_config(grid, args, consts, _n_paths(args, COUPLE_PATHS))
    for key in ("K_T", "delta_T", "lam_T"):
        rep.add(f"coupling-{key}", consts[key], "info",
                provenance="closed-form" if consts["declared"] else "sampled")
    if consts["declared"]:
        cert = h5_certificate(pair, cfg, seed=args.seed + 20)
        rep.add("h5-certificate", float(cert["passed"]),
                "pass" if cert["passed"] else "fail", threshold=1.0)
    res = simulate_pair(pair, x, y, cfg, seed=args.seed)
    mg = verify_martingale(res)
    worst = max(abs(m - 1.0) / se if se > 0 else 0.0
                for m, se in zip(mg["means"], mg["ses"]))
    rep.add("girsanov-worst-zscore", worst,
            "pass" if mg["passed"] else "fail", threshold=3.0)
    mb = verify_moment_bound(res)
    rep.add("moment-lhs", mb["lhs"], "pass" if mb["passed"] else "fail",
            threshold=mb["threshold"])
    co = coalescence_report(res)
    rep.add("coalescence-decreasing", float(co["decreasing"]),
            "pass" if co["decreasing"] else "fail", threshold=1.0)
    rep.add("coalescence-final-median", co["medians"][-1],
            "pass" if co["final_ok"] else "fail",
            threshold=co["final_scale_bound"])
    rep.add("truncation-fraction", res.trunc_events / res.total_events,
            "pass" if res.trunc_events < 0.001 * res.total_events else "fail",
            threshold=0.001)
    return res


def stage_harnack(rep: RunReport, sc: Scenario, args):
    grid = _grid(sc, args)
    pair, consts, x, y = _coupling_inputs(sc, grid, args)
    base = _coupling_config(grid, args, consts, _n_paths(args, COUPLE_PATHS))
    thr = gamma_threshold(base)
    gamma = args.gamma if args.gamma else (
        DEFAULT_GAMMA if DEFAULT_GAMMA > thr else 2.0 * thr)
    if gamma <= thr:
        raise ValueError(f"gamma {gamma} is below the admissible threshold "
                         f"{thr:.3f} for this scenario's constants")
    cfg = replace(base, gamma=gamma)
    rep.add("harnack-gamma", gamma, "info")
    rep.add("harnack-gamma-threshold", thr, "info", provenance="closed-form")
    power = harnack_power_check(pair, list(HARNACK_FS), x, y, cfg,
                                seed=args.seed)
    for c in power["checks"]:
        rep.add(f"power-harnack-{c['f']}", c["lhs"], c["verdict"],
                threshold=c["threshold"])
    rep.add("power-exponent-corrected", power["exponent"]["corrected"],
            "info", provenance="closed-form")
    cal = calibrate_k1(pair, list(HARNACK_FS), x, y, base,
                       kappa1=consts["lam_T"], seed=args.seed + 1000)
    rep.add("log-harnack-k1", cal["k1_hat"], "info", provenance="fit")
    logrep = log_harnack_check(pair, list(HARNACK_FS), x, y, base,
                               kappa1=consts["lam_T"], k1_hat=cal["k1_hat"],
                               seed=args.seed)
    for c in logrep["checks"]:
        rep.add(f"log-harnack-{c['f']}", c["lhs"], c["verdict"],
                threshold=c["threshold"])
    return power


def stage_full(rep: RunReport, sc: Scenario, args):
    for name, fn in (("build-transform", stage_build_transform),
                     ("simulate", stage_simulate),
                     ("krylov", stage_krylov)):
        _timed(rep, name, fn, sc, args)
    if sc.coupling is not None:
        _timed(rep, "couple", stage_couple, sc, args)
        _timed(rep, "harnack", stage_harnack, sc, args)


STAGES = {
    "solve-pde": stage_solve_pde,
    "build-transform": stage_build_transform,
    "simulate": stage_simulate,
    "krylov": stage_krylov,
    "couple": stage_couple,
    "harnack": stage_harnack,
    "full-pipeline": stage_full,
}


def _timed(rep: RunReport, name: str, fn, sc, args):
    t0 = time.perf_counter()
    out = fn(rep, sc, args)
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
        raise argparse.ArgumentTypeError("expected n,m (two integers)")
    return n, m


def build_parser() -> _Parser:
    p = _Parser(prog="zvlab",
                description="singular-drift transform workbench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--scenario", required=True)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--paths", type=int, default=None)
    common.add_argument("--grid", type=_parse_grid, default=None,
                        metavar="N,M", help="space,time node counts")
    common.add_argument("--lambda", dest="lam", type=float, default=None)
    common.add_argument("--gamma", type=float, default=None)
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--fast", action="store_true",
                        help="reduced paths and grid for smoke runs")
    for name in STAGES:
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
        _timed(rep, args.command, STAGES[args.command], sc, args)
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
