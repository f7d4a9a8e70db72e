"""End-to-end acceptance suite: one test per shipped criterion, in order.

Each test prints a single line `criterion NN <name>: PASS (...)` with the
measured quantities and asserts the criterion's desk-scale wall budget.
Heavy artifacts (the n=401 transform build, the 1e5-path coupled run,
the transformed coupling setup) are built once on first use and shared
by the later criteria in file order.
"""

import contextlib
import io
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from zvlab.cli import main as cli_main
from zvlab.coupling import (CouplingConfig, calibrate_k1, coalescence_report,
                            gamma0, gamma_threshold, simulate_pair,
                            simulate_pairs, theta_for_gamma, verify_log_harnack,
                            verify_martingale, verify_moment_bound,
                            verify_power_harnack, within)
from zvlab.fields import CoefficientSet, GridSpec, NormSpec, constant_sigma
from zvlab.flow import gronwall_bound, solve_flow, solve_inverse_flow
from zvlab.pde import lambda_sweep, sample_operator, solve_backward
from zvlab.scenarios import get_scenario
from zvlab.sde import (SdeModel, SimSpec, bump_family_report, integrate,
                       interval_bump, krylov_estimate, original_model,
                       transform_consistency, transformed_model)
from zvlab.zvonkin import (bilipschitz_certificate, build_zvonkin,
                           transformed_constants)

pytestmark = pytest.mark.acceptance

_shared = {}


@contextlib.contextmanager
def criterion(num, title, budget_s):
    info = {}
    t0 = time.perf_counter()
    yield info
    dt = time.perf_counter() - t0
    details = "; ".join(f"{k}={v}" for k, v in info.items())
    print(f"criterion {num:02d} {title}: PASS ({dt:.1f}s / {budget_s:.0f}s) "
          + details)
    assert dt <= budget_s, f"criterion {num} over budget: {dt:.1f}s"


def unit_sigma_coeffs(**kw):
    return CoefficientSet(sigma=constant_sigma([[1.0]]), kappa1=1.0,
                          kappa2=1.0, **kw)


def additive_pair():
    sc = get_scenario("additive-1d")

    def sigma(t, x):
        return np.ones(x.shape[:-1] + (1, 1))

    return SdeModel(d=1, drift=sc.coeffs.total_drift, sigma=sigma)


def additive_cfg(**kw):
    base = dict(T=1.0, m=200, n_paths=100_000, L=8.0,
                K_T=1.0, delta_T=1.0, lam_T=1.0, alpha=1.0, theta=1.0)
    base.update(kw)
    return CouplingConfig(**base)


def f_shift_sin(z):
    return 1.0 + 0.5 * np.sin(z[:, 0])


def f_gauss(z):
    return 0.5 + np.exp(-z[:, 0] ** 2)


def f_level(z):
    return np.full(z.shape[0], 2.0)


def f_cauchy(z):
    return 0.2 + 1.0 / (1.0 + z[:, 0] ** 2)


def f_exp(z):
    # mild rate so the gamma-th power stays estimable at desk-scale N
    return np.exp(0.05 * z[:, 0])


FIVE_FS = (f_shift_sin, f_gauss, f_level, f_cauchy, f_exp)


def singular_zvonkin_401():
    if "zm401" not in _shared:
        sc = get_scenario("singular-1d")
        _shared["zm401"] = build_zvonkin(sc.coeffs, sc.grid)
    return _shared["zm401"]


def additive_run_1e5():
    if "res1e5" not in _shared:
        _shared["res1e5"] = simulate_pair(additive_pair(), [0.25], [-0.25],
                                          additive_cfg(), seed=71)
    return _shared["res1e5"]


def transformed_setup():
    """Coupled pair for the transformed singular scenario with sampled
    constants, built on the coarser registry-shape grid."""
    if "tpair" not in _shared:
        sc = get_scenario("singular-1d")
        grid = replace(sc.grid, n=201, m=200)
        zm = build_zvonkin(sc.coeffs, grid)
        consts = transformed_constants(zm, n_pairs=256, seed=77)
        _shared["tpair"] = (transformed_model(zm), consts)
    return _shared["tpair"]


# ---------------------------------------------------------------------------


def test_c01_pde_oracle_accuracy():
    T = 1.0

    def make(n, m):
        def f(t, x):
            r = np.asarray(x)[..., 0]
            g = np.exp(-r ** 2 / 4.0)
            return -g + (T - t) * (r ** 2 - 2.0) / 8.0 * g

        grid = GridSpec(d=1, n=n, m=m, L=8.0, T=T)
        op = sample_operator(unit_sigma_coeffs(f=f), grid)
        u = solve_backward(op, 0.0, op["f"])
        exact = (T - grid.ts)[:, None] * np.exp(-grid.xs[None, :] ** 2 / 4.0)
        return float(np.max(np.abs(u[..., 0] - exact)))

    with criterion(1, "pde-oracle", 10.0) as info:
        err = make(161, 200)
        err_coarse = make(81, 50)
        info["sup_err"] = f"{err:.2e}"
        info["conv_factor"] = f"{err_coarse / err:.2f}"
        assert err <= 1e-3
        assert err_coarse / err >= 2.5


def test_c02_lambda_decay():
    sc = get_scenario("ou-lipschitz")
    lambdas = [10.0, 100.0, 1000.0, 10000.0]
    ns = NormSpec(p=4, q=4, d=1)

    def f_bounded(t, x):
        return np.exp(-np.asarray(x)[..., 0] ** 2)

    def f_const(t, x):
        return np.ones(np.asarray(x).shape[:-1])

    with criterion(2, "lambda-decay", 60.0) as info:
        co = replace(sc.coeffs, f=f_bounded)
        res = lambda_sweep(co, sc.grid, lambdas, ns)
        assert res.non_increasing
        assert res.envelope_ok
        co_c = replace(sc.coeffs, f=f_const)
        ctrl = lambda_sweep(co_c, sc.grid, lambdas, ns)
        assert ctrl.slope <= -0.9
        for lam, nv in zip(ctrl.lambdas, ctrl.norms):
            exact = (1.0 - math.exp(-lam * sc.grid.T)) / lam
            assert nv == pytest.approx(exact, rel=0.03)
        info["envelope_exponent"] = f"{-ns.decay_exponent + 0.2:.3f}"
        info["control_slope"] = f"{ctrl.slope:.3f}"


def test_c03_flow_identities():
    A = np.array([[-1.0, 0.3], [0.2, -0.5]])
    lip = float(np.linalg.norm(A, 2))   # true Lipschitz constant of x -> Ax

    def drift(t, x):
        return x @ A.T

    with criterion(3, "flow-identities", 10.0) as info:
        grid = GridSpec(d=2, n=21, m=40, L=3.0, T=0.5)
        fm = solve_flow(drift, grid, lip=lip)
        solve_inverse_flow(fm, drift)
        nodes = grid.nodes()
        defect = 0.0
        for k in range(grid.m + 1):
            E = expm(A * (grid.ts[k] - grid.T))
            Ei = expm(A * (grid.T - grid.ts[k]))
            defect = max(defect,
                         float(np.abs(fm.psi[k] - nodes @ E.T).max()),
                         float(np.abs(fm.grad_psi[k] - E).max()),
                         float(np.abs(fm.psi_inv[k] - nodes @ Ei.T).max()),
                         float(np.abs(fm.grad_psi_inv[k] - Ei).max()))
        info["defect"] = f"{defect:.2e}"
        info["sup_grad"] = f"{fm.sup_grad():.4f}"
        assert defect <= 1e-6
        assert fm.sup_grad() <= math.exp(lip * grid.T) * (1 + 1e-6)
        assert gronwall_bound(fm, lip=lip)


def test_c04_zvonkin_certificates():
    with criterion(4, "zvonkin-certificates", 120.0) as info:
        zm = singular_zvonkin_401()
        cert = bilipschitz_certificate(zm, n_pairs=10_000, seed=41)
        info["lambda"] = f"{zm.lam:g}"
        info["grad_sup"] = f"{zm.grad_sup:.4f}"
        info["pairs"] = cert["pairs"]
        info["violations"] = cert["violations"]
        assert zm.lam <= 640.0
        assert zm.grad_sup < 0.5
        assert cert["pairs"] == 80_000      # 1e4 pairs on each of 8 slices
        assert cert["violations"] == 0


def test_c05_transform_consistency():
    with criterion(5, "transform-consistency", 180.0) as info:
        zm = singular_zvonkin_401()
        rep = transform_consistency(zm, np.array([0.25]),
                                    [200, 400, 800, 1600],
                                    n_paths=10_000, seed=51)
        errs = rep["error"]
        info["errors"] = "[" + ", ".join(f"{e:.2e}" for e in errs) + "]"
        info["slope"] = f"{rep['slope']:.3f}"
        assert rep["decreasing"]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert rep["slope"] >= 0.3


def test_c06_krylov_content():
    with criterion(6, "krylov-content", 120.0) as info:
        # Brownian local-time oracle at the origin
        model = original_model(unit_sigma_coeffs(), 1)
        spec = SimSpec(T=1.0, n_steps=2000, n_paths=100_000, seed=61, L=4.0)
        ns = NormSpec(p=4.0, q=16.0, d=1)
        ev, norm_fn = interval_bump(0.0, 0.05)
        est = krylov_estimate(model, np.array([0.0]), spec, ev, ns,
                              f_norm=norm_fn(ns, 0.0, 1.0))
        target = math.sqrt(2.0 / math.pi)
        info["local_time"] = f"{est['estimate']:.4f}"
        info["target"] = f"{target:.4f}"
        assert abs(est["estimate"] - target) <= 0.05 * target
        # no blow-up across sharpening bumps on the singular scenario
        sc = get_scenario("singular-1d")
        spec2 = SimSpec(T=1.0, n_steps=400, n_paths=20_000, seed=62, L=2.0)
        fam = bump_family_report(original_model(sc.coeffs, 1),
                                 np.array([0.25]), spec2, sc.b0_norm,
                                 [0.05 * 2 ** (j / 2) for j in range(5)])
        info["max_over_median"] = f"{fam['max_over_median']:.2f}"
        assert fam["passed"]
        assert fam["max_over_median"] <= 3.0


def test_c07_girsanov_martingale():
    with criterion(7, "girsanov-martingale", 60.0) as info:
        res = additive_run_1e5()
        rep = verify_martingale(res)
        info["sample_times"] = len(rep["times"])
        info["worst_z"] = f"{rep['worst_zscore']:.2f}"
        assert len(rep["times"]) == 8
        assert rep["passed"], rep
        neg = verify_martingale(res, drop_half_term=True)
        info["neg_control_mean"] = f"{neg['means'][-1]:.4f}"
        assert not neg["passed"]
        assert neg["means"][-1] > 1.0 + 3.0 * neg["ses"][-1]


def test_c08_moment_bound():
    with criterion(8, "moment-bound", 60.0) as info:
        res = additive_run_1e5()
        rep = verify_moment_bound(res)
        frozen_rhs = math.exp(1.25 / (48.0 * (1.0 - math.exp(-1.0))))
        info["gamma0"] = f"{rep['gamma0']:.6f}"
        info["lhs"] = f"{rep['lhs']:.6f}"
        info["rhs"] = f"{rep['rhs']:.6f}"
        assert rep["gamma0"] == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert rep["rhs"] == pytest.approx(frozen_rhs, rel=1e-12)
        assert rep["passed"], rep
        # equality case x = y: R identically one, zero accumulators
        res0 = simulate_pair(additive_pair(), [0.25], [0.25],
                             additive_cfg(n_paths=256), seed=72)
        rep0 = verify_moment_bound(res0)
        assert rep0["lhs"] == 1.0 and rep0["rhs"] == 1.0 and rep0["passed"]
        assert np.all(res0.A == 0.0) and np.all(res0.B == 0.0)


def test_c09_coalescence_trend():
    with criterion(9, "coalescence", 60.0) as info:
        res = additive_run_1e5()
        rep = coalescence_report(res)
        assert np.allclose(rep["eps"], [0.2, 0.1, 0.05, 0.02])
        info["medians"] = "[" + ", ".join(f"{m:.4f}" for m in rep["medians"]) + "]"
        assert rep["decreasing"], rep
        assert all(b < a for a, b in zip(rep["medians"], rep["medians"][1:]))


def test_c10_power_harnack():
    add_pairs = [([0.25], [-0.25]), ([0.5], [0.0]),
                 ([-0.3], [0.1]), ([0.15], [-0.35])]
    tr_pairs = [([0.1], [-0.1]), ([0.2], [0.0]),
                ([-0.15], [0.05]), ([0.05], [-0.15])]
    with criterion(10, "power-harnack", 600.0) as info:
        # additive testbed at gamma = 16
        cfg = additive_cfg(n_paths=20_000, gamma=16.0)
        th = theta_for_gamma(cfg)
        assert abs(gamma0(replace(cfg, theta=th)) * (16.0 - 1.0) - 1.0) <= 1e-12
        assert gamma_threshold(cfg) == pytest.approx(9.0, abs=1e-12)
        # the power runs are at theta(gamma), all four in one batch
        pcfg = replace(cfg, theta=th)
        runs = simulate_pairs([(additive_pair(), x, y, pcfg, 81 + k)
                               for k, (x, y) in enumerate(add_pairs)])
        for (x, y), res in zip(add_pairs, runs, strict=True):
            rep = verify_power_harnack(res, list(FIVE_FS))
            assert rep["passed"], (x, y, rep)
            assert not rep["inconclusive"]
        info["additive"] = f"{len(add_pairs)} pairs x {len(FIVE_FS)} fs"
        # transformed singular scenario with gamma from its own threshold
        pair, consts = transformed_setup()
        base = CouplingConfig(T=1.0, m=200, n_paths=20_000, L=2.0,
                              K_T=consts["K_T"], delta_T=consts["delta_T"],
                              lam_T=consts["lam_T"], alpha=consts["alpha"])
        thr = gamma_threshold(base)
        gam = 2.0 * thr
        tcfg = replace(base, gamma=gam)
        th_t = theta_for_gamma(tcfg)
        assert abs(gamma0(replace(tcfg, theta=th_t)) * (gam - 1.0) - 1.0) <= 1e-12
        ptcfg = replace(tcfg, theta=th_t)
        runs = simulate_pairs([(pair, x, y, ptcfg, 91 + k)
                               for k, (x, y) in enumerate(tr_pairs)])
        for (x, y), res in zip(tr_pairs, runs, strict=True):
            rep = verify_power_harnack(res, list(FIVE_FS))
            assert rep["passed"], (x, y, rep)
            assert not rep["inconclusive"]
        info["transformed_gamma"] = f"{gam:.2f}"
        info["transformed"] = f"{len(tr_pairs)} pairs x {len(FIVE_FS)} fs"


def test_c11_log_harnack():
    grid_pts = [-0.2, 0.0, 0.2]
    with criterion(11, "log-harnack", 300.0) as info:
        pair, consts = transformed_setup()
        cfg = CouplingConfig(T=1.0, m=200, n_paths=10_000, L=2.0,
                             K_T=consts["K_T"], delta_T=consts["delta_T"],
                             lam_T=consts["lam_T"], alpha=consts["alpha"])
        kap = consts["lam_T"]
        # all 13 runs in one batch: two degenerate, two calibration and the
        # 3x3 start grid; k1_hat enters only the grid's verify step
        grid = [([xv], [yv], 120 + 3 * i + j)
                for i, xv in enumerate(grid_pts)
                for j, yv in enumerate(grid_pts)]
        res0, resc, res_a, res_b, *res_grid = simulate_pairs(
            [(pair, [0.2], [0.2], cfg, 101), (pair, [0.2], [0.2], cfg, 102),
             (pair, [0.1], [-0.1], cfg, 111), (pair, [-0.1], [0.1], cfg, 112)]
            + [(pair, x, y, cfg, seed) for x, y, seed in grid])
        # degenerate cases are exact: x = y gives R = 1 so the claim is
        # sample Jensen; a constant f at x = y is equal up to roundoff
        rep0 = verify_log_harnack(res0, list(FIVE_FS), kappa1=kap, k1_hat=1.0)
        assert rep0["passed"]
        for c in rep0["checks"]:
            assert within(c["lhs"], c["rhs"], 0.0)
        repc = verify_log_harnack(resc, [f_level], kappa1=kap, k1_hat=1.0)
        assert repc["passed"]
        c0 = repc["checks"][0]
        assert c0["lhs"] == pytest.approx(c0["rhs"], abs=1e-14)
        # calibrate at the finest grid separation in both orientations
        # (monotone f make the needed constant direction-dependent),
        # freeze the max, then verify across the 3x3 start grid
        cal_a = calibrate_k1(res_a, list(FIVE_FS), kappa1=kap)
        cal_b = calibrate_k1(res_b, list(FIVE_FS), kappa1=kap)
        k1_hat = max(cal_a["k1_hat"], cal_b["k1_hat"])
        info["k1_hat"] = f"{k1_hat:.4f}"
        n_pass = 0
        for (x, y, _), res in zip(grid, res_grid, strict=True):
            rep = verify_log_harnack(res, list(FIVE_FS), kappa1=kap,
                                     k1_hat=k1_hat)
            assert rep["passed"], (x, y, rep)
            n_pass += 1
        info["grid"] = f"{n_pass}/9 pairs"


def test_c12_determinism_across_workers():
    argv = ["full-pipeline", "--scenario", "trivial-zero", "--seed", "1",
            "--fast"]
    with criterion(12, "determinism", 30.0) as info:
        outputs = []
        saved = os.environ.get("ZVLAB_THREADS")
        try:
            for w in (1, 4, 8):
                os.environ["ZVLAB_THREADS"] = str(w)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv)
                assert code == 0
                outputs.append(buf.getvalue())
        finally:
            if saved is None:
                os.environ.pop("ZVLAB_THREADS", None)
            else:
                os.environ["ZVLAB_THREADS"] = saved
        assert outputs[0] == outputs[1] == outputs[2]
        info["workers"] = "1/4/8"
        info["bytes"] = len(outputs[0].encode())
