"""Coupling-layer tests: gain/exponent arithmetic against hand-computed
values, the deterministic distance ODE of the additive testbed, exact
mean-one Girsanov weights with a negative control, moment and Harnack
bounds, coalescence, and determinism of the pair simulation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zvlab.coupling import (CouplingConfig, build_coupling_grid,
                            calibrate_k1, coalescence_report, eta, gamma0,
                            gamma_threshold, h5_certificate,
                            harnack_power_check, log_harnack_check,
                            moment_bound_rhs, power_harnack_exponent,
                            simulate_pair, theta_for_gamma, verify_martingale,
                            verify_moment_bound, within)
from zvlab.sde import SdeModel

E1 = 1.0 - math.exp(-1.0)      # 0.6321205588285577


def unit_cfg(**kw):
    base = dict(T=1.0, m=200, n_paths=100, L=8.0,
                K_T=1.0, delta_T=1.0, lam_T=1.0, alpha=1.0, theta=1.0)
    base.update(kw)
    return CouplingConfig(**base)


def additive_pair(drift_slope=0.0, sigma_scale=1.0):
    def drift(t, x):
        return drift_slope * x

    def sigma(t, x):
        return np.full(x.shape[:-1] + (1, 1), sigma_scale)

    return SdeModel(d=1, drift=drift, sigma=sigma)


# ---------------------------------------------------------------------------
# arithmetic oracles


def test_eta_oracles():
    cfg = unit_cfg()
    assert eta(0.0, cfg) == pytest.approx(E1, abs=1e-15)
    assert eta(0.0, cfg) == pytest.approx(0.6321205588285577, abs=1e-12)
    # first-order expansion near the horizon
    assert eta(1.0 - 1e-9, cfg) == pytest.approx(1e-9, rel=0.01)
    # vanishing K_T: eta -> (2 alpha - theta)(T - t)
    cfg0 = unit_cfg(K_T=1e-12, theta=0.7)
    ts = np.linspace(0.0, 0.95, 7)
    assert np.allclose(eta(ts, cfg0), 1.3 * (1.0 - ts), rtol=1e-9)
    vals = eta(np.linspace(0, 0.99, 50), cfg)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        eta(1.0, cfg)
    with pytest.raises(ValueError):
        eta(np.array([0.5, 1.2]), cfg)


def test_gamma0_oracles():
    assert gamma0(unit_cfg()) == pytest.approx(1.0 / 24.0, abs=1e-15)
    tiny = gamma0(unit_cfg(theta=1e-6))
    assert 0 < tiny < 1e-11
    vals = [gamma0(unit_cfg(delta_T=d)) for d in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theta_for_gamma_oracle_and_boundary():
    cfg = unit_cfg(gamma=16.0)
    assert gamma_threshold(cfg) == pytest.approx(9.0, abs=1e-12)
    assert theta_for_gamma(cfg) == pytest.approx(4.0 / 3.0, abs=1e-14)
    with pytest.raises(ValueError, match="below Harnack threshold"):
        theta_for_gamma(cfg, 9.0)
    with pytest.raises(ValueError, match="below Harnack threshold"):
        theta_for_gamma(cfg, 5.0)


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(0.1, 3.0), lam=st.floats(0.2, 4.0),
       alpha=st.floats(0.55, 1.0), mult=st.floats(1.05, 12.0))
def test_theta_gamma_moment_identity(delta, lam, alpha, mult):
    cfg = CouplingConfig(T=1.0, m=2, n_paths=1, L=1.0, K_T=1.0,
                         delta_T=delta, lam_T=lam, alpha=alpha, theta=alpha)
    gam = gamma_threshold(cfg) * mult
    th = theta_for_gamma(cfg, gam)
    assert 0 < th < 2 * alpha
    g0 = gamma0(replace(cfg, theta=th))
    assert abs(g0 * (gam - 1.0) - 1.0) <= 1e-12


def test_moment_rhs_oracle_and_monotone():
    cfg = unit_cfg()
    # (4+1)*1*1*0.25 / (16*3*1*(1-e^{-1})*1), exponentiated
    expected = math.exp(1.25 / (48.0 * E1))
    assert moment_bound_rhs(cfg, 0.5) == pytest.approx(expected, rel=1e-13)
    assert moment_bound_rhs(cfg, 0.0) == 1.0
    vals = [moment_bound_rhs(cfg, r) for r in (0.1, 0.3, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_power_exponent_closed_form_and_printed_degeneracy():
    cfg = unit_cfg(gamma=16.0)
    expo = power_harnack_exponent(cfg, 0.5)
    # sqrt(16)(sqrt(16)-1)*1*0.25 / (4*1*(1*1*3-2)*(1-e^{-1}))
    assert expo["corrected"] == pytest.approx(3.0 / (4.0 * E1), rel=1e-13)
    assert expo["printed_degenerate"]
    assert expo["theta"] == pytest.approx(4.0 / 3.0)
    # the closed form is (gamma-1) log of the moment bound at theta(gamma)
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = unit_cfg(delta_T=rng.uniform(0.1, 2.0), lam_T=rng.uniform(0.3, 3.0),
                     alpha=rng.uniform(0.55, 1.0), K_T=rng.uniform(0.2, 2.0))
        gam = gamma_threshold(c) * rng.uniform(1.1, 8.0)
        r = rng.uniform(0.05, 1.5)
        th = theta_for_gamma(c, gam)
        direct = power_harnack_exponent(c, r, gam)["corrected"]
        via_moment = (gam - 1.0) * math.log(moment_bound_rhs(replace(c, theta=th), r))
        assert direct == pytest.approx(via_moment, rel=1e-12)
        assert direct > 0
        assert power_harnack_exponent(c, r, gam)["printed_degenerate"]


def test_config_validation():
    with pytest.raises(ValueError, match="even"):
        unit_cfg(m=201)
    with pytest.raises(ValueError, match="theta"):
        unit_cfg(theta=2.0)
    with pytest.raises(ValueError, match="alpha"):
        unit_cfg(alpha=0.5)
    with pytest.raises(ValueError, match="eps_stop"):
        unit_cfg(eps_stop=0.2)
    with pytest.raises(ValueError, match="gamma"):
        unit_cfg(gamma=1.0)


# ---------------------------------------------------------------------------
# sub-stepped grid


def test_grid_builder_structure():
    cfg = unit_cfg(m=200)
    grid = build_coupling_grid(cfg)
    h = 1.0 / 200
    assert grid.ts[0] == 0.0
    assert grid.ts[-1] == 0.98
    assert abs(grid.dts.sum() - 0.98) <= 1e-12
    # one hundred base steps before the first halving, then halved segments
    assert np.sum(grid.dts == h) == 100
    for k in (1, 2, 3, 4):
        assert np.sum(grid.dts == h / 2 ** k) == 100
    assert np.sum(np.isclose(grid.dts, h / 32)) == 72
    assert grid.dts.min() >= h / 32 * 0.5
    assert grid.sample_idx.size == 8
    assert grid.sample_idx[-1] == grid.dts.size      # last sample is the stop
    assert np.allclose(grid.eps_times, [0.8, 0.9, 0.95, 0.98])
    assert np.all(grid.eta_vals > 0)


# ---------------------------------------------------------------------------
# pair simulation against the deterministic distance ODE


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_distance_ode_oracle(c):
    # additive noise cancels in the difference: dD = -D/eta dt exactly; with
    # sigma = c the correction sigma_Y sigma_X^{-1} g is g only if the engine
    # applies the inverse (c = 1 is its own inverse and cannot tell)
    cfg = unit_cfg(m=10_000, n_paths=4, K_T=0.01)
    res = simulate_pair(additive_pair(sigma_scale=c), [0.25], [-0.25], cfg,
                        seed=101)
    dists = res.dist_at_eps
    # per-path rounding of the shared-noise additions only; the difference
    # dynamics are deterministic
    assert np.ptp(dists, axis=0).max() <= 1e-12

    def inv_eta(s):
        return 1.0 / eta(s, cfg)

    for j, t_rec in enumerate(res.eps_times):
        integral = quad(inv_eta, 0.0, t_rec, limit=200)[0]
        target = 0.5 * math.exp(-integral)
        assert dists[0, j] == pytest.approx(target, rel=1e-3)
    assert res.clip_events == 0 and res.trunc_events == 0


def test_martingale_mean_one_and_negative_control():
    cfg = unit_cfg(m=400, n_paths=20_000)
    res = simulate_pair(additive_pair(), [0.25], [-0.25], cfg, seed=7)
    rep = verify_martingale(res)
    assert rep["passed"], rep
    assert all(se > 0 for se in rep["ses"])
    # dropping the -1/2 int |v|^2 term biases E R above 1
    neg = verify_martingale(res, drop_half_term=True)
    assert not neg["passed"]
    assert neg["means"][-1] > 1.0 + 3.0 * neg["ses"][-1]
    # desk-scale run never touches the truncation or overshoot guards
    assert res.trunc_events == 0
    assert res.clip_events == 0
    assert res.total_events == 20_000 * res.n_steps
    assert not res.box_exit.any()


def test_moment_bound_additive_and_equality_case():
    cfg = unit_cfg(m=400, n_paths=20_000)
    res = simulate_pair(additive_pair(), [0.25], [-0.25], cfg, seed=7)
    rep = verify_moment_bound(res)
    assert rep["passed"], rep
    assert rep["gamma0"] == pytest.approx(1.0 / 24.0)
    assert rep["rhs"] == pytest.approx(math.exp(1.25 / (48.0 * E1)), rel=1e-12)
    assert rep["lhs"] > 1.0          # genuine weights, not the trivial case
    # x = y: R identically 1, equality holds exactly
    cfg_small = unit_cfg(m=200, n_paths=64)
    res0 = simulate_pair(additive_pair(), [0.3], [0.3], cfg_small, seed=9)
    rep0 = verify_moment_bound(res0)
    assert rep0["lhs"] == 1.0 and rep0["rhs"] == 1.0 and rep0["passed"]
    mg0 = verify_martingale(res0)
    assert mg0["passed"] and all(se == 0.0 for se in mg0["ses"])
    assert res0.glued.all()
    assert np.all(res0.dist_at_eps == 0.0)
    assert np.array_equal(res0.final_X, res0.final_Y)
    assert np.all(res0.A == 0.0) and np.all(res0.B == 0.0)


def test_coalescence_trend():
    cfg = unit_cfg(m=400, n_paths=20_000)
    res = simulate_pair(additive_pair(), [0.25], [-0.25], cfg, seed=7)
    rep = coalescence_report(res)
    assert rep["decreasing"], rep
    assert rep["final_ok"], rep
    assert rep["glued_fraction"] == 0.0    # contraction alone, no gluing yet


def test_gluing_freezes_pair_and_weights():
    # strong gain margin: the pair contracts below the floor well before the
    # stop, after which Y rides X bit-for-bit and the weights freeze
    cfg = unit_cfg(m=400, n_paths=200, K_T=0.01, theta=1.9)
    res = simulate_pair(additive_pair(), [0.25], [-0.25], cfg, seed=13)
    assert res.glued.all()
    assert np.all(res.dist_at_eps[:, -2:] == 0.0)
    assert np.array_equal(res.final_X, res.final_Y)
    assert np.array_equal(res.A[:, -1], res.A[:, -2])
    assert np.array_equal(res.B[:, -1], res.B[:, -2])
    rep = verify_martingale(res)
    assert rep["passed"]


def test_worker_invariance_bitwise():
    cfg = unit_cfg(m=100, n_paths=9000)
    runs = [simulate_pair(additive_pair(drift_slope=-0.5), [0.3], [-0.2],
                          cfg, seed=5, workers=w) for w in (1, 3)]
    assert np.array_equal(runs[0].A, runs[1].A)
    assert np.array_equal(runs[0].B, runs[1].B)
    assert np.array_equal(runs[0].dist_at_eps, runs[1].dist_at_eps)
    assert np.array_equal(runs[0].final_Y, runs[1].final_Y)


def test_box_exit_policy():
    cfg = unit_cfg(m=100, n_paths=256, L=0.8)
    with pytest.raises(RuntimeError, match="box exit"):
        simulate_pair(additive_pair(drift_slope=4.0), [0.35], [-0.35], cfg, seed=3)


def test_h5_certificate_measures_constants():
    cfg = unit_cfg(L=4.0)
    pair = additive_pair(drift_slope=-0.5)
    rep = h5_certificate(pair, cfg)
    assert rep["passed"], rep
    assert rep["aligned"] == 0.0          # additive noise
    assert rep["min_eig"] == pytest.approx(1.0)
    # a claimed floor above the true ellipticity must be caught
    bad = h5_certificate(pair, unit_cfg(L=4.0, lam_T=2.0))
    assert not bad["lam_T_ok"] and not bad["passed"]


# ---------------------------------------------------------------------------
# Harnack checks


def f_shift_sin(z):
    return 1.0 + 0.5 * np.sin(z[:, 0])


def f_const(z):
    return np.ones(z.shape[0])


def f_gauss(z):
    return 0.5 + np.exp(-z[:, 0] ** 2)


def test_power_harnack_additive_smoke():
    cfg = unit_cfg(m=200, n_paths=20_000, gamma=16.0)
    rep = harnack_power_check(additive_pair(), [f_shift_sin, f_const, f_gauss],
                              [0.25], [-0.25], cfg, seed=17)
    assert rep["passed"], rep
    assert not rep["inconclusive"]
    assert rep["theta"] == pytest.approx(4.0 / 3.0)
    assert rep["exponent"]["printed_degenerate"]
    for c in rep["checks"]:
        assert c["combined_rel_se"] <= 0.10


def test_power_harnack_jensen_at_equal_points():
    cfg = unit_cfg(m=200, n_paths=20_000, gamma=16.0)
    rep = harnack_power_check(additive_pair(), [f_shift_sin, f_gauss],
                              [0.3], [0.3], cfg, seed=19)
    assert rep["passed"]
    for c in rep["checks"]:
        assert c["lhs"] <= c["rhs"]      # sample Jensen, no SE slack needed


def test_power_harnack_symmetry_of_verdicts():
    # mirror-symmetric f: swapping the roles of x and y gives a law-identical
    # run, so both directions must reach the same verdict
    cfg = unit_cfg(m=200, n_paths=20_000, gamma=16.0)
    fwd = harnack_power_check(additive_pair(), [f_gauss], [0.25], [-0.25],
                              cfg, seed=23)
    rev = harnack_power_check(additive_pair(), [f_gauss], [-0.25], [0.25],
                              cfg, seed=24)
    assert fwd["passed"] and rev["passed"]
    assert fwd["checks"][0]["lhs"] == pytest.approx(rev["checks"][0]["lhs"], rel=0.25)


def test_power_harnack_requires_gamma_and_positive_f():
    cfg = unit_cfg(m=200, n_paths=500)
    with pytest.raises(ValueError, match="gamma"):
        harnack_power_check(additive_pair(), [f_const], [0.2], [-0.2], cfg, seed=1)
    cfg2 = unit_cfg(m=200, n_paths=500, gamma=16.0)
    with pytest.raises(ValueError, match="positive"):
        harnack_power_check(additive_pair(), [lambda z: z[:, 0]],
                            [0.2], [-0.2], cfg2, seed=1)


def test_log_harnack_jensen_and_grid():
    cfg = unit_cfg(m=200, n_paths=10_000)
    pair = additive_pair(drift_slope=-0.5)
    fs = [f_shift_sin, f_gauss]
    # x = y: empirical Jensen, exact without any SE slack
    rep0 = log_harnack_check(pair, fs, [0.3], [0.3], cfg, kappa1=0.5,
                             k1_hat=1.0, seed=29)
    assert rep0["passed"]
    for c in rep0["checks"]:
        assert c["lhs"] <= c["rhs"]
    # calibrate once, freeze, then verify on fresh pairs and noise
    cal = calibrate_k1(pair, fs, [0.5], [-0.5], cfg, kappa1=0.5, seed=31)
    assert cal["k1_hat"] > 0
    for seed, (xa, ya) in enumerate([([0.4], [-0.4]), ([0.2], [-0.3])], start=37):
        rep = log_harnack_check(pair, fs, xa, ya, cfg, kappa1=0.5,
                                k1_hat=cal["k1_hat"], seed=seed)
        assert rep["passed"], rep


def test_constant_function_log_harnack():
    cfg = unit_cfg(m=200, n_paths=5000)
    rep = log_harnack_check(additive_pair(), [lambda z: np.full(z.shape[0], 2.7)],
                            [0.25], [-0.25], cfg, kappa1=0.5, k1_hat=1.0, seed=41)
    assert rep["passed"]


def test_constant_function_equal_points_pass_up_to_roundoff():
    # at x = y with constant f both sides are the same number in exact
    # arithmetic; the sample means round differently (one ulp in the log
    # check, about twenty after the power), which must not decide the verdict
    cfg = unit_cfg(m=200, n_paths=10_000, gamma=16.0)
    fs = [lambda z: np.full(z.shape[0], 2.7)]
    log_rep = log_harnack_check(additive_pair(), fs, [0.3], [0.3], cfg,
                                kappa1=0.5, k1_hat=1.0, seed=43)
    pow_rep = harnack_power_check(additive_pair(), fs, [0.3], [0.3], cfg,
                                  seed=43)
    assert log_rep["passed"] and pow_rep["passed"]
    c = log_rep["checks"][0]
    assert within(c["lhs"], c["rhs"], 0.0) and within(c["rhs"], c["lhs"], 0.0)
    c = pow_rep["checks"][0]
    assert within(c["lhs"], c["rhs"], 0.0, scale=16.0)
    assert within(c["rhs"], c["lhs"], 0.0, scale=16.0)
