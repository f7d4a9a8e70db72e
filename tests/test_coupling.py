"""Coupling-layer tests: gain/exponent arithmetic against hand-computed
values, the deterministic distance ODE of the additive testbed, exact
mean-one Girsanov weights with a negative control, moment and Harnack
bounds, coalescence, and determinism of the pair simulation.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zvlab import coupling, sde
from zvlab.coupling import (CouplingConfig, _sigma_inverse, build_coupling_grid,
                            calibrate_k1, coalescence_report, decide, eta,
                            gamma0, gamma_threshold, h5_certificate,
                            moment_bound_rhs, power_harnack_exponent,
                            simulate_pair, simulate_pairs, theta_for_gamma,
                            verdict_threshold, verify_log_harnack,
                            verify_martingale, verify_moment_bound,
                            verify_power_harnack)
from zvlab import rng as zrng
from zvlab.fields import CoefficientSet, GridSpec, constant_sigma
from zvlab.scenarios import get_scenario, holder_sigma
from zvlab.sde import SdeModel, transformed_model
from zvlab.zvonkin import InverseEscape, ZvonkinMap, build_zvonkin

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


def power_run(pair, x, y, cfg, seed):
    """The power check's run: theta re-derived from cfg.gamma."""
    return simulate_pair(pair, x, y, replace(cfg, theta=theta_for_gamma(cfg)),
                         seed)


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
    with pytest.raises(ValueError, match="gamma"):
        unit_cfg(gamma=1.0)
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        unit_cfg(n_paths=0)


@pytest.mark.parametrize("name", ["T", "L", "K_T", "delta_T", "lam_T"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
def test_config_rejects_out_of_range_constants(name, value):
    # NaN passes a "<= 0" test; each constant must be positive and finite
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, "
                                         f"got {value}$"):
        unit_cfg(**{name: value})


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


def test_sigma_inverse_closed_form():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        s = rng.normal(size=(500, d, d))
        np.testing.assert_allclose(_sigma_inverse(s), np.linalg.inv(s),
                                   rtol=1e-10, atol=0.0)
    # a singular or non-finite row gives a non-finite row, and under the
    # pair loop's errstate no warning and no error; the pair step flags it
    # and leaves the other rows alone
    s = rng.normal(size=(6, 2, 2))
    s[4] = [[1.0, 2.0], [0.5, 1.0]]               # det == 0
    s1 = rng.normal(size=(6, 1, 1))
    s1[1] = np.nan
    s1[3] = 0.0
    with warnings.catch_warnings(), np.errstate(divide="ignore", over="ignore",
                                                invalid="ignore"):
        warnings.simplefilter("error")
        inv, inv1 = _sigma_inverse(s), _sigma_inverse(s1)
    bad = ~np.isfinite(inv).all(axis=(-2, -1))
    assert bad.tolist() == [False] * 4 + [True, False]
    bad1 = ~np.isfinite(inv1).all(axis=(-2, -1))
    assert bad1.tolist() == [False, True, False, True, False, False]
    np.testing.assert_allclose(inv[~bad], np.linalg.inv(s[~bad]), rtol=1e-10)


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


def test_worker_invariance_bitwise(monkeypatch):
    cfg = unit_cfg(m=100, n_paths=9000)
    runs = []
    for w in ("1", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        runs.append(simulate_pair(additive_pair(drift_slope=-0.5), [0.3], [-0.2],
                                  cfg, seed=5))
    assert np.array_equal(runs[0].A, runs[1].A)
    assert np.array_equal(runs[0].B, runs[1].B)
    assert np.array_equal(runs[0].dist_at_eps, runs[1].dist_at_eps)
    assert np.array_equal(runs[0].final_Y, runs[1].final_Y)


def singular_2d_map():
    # b0 = 2 |x|^-1.2 x on the unit disc, unit diffusion, on a coarse grid
    def b0(t, x):
        r = np.sqrt(np.sum(x ** 2, axis=-1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((r <= 1.0) & (r > 0.0), 2.0 * r ** -1.2, 0.0) * x

    cs = CoefficientSet(sigma=constant_sigma(np.eye(2)), b0=b0, kappa1=0.5,
                        kappa2=0.5)
    return build_zvonkin(cs, GridSpec(d=2, n=21, m=20, L=2.0, T=1.0))


def singular_2d_pair():
    return transformed_model(singular_2d_map())


def test_2d_inverse_returns_a_nan_row_as_an_escape(monkeypatch):
    # the 2-d inverse stops a NaN row at once: under "flag" the stepper
    # gives it back non-finite, the other row bit for bit as alone, and the
    # plain engine freezes the row and runs on; under "raise" it is an
    # InverseEscape that names it
    zm = singular_2d_map()
    pair = transformed_model(zm)
    y = np.array([[0.1, 0.2], [np.nan, 0.0]])
    (b, s), (b1, s1) = (pair.step_eval(0.1, v, None) for v in (y, y[:1]))
    assert b[:1].tobytes() == b1.tobytes() and s[:1].tobytes() == s1.tobytes()
    assert not np.isfinite(b[1]).all() and not np.isfinite(s[1]).all()
    with pytest.raises(InverseEscape, match=r"t=0\.1: worst row 1 y=\[nan"):
        zm.invert(0.1, y)
    spec = sde.SimSpec(T=1.0, n_steps=20, n_paths=2, seed=0, L=2.0)
    normals = np.zeros((20, 2, 2))
    normals[3, 1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        *_, (k, X, alive) = sde._advance_block([pair], [[0.1, 0.2]], spec,
                                               normals, 2)
    assert k == 20 and alive[0].tolist() == [True, False]
    assert np.isfinite(X[0][0]).all() and np.isnan(X[0][1]).all()


def test_2d_transformed_run_is_bitwise_worker_invariant(monkeypatch):
    # the 2-d map inverse stops each row on its own update, so a row's bits
    # do not depend on which rows share its task
    pair, cfg = singular_2d_pair(), unit_cfg(m=20, n_paths=2000, L=2.0)
    runs = []
    for w in ("1", "2"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        runs.append(simulate_pair(pair, [0.3, -0.2], [-0.2, 0.3], cfg, seed=3))
    for name in ("A", "B", "dist_at_eps", "final_X", "final_Y", "glued",
                 "box_exit"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
    assert runs[1].workers == 2


def test_pair_block_evaluates_both_copies_in_one_call():
    # one stepper call per step, on the X rows stacked over the Y rows
    base = additive_pair(drift_slope=-0.5)
    calls = []

    def stepper(t, Z):
        calls.append((t, Z.copy()))
        return base.step_eval(t, Z, None)

    cfg = unit_cfg(m=20)
    grid = build_coupling_grid(cfg)
    width = 64
    coupling._advance_pair_block(SdeModel(d=1, stepper=stepper), np.array([0.3]),
                                 np.array([-0.2]), cfg, grid, 5, 0, width)
    assert [t for t, _ in calls] == list(grid.ts[:grid.dts.size])
    assert all(Z.shape == (2 * width, 1) for _, Z in calls)
    assert np.all(calls[0][1][:width] == 0.3) and np.all(calls[0][1][width:] == -0.2)


def test_box_exit_policy():
    cfg = unit_cfg(m=100, n_paths=256, L=0.8)
    with pytest.raises(RuntimeError, match="box exit"):
        simulate_pair(additive_pair(drift_slope=4.0), [0.35], [-0.35], cfg, seed=3)


def test_batch_errors_name_the_run(monkeypatch):
    # a batch raises for its first bad run and names its index, seed and
    # start points; start points are checked before anything is stepped
    good = (additive_pair(), [0.25], [-0.25], unit_cfg(m=100, n_paths=256), 1)
    cfg = unit_cfg(m=100, n_paths=256, L=0.8)
    with pytest.raises(RuntimeError, match=r"run 1 \(seed 3, x=\[0\.35\], "
                       r"y=\[-0\.35\]\): coupling box exit"):
        simulate_pairs([good, (additive_pair(drift_slope=4.0), [0.35], [-0.35],
                               cfg, 3)])

    def no_pool(*a, **k):
        raise AssertionError("stepped before the start points were checked")

    monkeypatch.setattr(sde, "run_tasks", no_pool)
    with pytest.raises(ValueError, match=r"run 1 \(seed 4, x=\[0\.5\], "
                       r"y=\[0\.0\]\): .*0\.5 L = 0\.4"):
        simulate_pairs([good, (additive_pair(), [0.5], [0.0], cfg, 4)])


def test_box_exit_error_names_the_first_exited_path(monkeypatch):
    # about 13 % of the pairs reach the wall at 2 L = 2, path 26 first
    run = (additive_pair(), [0.35], [-0.35], unit_cfg(m=100, n_paths=256, L=1.0), 3)
    monkeypatch.setattr(coupling, "BOX_EXIT_LIMIT", 1.0)
    first = int(np.argmax(simulate_pair(*run).box_exit))
    monkeypatch.undo()
    assert first > 0
    with pytest.raises(RuntimeError, match=r"box exit .*; enlarge L .*; first exited "
                       rf"path {first} at t=0\.\d+$"):
        simulate_pair(*run)


def nan_band_pair(band):
    # drift NaN on |x - 0.7| < band, unit diffusion (the probe of a drift
    # that is singular at a few points)
    return SdeModel(d=1, drift=lambda t, x: np.where(np.abs(x - 0.7) < band,
                                                     np.nan, 0.0),
                    sigma=lambda t, x: np.ones(x.shape + (1,)))


def test_glued_nan_rows_are_frozen_finite_and_counted(monkeypatch):
    # x = y glues every row from the start, so u is 0; a row whose X turns
    # NaN counts as a box exit and is left out, so the kept rows are finite
    monkeypatch.setattr(coupling, "BOX_EXIT_LIMIT", 1.0)
    res = simulate_pair(nan_band_pair(1e-3), [0.25], [0.25],
                        unit_cfg(n_paths=4000, L=2.0), seed=1)
    assert len(res.final_X) == len(res.A) == 4000 - res.box_exit.sum()
    assert np.isfinite(res.final_X).all() and np.isfinite(res.final_Y).all()
    assert np.array_equal(res.final_X, res.final_Y)
    assert res.nonfinite_rows == res.box_exit.sum() > 100
    assert not res.A.any() and not res.B.any()
    assert res.counters()["nonfinite_rows"] == res.counters()["box_exit_rows"]


# name: (pair factory, x, y, cfg, the exit rate and the tail of the message)
FAILING_RUNS = {
    "nan-band": (lambda: nan_band_pair(1e-3), [0.25], [-0.25],
                 unit_cfg(n_paths=4000, L=2.0), "32.9%", "path 0 at t=0.12"),
    "sigma-0": (lambda: additive_pair(sigma_scale=0.0), [0.25], [-0.25],
                unit_cfg(m=10, n_paths=4), "100.0%", "path 0 at t=0.1"),
}


@pytest.mark.parametrize("name", sorted(FAILING_RUNS))
def test_nonfinite_rows_fail_a_run_by_its_whole_count(monkeypatch, name):
    # the frozen rows are counted over the whole run, so the message does
    # not depend on how the rows were cut into tasks
    make, x, y, cfg, rate, tail = FAILING_RUNS[name]
    msgs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", threads)
        with pytest.raises(RuntimeError) as err:
            simulate_pair(make(), x, y, cfg, seed=1)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] == (
        f"run 0 (seed 1, x=[0.25], y=[-0.25]): coupling box exit rate {rate} "
        f"exceeds 1%; non-finite rows count as exits; first exited {tail} "
        "(non-finite)")


def reference_pair_block_steps(pair, x0, y0, cfg, grid, normals):
    """The pair step as a plain loop body: both copies concatenated into a
    new stepper input at every step, every product an einsum and every
    mask applied on every step."""
    width, n_steps, d = normals.shape
    sqdt = np.sqrt(grid.dts)
    X, Y = (np.broadcast_to(v, (width, d)).astype(float) for v in (x0, y0))
    glued, alive = np.zeros(width, dtype=bool), np.ones(width, dtype=bool)
    nonfinite, t_out = np.zeros(width, dtype=bool), np.zeros(width)
    A, B = np.zeros(width), np.zeros(width)
    A_rec = np.empty((width, grid.sample_idx.size))
    B_rec = np.empty((width, grid.sample_idx.size))
    dist_rec = np.empty((width, grid.eps_idx.size))
    sample_pos = {int(i): j for j, i in enumerate(grid.sample_idx)}
    eps_pos = {int(i): j for j, i in enumerate(grid.eps_idx)}
    floor = coupling.DIST_FLOOR_COEFF * (1.0 + float(np.linalg.norm(x0 - y0)))
    power, limit = 2.0 - 2.0 * cfg.alpha, 2.0 * cfg.L
    trunc = clip = 0
    for k in range(n_steps):
        t, dt = grid.ts[k], grid.dts[k]
        dW = normals[:, k] * sqdt[k]
        b, s = pair.step_eval(t, np.concatenate([X, Y]), None)
        bX, bY, sX, sY = b[:width], b[width:], s[:width], s[width:]
        sXi = coupling._sigma_inverse(sX)
        D = X - Y
        dist = coupling._row_norm(D)
        glued |= dist < floor
        act = alive & ~glued
        with np.errstate(divide="ignore", invalid="ignore"):
            damp = np.minimum(dist ** power, 1.0) * grid.eta_vals[k]
            g = np.where(act[:, None], D / damp[:, None], 0.0)
        u = np.einsum("...ij,...j->...i", sXi, g)
        unorm = coupling._row_norm(u)
        over = unorm > coupling.N_TRUNC
        if over.any():
            u[over] *= (coupling.N_TRUNC / unorm[over])[:, None]
        corr = np.einsum("...ij,...j->...i", sY, u)
        step_len = coupling._row_norm(corr) * dt
        overshoot = act & (step_len > dist)
        if overshoot.any():
            scale = dist[overshoot] / step_len[overshoot]
            u[overshoot] *= scale[:, None]
            corr[overshoot] *= scale[:, None]
        u[~act] = 0.0
        corr[~act] = 0.0
        X_new = X + bX * dt + np.einsum("...ij,...j->...i", sX, dW)
        Y_new = Y + (bY + corr) * dt + np.einsum("...ij,...j->...i", sY, dW)
        Y_new = np.where(glued[:, None], X_new, Y_new)
        # a non-finite row is frozen before its step: no state, u or event
        finite = np.isfinite(np.concatenate([X_new, Y_new], axis=-1)).all(axis=-1)
        bad = alive & ~finite
        trunc += int((over & act & ~bad).sum())
        clip += int((overshoot & ~bad).sum())
        u[bad] = 0.0
        X = np.where((alive & ~bad)[:, None], X_new, X)
        Y = np.where((alive & ~bad)[:, None], Y_new, Y)
        A += np.einsum("...i,...i->...", u, dW)
        B += np.einsum("...i,...i->...", u, u) * dt
        out = alive & (~finite | (np.abs(X_new).max(axis=-1) > limit)
                       | (np.abs(Y_new).max(axis=-1) > limit))
        t_out[out] = grid.ts[k + 1]
        nonfinite |= bad
        alive &= ~out
        j = sample_pos.get(k + 1)
        if j is not None:
            A_rec[:, j] = A
            B_rec[:, j] = B
        j = eps_pos.get(k + 1)
        if j is not None:
            dist_rec[:, j] = coupling._row_norm(X - Y)
    i = int(np.argmax(~alive))      # the lowest frozen row, if any
    first = (i, t_out[i], bool(nonfinite[i])) if not alive.all() else None
    return {"A": A_rec, "B": B_rec, "dist": dist_rec, "X": X, "Y": Y,
            "glued": glued, "alive": alive, "nonfinite": int(nonfinite.sum()),
            "first": first, "trunc": trunc, "clip": clip,
            "events": width * n_steps}


def rotated_pair():
    # 2-d: a restoring drift and a constant diffusion with off-diagonal terms
    sig = np.array([[1.0, 0.3], [-0.2, 0.8]])
    return SdeModel(d=2, drift=lambda t, x: -0.5 * x,
                    sigma=lambda t, x: np.broadcast_to(sig, x.shape[:-1] + (2, 2)))


def aliasing_pair():
    # drift and sigma are views of the engine's state array, which it
    # writes over in place after the step
    return SdeModel(d=1, drift=lambda t, x: x, sigma=lambda t, x: x[..., None])


def bad_band_pair():
    # drift NaN near 0.7 and sigma 0 near -0.6: rows that cross a band turn
    # non-finite on X (drift) or on Y's correction (a singular X-copy sigma)
    return SdeModel(d=1, drift=lambda t, x: np.where(np.abs(x - 0.7) < 2e-3,
                                                     np.nan, -0.5 * x),
                    sigma=lambda t, x: np.where(np.abs(x + 0.6) < 2e-3,
                                                0.0, 1.0)[..., None])


def singular_1d_pair():
    sc = get_scenario("singular-1d")
    return transformed_model(build_zvonkin(sc.coeffs, replace(sc.grid, n=201, m=200)))


def constant_sigma_pair():
    # additive-1d's sigma: one read-only stride-0 view for all rows, which
    # the engine inverts once per step
    pair = SdeModel(d=1, drift=lambda t, x: -0.5 * x, sigma=constant_sigma([[1.0]]))
    assert pair.sigma(0.0, np.zeros((4, 1))).strides[0] == 0
    return pair


def holder_sigma_pair():
    # holder-sigma's diffusion, which depends on the state
    return SdeModel(d=1, drift=lambda t, x: -0.5 * x, sigma=holder_sigma)


# name: (pair factory, x0, y0, cfg, seed, width, the branch the run must reach)
LEAN_STEP_RUNS = {
    "glued": (additive_pair, [0.25], [-0.25], unit_cfg(m=400, K_T=0.01, theta=1.9),
              13, 256, lambda o: o["glued"].any()),
    "box-exit": (additive_pair, [0.35], [-0.35], unit_cfg(m=100, L=1.5), 3, 1024,
                 lambda o: 0 < (~o["alive"]).mean() <= coupling.BOX_EXIT_LIMIT),
    "trunc-clip": (lambda: additive_pair(sigma_scale=0.01), [0.25], [-0.25],
                   unit_cfg(m=100, theta=1.99), 3, 256,
                   lambda o: o["trunc"] > 0 and o["clip"] > 0),
    "alpha": (lambda: additive_pair(drift_slope=-0.5), [0.25], [-0.25],
              unit_cfg(m=100, alpha=0.75, theta=1.0), 3, 256,
              lambda o: o["clip"] > 0),
    "2-d": (rotated_pair, [0.3, -0.1], [-0.2, 0.2], unit_cfg(m=100), 3, 256,
            lambda o: o["X"].shape[1] == 2 and not o["glued"].any()),
    "aliasing": (aliasing_pair, [0.5], [0.2], unit_cfg(m=100, theta=1.9), 3, 256,
                 lambda o: o["glued"].any() and o["alive"].all()),
    "non-finite": (bad_band_pair, [0.25], [-0.25], unit_cfg(m=100, L=1.5), 3, 1024,
                   lambda o: o["nonfinite"] > 1),
    "transformed": (singular_1d_pair, [0.25], [-0.25], unit_cfg(m=100, L=2.0), 3,
                    256, lambda o: o["alive"].all() and not o["glued"].any()),
    # a row glues at step 2 and the first freezes at step 35 of 286: glued
    # and frozen rows both ride on in the swapped-in state
    "glue-then-freeze": (additive_pair, [0.25], [-0.25],
                         unit_cfg(m=100, L=1.0, theta=1.99), 3, 256,
                         lambda o: o["glued"].any() and not o["alive"].all()),
    "constant-sigma": (constant_sigma_pair, [0.25], [-0.25],
                       unit_cfg(m=100, L=1.0, theta=1.99), 3, 256,
                       lambda o: o["glued"].any() and not o["alive"].all()
                       and o["clip"] > 0),
    "holder-sigma": (holder_sigma_pair, [0.25], [-0.25],
                     unit_cfg(m=100, L=1.0, theta=1.99), 3, 256,
                     lambda o: o["glued"].any() and not o["alive"].all()
                     and o["clip"] > 0),
}


@pytest.mark.parametrize("name", sorted(LEAN_STEP_RUNS))
def test_pair_step_matches_the_reference(name):
    # the in-place state, 1-d products and copyto masks change no bit of a
    # row alive at the end, nor any counter, on the same noise, which the
    # engine reads step-major, and with the step tables built by the engine
    # where the pair has them (286 steps: four block boundaries of
    # TABLE_BLOCK); a frozen row is never read again, so its bits may differ
    make, x0, y0, cfg, seed, width, reached = LEAN_STEP_RUNS[name]
    pair, x0, y0 = make(), np.array(x0), np.array(y0)
    grid = build_coupling_grid(cfg)
    normals = zrng.block_normals(seed, 0, grid.dts.size, pair.d, width)
    assert (pair.tables is not None) == (name == "transformed")
    got = coupling._pair_block_steps(pair, x0, y0, cfg, grid,
                                     zrng.lane_normals(seed, 0, width, grid.dts.size,
                                                       pair.d))
    with np.errstate(all="ignore"):         # a non-finite row's arithmetic
        ref = reference_pair_block_steps(pair, x0, y0, cfg, grid, normals)
    assert reached(ref)
    assert got.keys() == ref.keys()
    kept = ref["alive"]
    assert np.array_equal(got["alive"], kept)
    for key, val in ref.items():
        if isinstance(val, np.ndarray):
            assert got[key].dtype == val.dtype and got[key].shape == val.shape, key
            assert got[key][kept].tobytes() == val[kept].tobytes(), key
        else:
            assert got[key] == val, key


def test_martingale_reads_only_the_rows_alive_at_the_end(monkeypatch):
    # the box-exit run: a few rows leave the box, and verify_martingale's
    # means and SEs are _exp_stats over the other rows alone, bit for bit
    # at 1 and 2 workers; the frozen rows would move them
    make, x0, y0, cfg, seed, width, _ = LEAN_STEP_RUNS["box-exit"]
    cfg = replace(cfg, n_paths=width)
    grid = build_coupling_grid(cfg)
    part = coupling._pair_block_steps(make(), np.array(x0), np.array(y0), cfg, grid,
                                      zrng.lane_normals(seed, 0, width,
                                                        grid.dts.size, 1))
    kept = part["alive"]
    assert 0 < (~kept).sum() <= coupling.BOX_EXIT_LIMIT * width

    def stats(rows):
        return [coupling._exp_stats(-part["A"][rows, j] - 0.5 * part["B"][rows, j])
                for j in range(grid.sample_idx.size)]

    want = stats(kept)
    assert want[-1] != stats(slice(None))[-1]
    for threads in ("1", "2"):
        monkeypatch.setenv("ZVLAB_THREADS", threads)
        res = simulate_pair(make(), x0, y0, cfg, seed)
        assert res.workers == int(threads)
        assert np.array_equal(res.box_exit, ~kept)
        rep = verify_martingale(res)
        assert rep["means"] == [m for m, _ in want]
        assert rep["ses"] == [se for _, se in want]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_batch_matches_separate_runs(monkeypatch, threads):
    # runs 0 and 1 differ only in theta and share their draws; run 2 has
    # another seed; run 3 has another step grid with fewer steps, so its
    # lanes are cut from run 0's draw; and run 4, with fewer paths, takes
    # the leading 8500 lanes of run 0's draws.  draws counts Philox lanes:
    # a batch of two draw groups is one task per group at 1 and 2 workers,
    # and a run alone at 2 workers is two tasks, the second of which also
    # draws the block lanes before its first path
    monkeypatch.setenv("ZVLAB_THREADS", threads)
    pair = additive_pair(drift_slope=-0.5)
    cfg = unit_cfg(m=100, n_paths=9000)
    runs = [(pair, [0.3], [-0.2], cfg, 5),
            (pair, [0.3], [-0.2], replace(cfg, theta=1.5), 5),
            (pair, [0.1], [-0.3], cfg, 6),
            (pair, [0.3], [-0.2], replace(cfg, m=50), 5),
            (pair, [0.2], [0.0], replace(cfg, n_paths=8500), 5)]
    batch = simulate_pairs(runs)
    for run, got in zip(runs, batch, strict=True):
        ref = simulate_pair(*run)
        for name in ("A", "B", "dist_at_eps", "final_X", "final_Y", "glued",
                     "box_exit"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        for name in ("trunc_events", "clip_events", "total_events", "n_steps"):
            assert getattr(got, name) == getattr(ref, name), name
        n = ref.cfg.n_paths
        assert ref.draws == (n if threads == "1" else n // 2 + n)    # alone
    assert [r.draws for r in batch] == [9000, 0, 9000, 0, 0]
    assert not np.array_equal(batch[0].A, batch[1].A)      # theta differs


def one_block_reference(pair, x, y, cfg, seed):
    """A run's outputs with each Philox block advanced alone, on its
    block_normals draw, and the blocks joined in order."""
    grid = build_coupling_grid(cfg)
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    n = cfg.n_paths
    parts = [coupling._pair_block_steps(pair, x, y, cfg, grid, np.ascontiguousarray(
                 zrng.block_normals(seed, bi, grid.dts.size, pair.d,
                                    n - bi * zrng.BLOCK).transpose(1, 0, 2)))
             for bi in range(-(-n // zrng.BLOCK))]
    out = {k: np.concatenate([p[k] for p in parts])
           for k in ("A", "B", "dist", "X", "Y", "glued", "alive")}
    return out, [sum(p[k] for p in parts) for k in ("trunc", "clip", "events")]


@pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
def test_packed_runs_match_the_one_block_reference(monkeypatch, threads):
    # row ranges of the draw group cut at 9000 / threads, so that at 2, 3
    # and 4 workers the last starts inside block 0 and ends inside block 1
    # (and at 4 a middle one starts mid-chunk); runs 0
    # and 1 share their draws (theta differs), run 2 takes the leading
    # 8200 rows of them, and the pool forks one process per worker.  The
    # state-dependent sigma glues every row of run 0 that stays in the box
    # and a few of run 1's, and some rows of run 0 leave the box or are
    # clipped
    monkeypatch.setenv("ZVLAB_THREADS", threads)
    pair = SdeModel(d=1, drift=lambda t, x: -0.5 * x,
                    sigma=lambda t, x: (1.0 + 0.5 * np.sin(3.0 * x))[..., None])
    cfg = unit_cfg(m=20, n_paths=9000, L=1.5, theta=1.8)
    runs = [(pair, [0.3], [-0.2], cfg, 5),
            (pair, [0.3], [-0.2], replace(cfg, theta=1.5), 5),
            (pair, [0.2], [0.0], replace(cfg, n_paths=8200), 5)]
    batch = simulate_pairs(runs)
    for run, got in zip(runs, batch, strict=True):
        ref, (trunc, clip, events) = one_block_reference(*run)
        kept = ref["alive"]      # the result holds the rows alive at the end
        for key, name in (("A", "A"), ("B", "B"), ("dist", "dist_at_eps"),
                          ("X", "final_X"), ("Y", "final_Y"), ("glued", "glued")):
            assert getattr(got, name).tobytes() == ref[key][kept].tobytes(), name
        assert np.array_equal(got.box_exit, ~ref["alive"])
        assert (got.trunc_events, got.clip_events, got.total_events) == (
            trunc, clip, events)
        assert got.workers == int(threads)
    assert batch[0].glued.all() and batch[1].glued.any() and not batch[1].glued.all()
    assert batch[0].box_exit.any() and batch[0].clip_events > 0
    assert [r.draws for r in batch][1:] == [0, 0]
    assert batch[0].draws >= 9000 and (threads != "1" or batch[0].draws == 9000)


def nan_sigma_run():
    """A run whose sigma is NaN above a level that only path 8220 passes
    before its last step (pure Brownian X = Y, glued from the start), and
    the time that path is frozen: one step after it passes the level."""
    cfg = unit_cfg(m=20, n_paths=9000, L=4.0)
    grid = build_coupling_grid(cfg)
    dW = zrng.lane_normals(7, 0, 9000, grid.dts.size, 1)[..., 0] * np.sqrt(
        grid.dts)[:, None]
    path = np.cumsum(dW, axis=0)[:-1]                 # X at the stepped times
    order = np.argsort(path.max(axis=0))
    thr = 0.5 * (path.max(axis=0)[order[-1]] + path.max(axis=0)[order[-2]])
    assert order[-1] == 8220 >= zrng.BLOCK
    t_out = grid.ts[int(np.argmax(path[:, 8220] > thr)) + 2]

    def sigma(t, x):
        return np.where(x > thr, np.nan, 1.0)[..., None]

    pair = SdeModel(d=1, drift=lambda t, x: np.zeros_like(x), sigma=sigma)
    return (pair, [0.0], [0.0], cfg, 7), t_out


@pytest.mark.parametrize("threads", ["1", "3"])
def test_sigma_error_names_the_run_and_the_path(monkeypatch, threads):
    # with no exit allowed, the one NaN-sigma row fails its run, and the
    # error names that path of run 1, whichever task holds it, and its time
    monkeypatch.setenv("ZVLAB_THREADS", threads)
    monkeypatch.setattr(coupling, "BOX_EXIT_LIMIT", 0.0)
    run, t_out = nan_sigma_run()
    good = (additive_pair(), [0.25], [-0.25], unit_cfg(m=20, n_paths=256), 1)
    with pytest.raises(RuntimeError) as err:
        simulate_pairs([good, run])
    assert str(err.value) == (
        "run 1 (seed 7, x=[0.0], y=[0.0]): coupling box exit rate 0.0% exceeds "
        "0%; non-finite rows count as exits; first exited path 8220 at "
        f"t={t_out:.6g} (non-finite)")


def test_a_few_nonfinite_rows_leave_the_run_to_complete(monkeypatch):
    # the NaN-sigma row is counted and left out; the other 8999 rows step
    # on, bit for bit the same at 1 and 3 workers
    run, _ = nan_sigma_run()
    got = []
    for threads in ("1", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", threads)
        got.append(simulate_pair(*run))
    assert got[1].workers == 3
    for name in ("A", "B", "dist_at_eps", "final_X", "final_Y", "glued",
                 "box_exit"):
        assert getattr(got[0], name).tobytes() == getattr(got[1], name).tobytes(), name
    res = got[0]
    assert np.flatnonzero(res.box_exit).tolist() == [8220] and len(res.A) == 8999
    assert np.isfinite(res.final_X).all() and np.isfinite(res.final_Y).all()
    assert res.counters()["nonfinite_rows"] == res.counters()["box_exit_rows"] == 1


def test_one_pair_batch_builds_its_step_tables_once(monkeypatch):
    # c11's shape: 13 runs of one transformed pair on one step grid, each
    # with its own seed and so its own task; each task builds the map's
    # step tables once, in one step_tables call per block of TABLE_BLOCK
    # step times, in order (115 steps: seven blocks of 16, then one of 3)
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    built = []
    orig = ZvonkinMap.step_tables

    def spy(self, ts):
        built.append(list(ts))
        return orig(self, ts)

    monkeypatch.setattr(ZvonkinMap, "step_tables", spy)
    pair = singular_1d_pair()         # its model holds the patched method
    cfg = unit_cfg(m=40, n_paths=64, L=4.0)
    simulate_pairs([(pair, [0.1 * (i % 3)], [-0.1], cfg, 100 + i)
                    for i in range(13)])
    ts = list(build_coupling_grid(cfg).ts[:-1])
    assert len(ts) == 115
    assert built == 13 * [ts[i:i + sde.TABLE_BLOCK]
                          for i in range(0, len(ts), sde.TABLE_BLOCK)]


def test_pair_run_holds_one_block_of_step_tables(monkeypatch):
    # a task builds one block of TABLE_BLOCK step tables at a time and drops
    # it before the next, so quadrupling the steps (286 to 1144) barely moves
    # the traced peak; prebuilding every table would add about 19 MB.  With
    # blocks of 16 tables on the n = 201 grid the m = 100 run peaks near
    # 1.5 MB; blocks of 64 took it to 4.4 MB
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    pair = singular_1d_pair()
    peaks = []
    for m in (100, 400):
        tracemalloc.start()
        try:
            simulate_pairs([(pair, [0.25], [-0.25], unit_cfg(m=m, n_paths=64, L=2.0),
                             3)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2e6, peaks
    assert peaks[0] < 2e6, peaks


def test_h5_certificate_measures_constants():
    cfg = unit_cfg(L=4.0)
    pair = additive_pair(drift_slope=-0.5)
    rep = h5_certificate(pair, cfg)
    assert rep["passed"], rep
    assert rep["delta_T"] == 0.0          # additive noise
    assert rep["lam_T"] == pytest.approx(1.0)
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
    rep = verify_power_harnack(power_run(additive_pair(), [0.25], [-0.25], cfg,
                                         seed=17), [f_shift_sin, f_const, f_gauss])
    assert rep["passed"], rep
    assert rep["theta"] == pytest.approx(4.0 / 3.0)
    assert rep["exponent"]["printed_degenerate"]
    for c in rep["checks"]:
        assert c["combined_rel_se"] <= 0.10


def test_power_harnack_jensen_at_equal_points():
    cfg = unit_cfg(m=200, n_paths=20_000, gamma=16.0)
    rep = verify_power_harnack(power_run(additive_pair(), [0.3], [0.3], cfg,
                                         seed=19), [f_shift_sin, f_gauss])
    assert rep["passed"]
    for c in rep["checks"]:
        assert c["lhs"] <= c["rhs"]      # sample Jensen, no SE slack needed


def test_power_harnack_symmetry_of_verdicts():
    # mirror-symmetric f: swapping the roles of x and y gives a law-identical
    # run, so both directions must reach the same verdict
    cfg = unit_cfg(m=200, n_paths=20_000, gamma=16.0)
    fwd = verify_power_harnack(power_run(additive_pair(), [0.25], [-0.25],
                                         cfg, seed=23), [f_gauss])
    rev = verify_power_harnack(power_run(additive_pair(), [-0.25], [0.25],
                                         cfg, seed=24), [f_gauss])
    assert fwd["passed"] and rev["passed"]
    assert fwd["checks"][0]["lhs"] == pytest.approx(rev["checks"][0]["lhs"], rel=0.25)


def test_power_harnack_requires_gamma_and_positive_f():
    cfg = unit_cfg(m=200, n_paths=500)
    res = simulate_pair(additive_pair(), [0.2], [-0.2], cfg, seed=1)
    with pytest.raises(ValueError, match="gamma"):
        verify_power_harnack(res, [f_const])
    # a run whose theta is not theta(gamma) is outside the moment-bound route
    res_g = simulate_pair(additive_pair(), [0.2], [-0.2],
                          replace(cfg, gamma=16.0), seed=1)
    with pytest.raises(ValueError, match=r"needs theta = 1\.33.*got 1\.0"):
        verify_power_harnack(res_g, [f_const])
    res2 = power_run(additive_pair(), [0.2], [-0.2],
                     unit_cfg(m=200, n_paths=500, gamma=16.0), seed=1)
    with pytest.raises(ValueError, match="positive"):
        verify_power_harnack(res2, [lambda z: z[:, 0]])
    # the log checks take log f, so they refuse the same function
    with pytest.raises(ValueError, match="positive"):
        verify_log_harnack(res, [lambda z: z[:, 0]], kappa1=0.5, k1_hat=1.0)
    with pytest.raises(ValueError, match="positive"):
        calibrate_k1(res, [lambda z: z[:, 0]], kappa1=0.5)


def test_log_harnack_jensen_and_grid():
    cfg = unit_cfg(m=200, n_paths=10_000)
    pair = additive_pair(drift_slope=-0.5)
    fs = [f_shift_sin, f_gauss]
    # x = y: empirical Jensen, exact without any SE slack
    rep0 = verify_log_harnack(simulate_pair(pair, [0.3], [0.3], cfg, seed=29),
                              fs, kappa1=0.5, k1_hat=1.0)
    assert rep0["passed"]
    for c in rep0["checks"]:
        assert c["lhs"] <= c["rhs"]
    # calibrate once, freeze, then verify on fresh pairs and noise
    cal = calibrate_k1(simulate_pair(pair, [0.5], [-0.5], cfg, seed=31), fs,
                       kappa1=0.5)
    assert cal["k1_hat"] > 0
    for seed, (xa, ya) in enumerate([([0.4], [-0.4]), ([0.2], [-0.3])], start=37):
        rep = verify_log_harnack(simulate_pair(pair, xa, ya, cfg, seed=seed),
                                 fs, kappa1=0.5, k1_hat=cal["k1_hat"])
        assert rep["passed"], rep


def test_constant_function_log_harnack():
    cfg = unit_cfg(m=200, n_paths=5000)
    rep = verify_log_harnack(
        simulate_pair(additive_pair(), [0.25], [-0.25], cfg, seed=41),
        [lambda z: np.full(z.shape[0], 2.7)], kappa1=0.5, k1_hat=1.0)
    assert rep["passed"]


def test_constant_function_equal_points_pass_up_to_roundoff():
    # at x = y with constant f both sides are the same number in exact
    # arithmetic; the sample means round differently (one ulp in the log
    # check, about twenty after the power), which must not decide the verdict
    cfg = unit_cfg(m=200, n_paths=10_000, gamma=16.0)
    fs = [lambda z: np.full(z.shape[0], 2.7)]
    log_rep = verify_log_harnack(
        simulate_pair(additive_pair(), [0.3], [0.3], cfg, seed=43), fs,
        kappa1=0.5, k1_hat=1.0)
    pow_rep = verify_power_harnack(
        power_run(additive_pair(), [0.3], [0.3], cfg, seed=43), fs)
    assert log_rep["passed"] and pow_rep["passed"]
    c = log_rep["checks"][0]
    assert decide(c["lhs"], c["rhs"], 0.0)[0] == decide(c["rhs"], c["lhs"], 0.0)[0] == "pass"
    c = pow_rep["checks"][0]
    assert decide(c["lhs"], c["rhs"], 0.0, scale=16.0)[0] == "pass"
    assert decide(c["rhs"], c["lhs"], 0.0, scale=16.0)[0] == "pass"


def test_decide_is_the_one_verdict_rule():
    eps = np.finfo(float).eps
    # pass exactly at the threshold, fail one float step above it
    verdict, thr = decide(1.0, 1.0, 0.5)
    assert (verdict, thr) == ("pass", 1.5)
    assert thr == verdict_threshold(1.0, 1.0, 0.5)
    assert decide(1.5, 1.0, 0.5) == ("pass", 1.5)
    assert decide(np.nextafter(1.5, 2.0), 1.0, 0.5) == ("fail", 1.5)
    # noise above the cap is inconclusive even when lhs <= threshold; at
    # the cap, or with no cap given, the comparison decides
    assert decide(0.0, 1.0, 0.5, noise=0.2, cap=0.1) == ("inconclusive", 1.5)
    assert decide(2.0, 1.0, 0.5, noise=0.2, cap=0.1) == ("inconclusive", 1.5)
    assert decide(0.0, 1.0, 0.5, noise=0.1, cap=0.1) == ("pass", 1.5)
    assert decide(0.0, 1.0, 0.5, noise=99.0) == ("pass", 1.5)
    # a nan noise (the SE of one sample) is not <= cap: no verdict
    assert decide(0.0, 1.0, 0.5, noise=math.nan, cap=0.1) == ("inconclusive", 1.5)
    # nor is there one on a nan slack, with or without a cap
    assert decide(0.0, 1.0, math.nan)[0] == "inconclusive"
    assert decide(2.0, 1.0, math.nan, noise=0.0, cap=0.1)[0] == "inconclusive"
    # with no slack the roundoff floor is 64 ulps of the larger operand,
    # times scale
    assert decide(1.0 + 64 * eps, 1.0, 0.0) == ("pass", 1.0 + 64 * eps)
    assert decide(1.0 + 65 * eps, 1.0, 0.0)[0] == "fail"
    assert decide(1.0 + 65 * eps, 1.0, 0.0, scale=2.0)[0] == "pass"
    assert decide(1e6 * (1.0 + 60 * eps), 1e6, 0.0)[0] == "pass"


def test_one_path_gives_no_martingale_or_moment_verdict():
    # one sample has a nan SE: the z-score is nan and neither check decides
    res = simulate_pair(additive_pair(), [0.3], [-0.3], unit_cfg(n_paths=1), seed=7)
    mg, mb = verify_martingale(res), verify_moment_bound(res)
    assert all(math.isnan(se) for se in mg["ses"])
    assert math.isnan(mg["worst_zscore"])
    assert (mg["verdict"], mg["passed"]) == ("inconclusive", False)
    assert (mb["verdict"], mb["passed"]) == ("inconclusive", False)


def test_every_coupling_check_decides_through_one_rule(monkeypatch):
    calls = []
    orig = coupling.decide

    def spy(lhs, rhs, slack, scale=1.0, noise=0.0, cap=None):
        out = orig(lhs, rhs, slack, scale, noise, cap)
        calls.append((cap, out))
        return out

    monkeypatch.setattr(coupling, "decide", spy)
    cfg = unit_cfg(n_paths=400, gamma=16.0)
    fs = [lambda z: 1.5 + np.sin(z[:, 0])]
    res = simulate_pair(additive_pair(), [0.3], [-0.3], cfg, seed=7)
    verify_martingale(res)
    assert len(calls) == 2 * res.sample_times.size          # both sides
    calls.clear()
    mb = verify_moment_bound(res)
    assert calls == [(None, ("pass" if mb["passed"] else "fail",
                             mb["threshold"]))]
    calls.clear()
    pw = verify_power_harnack(power_run(additive_pair(), [0.3], [-0.3], cfg,
                                        seed=7), fs)
    assert [(cap, v) for cap, (v, _) in calls] == [
        (coupling.SE_REL_CAP, c["verdict"]) for c in pw["checks"]]
    calls.clear()
    lg = verify_log_harnack(res, fs, kappa1=1.0, k1_hat=1.0)
    assert [(cap, v) for cap, (v, _) in calls] == [
        (coupling.LOG_SE_CAP, c["verdict"]) for c in lg["checks"]]

