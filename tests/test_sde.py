"""Path-engine tests: reproducibility, closed-form SDE oracles, occupation
functionals against exact mixed norms, and the pathwise Ito residual.

Statistical asserts run at fixed seeds, so they are deterministic fixtures:
tolerances are 3-sigma scale but the outcomes never fluctuate between runs.
"""

import math

import numpy as np
import pytest

from zvlab import rng as zrng
from zvlab.fields import (CoefficientSet, GridFunction, GridSpec, NormSpec,
                          constant_sigma)
from zvlab.sde import (ItoFields, PathEnsemble, SdeModel, SimSpec,
                       bump_family_report, integrate, interval_bump,
                       ito_fields_from_solution, ito_residual, ito_scaling,
                       k_pq, krylov_estimate, original_model,
                       transform_consistency, transformed_model)
from zvlab.zvonkin import build_zvonkin

SIG1 = constant_sigma(np.array([[1.0]]))


def brownian_model():
    return SdeModel(d=1, drift=lambda t, x: np.zeros_like(x), sigma=SIG1)


def test_path_regeneration_bit_exact():
    seed = 42
    full = zrng.block_normals(seed, 0, 50, 1)
    for i in (0, 1, 777, 8191):
        lane = zrng.path_normals(seed, i, 50, 1)
        assert np.array_equal(lane, full[i])
    # path 8192 lives in block 1, lane 0
    assert np.array_equal(zrng.path_normals(seed, 8192, 50, 1),
                          zrng.block_normals(seed, 1, 50, 1)[0])
    # narrow draws are bit-identical prefixes of the full block draw
    assert np.array_equal(zrng.block_normals(seed, 0, 50, 1, width=7), full[:7])


def test_worker_count_invariance(monkeypatch):
    # 9000 paths span two blocks, so the thread pool is actually exercised
    spec = SimSpec(T=1.0, n_steps=100, n_paths=9000, seed=9, L=6.0)
    model = SdeModel(d=1, drift=lambda t, x: -x, sigma=SIG1)
    results = []
    for w in ("1", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        results.append(integrate(model, np.array([0.2]), spec).terminal)
    assert np.array_equal(results[0], results[1])


def test_constant_paths_zero_coefficients():
    spec = SimSpec(T=1.0, n_steps=100, n_paths=64, seed=3, L=4.0)
    model = SdeModel(d=1, drift=lambda t, x: np.zeros_like(x),
                     sigma=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)))
    ens = integrate(model, np.array([0.7]), spec)
    assert np.all(ens.terminal == 0.7)
    assert ens.escape_fraction == 0.0


def test_brownian_terminal_variance_and_rng_sanity():
    spec = SimSpec(T=1.0, n_steps=200, n_paths=20_000, seed=11, L=10.0)
    ens = integrate(brownian_model(), np.array([0.0]), spec)
    v = ens.terminal[:, 0].var()
    se = v * math.sqrt(2.0 / (spec.n_paths - 1))
    assert abs(v - 1.0) <= 3 * se
    assert ens.rng_report["mean_ok"] and ens.rng_report["var_ok"]
    assert not ens.rng_report["escape_warn"]


def test_ou_terminal_variance_oracle():
    spec = SimSpec(T=1.0, n_steps=400, n_paths=40_000, seed=5, L=10.0)
    model = SdeModel(d=1, drift=lambda t, x: -x,
                     sigma=constant_sigma(np.array([[math.sqrt(2.0)]])))
    ens = integrate(model, np.array([0.0]), spec)
    v = ens.terminal[:, 0].var()
    target = 1.0 - math.exp(-2.0)
    se = v * math.sqrt(2.0 / (spec.n_paths - 1))
    assert abs(v - target) <= 3 * se


def test_escape_freezing_and_error_policy():
    # outward drift pushes everything through the wall -> hard error
    spec = SimSpec(T=1.0, n_steps=100, n_paths=256, seed=2, L=1.0)
    runaway = SdeModel(d=1, drift=lambda t, x: 50.0 * x, sigma=SIG1)
    with pytest.raises(RuntimeError, match="domain too small"):
        integrate(runaway, np.array([0.4]), spec)
    # marginal case: Brownian from 0.5 with the wall at 2 loses ~14% of
    # paths; they freeze at exit, stay finite, and raise the quality flag
    spec2 = SimSpec(T=1.0, n_steps=200, n_paths=512, seed=2, L=1.0)
    ens = integrate(brownian_model(), np.array([0.5]), spec2)
    assert 0.01 < ens.escape_fraction <= 0.20
    assert np.all(np.isfinite(ens.terminal))
    assert np.abs(ens.terminal[ens.escaped]).max() <= 2.0 + 4 * math.sqrt(spec2.h)
    assert ens.rng_report["escape_warn"]


def test_integrate_preconditions():
    model = brownian_model()
    with pytest.raises(ValueError, match="n_steps"):
        integrate(model, np.array([0.0]),
                  SimSpec(T=1.0, n_steps=50, n_paths=8, seed=1, L=4.0))
    with pytest.raises(ValueError, match="inner half"):
        integrate(model, np.array([3.5]),
                  SimSpec(T=1.0, n_steps=100, n_paths=8, seed=1, L=4.0))


# ---------------------------------------------------------------------------
# transform consistency


def test_transform_consistency_identity_when_no_singular_part():
    grid = GridSpec(d=1, n=101, m=100, L=4.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b1=lambda t, x: -x, kappa1=0.5, kappa2=0.5,
                        lip_b1=1.0)
    zm = build_zvonkin(cs, grid)
    rep = transform_consistency(zm, np.array([0.3]), [100, 200], 500, seed=17)
    assert max(rep["error"]) <= 1e-12


@pytest.fixture(scope="module")
def singular_map_small():
    def b0(t, x):
        r = x[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.where(np.abs(r) > 0,
                           0.5 * np.sign(r) * np.abs(r) ** -0.2, 0.0)
        return (mag * (np.abs(r) <= 1.0))[..., None]

    grid = GridSpec(d=1, n=201, m=200, L=2.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b0=b0, kappa1=0.5, kappa2=0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        return build_zvonkin(cs, grid)


def test_transform_consistency_singular_decreases(singular_map_small):
    rep = transform_consistency(singular_map_small, np.array([0.2]),
                                [100, 200, 400], 2000, seed=23)
    assert rep["decreasing"], rep
    assert rep["slope"] >= 0.25, rep
    # the doubled box swallows all but a Gaussian-tail sliver of paths
    assert max(rep["excluded"]) <= 0.01 * 2000


# ---------------------------------------------------------------------------
# occupation functionals


def test_k_pq_arithmetic():
    assert k_pq(NormSpec(p=4, q=4, d=1)) == 1
    assert k_pq(NormSpec(p=4, q=16, d=1)) == 1
    assert k_pq(NormSpec(p=2, q=4, d=1)) == 2      # log2 hits an integer


def test_krylov_zero_function_and_window_errors():
    spec = SimSpec(T=1.0, n_steps=100, n_paths=64, seed=7, L=4.0)
    grid = GridSpec(d=1, n=21, m=10, L=4.0, T=1.0)
    zero = GridFunction(grid, np.zeros((grid.m + 1, grid.n)), "scalar")
    ns = NormSpec(p=4, q=4, d=1)
    rep = krylov_estimate(brownian_model(), np.array([0.0]), spec, zero, ns,
                          f_norm=1.0)
    assert rep["estimate"] == 0.0 and rep["se"] == 0.0
    assert rep["ratio"] == 0.0
    with pytest.raises(ValueError, match="window"):
        krylov_estimate(brownian_model(), np.array([0.0]), spec, zero, ns,
                        window=(0.5, 0.5))
    with pytest.raises(ValueError, match="admissible"):
        krylov_estimate(brownian_model(), np.array([0.0]), spec, zero,
                        NormSpec(p=1.05, q=1.05, d=1))


def test_brownian_local_time_oracle():
    # E int_0^1 1_{|W|<=eps}/(2 eps) dt -> E L_1^0 = sqrt(2/pi); the finite
    # band averages E L_1^a over |a|<=eps, pulling the target down ~3%
    spec = SimSpec(T=1.0, n_steps=2000, n_paths=10_000, seed=29, L=8.0)
    ns = NormSpec(p=4, q=4, d=1)
    f, norm_fn = interval_bump(0.0, 0.05)
    rep = krylov_estimate(brownian_model(), np.array([0.0]), spec, f, ns,
                          f_norm=norm_fn(ns, 0.0, 1.0))
    target = math.sqrt(2.0 / math.pi)
    assert abs(rep["estimate"] - target) <= 0.08 * target
    assert rep["f_norm"] == pytest.approx(0.1 ** -0.75)
    assert rep["ratio"] == pytest.approx(rep["estimate"] / rep["f_norm"])


def test_bump_family_ratios_bounded():
    spec = SimSpec(T=1.0, n_steps=1000, n_paths=10_000, seed=31, L=8.0)
    ns = NormSpec(p=4, q=4, d=1)
    widths = [0.05 * 2 ** (j / 2.0) for j in range(5)]
    rep = bump_family_report(brownian_model(), np.array([0.0]), spec, ns, widths)
    assert rep["passed"]
    assert rep["max_over_median"] <= 3.0
    # ratios scale like eps^{1-1/p}: wider bumps give larger ratios
    assert np.all(np.diff(rep["ratios"]) > 0)


# ---------------------------------------------------------------------------
# Ito residual


def quadratic_fields():
    return ItoFields(
        u=lambda t, x: x[..., 0] ** 2,
        du_dt=lambda t, x: np.zeros(x.shape[:-1]),
        grad=lambda t, x: 2.0 * x,
        hess=lambda t, x: np.full(x.shape[:-1] + (1, 1), 2.0),
    )


def test_ito_residual_constant_field_is_exact_zero():
    fields = ItoFields(u=lambda t, x: np.full(x.shape[:-1], 3.7),
                       du_dt=lambda t, x: np.zeros(x.shape[:-1]),
                       grad=lambda t, x: np.zeros_like(x),
                       hess=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)))
    spec = SimSpec(T=1.0, n_steps=200, n_paths=256, seed=13, L=8.0)
    rep = ito_residual(fields, brownian_model(), np.array([0.0]), spec)
    assert rep["mean"] == 0.0 and rep["mean_abs"] == 0.0


def test_ito_residual_matches_quadratic_variation_exactly():
    # for u = x^2 on Brownian paths the defect telescopes to sum(dW^2) - T
    spec = SimSpec(T=1.0, n_steps=200, n_paths=500, seed=37, L=10.0)
    rep = ito_residual(quadratic_fields(), brownian_model(), np.array([0.0]), spec)
    direct = []
    for b, w in zrng.path_blocks(spec.n_paths):
        dW = zrng.block_normals(spec.seed, b, spec.n_steps, 1, w) * math.sqrt(spec.h)
        direct.append((dW[:, :, 0] ** 2).sum(axis=1) - spec.T)
    direct = np.concatenate(direct)
    assert abs(rep["mean"] - direct.mean()) <= 1e-10
    assert abs(rep["mean_abs"] - np.abs(direct).mean()) <= 1e-10


def test_ito_residual_statistics_brownian():
    spec = SimSpec(T=1.0, n_steps=1000, n_paths=10_000, seed=41, L=10.0)
    rep = ito_residual(quadratic_fields(), brownian_model(), np.array([0.0]), spec)
    assert abs(rep["mean"]) <= 3 * rep["se"]
    assert rep["sign_p"] > 0.01
    theory = math.sqrt(2 * spec.h * spec.T) * math.sqrt(2.0 / math.pi)
    assert abs(rep["mean_abs"] - theory) <= 0.15 * theory


def test_ito_scaling_halving_ratio():
    rep = ito_scaling(quadratic_fields(), brownian_model(), np.array([0.0]),
                      T=1.0, L=10.0, steps_list=[500, 1000, 2000],
                      n_paths=2000, seed=43)
    assert rep["slope"] >= 0.3
    # quadratic-variation defect scales like sqrt(h): halving h multiplies
    # mean |defect| by 1/sqrt(2) ~ 0.707, inside the [0.5, 0.8] window
    for r in rep["ratios"]:
        assert 0.5 <= r <= 0.8


def test_ito_fields_from_solution_matches_manufactured_oracle():
    from zvlab.pde import PdeProblem, solve_backward

    grid = GridSpec(d=1, n=161, m=200, L=6.0, T=1.0)

    def u_true(t, x):
        return (grid.T - t) * np.exp(-x[..., 0] ** 2 / 4.0)

    def f_src(t, x):
        g = np.exp(-x[..., 0] ** 2 / 4.0)
        return -g + (grid.T - t) * (x[..., 0] ** 2 - 2.0) / 8.0 * g

    cs = CoefficientSet(sigma=SIG1, f=f_src, kappa1=0.5, kappa2=0.5)
    sol = solve_backward(PdeProblem(grid=grid, coeffs=cs, lam=0.0))
    fields = ito_fields_from_solution(sol)
    pts = np.linspace(-2.0, 2.0, 9)[:, None]
    t = 0.4
    x0 = pts[:, 0]
    assert np.abs(fields.u(t, pts) - u_true(t, pts)).max() <= 2e-3
    assert np.abs(fields.du_dt(t, pts) + np.exp(-x0 ** 2 / 4)).max() <= 5e-3
    grad_true = (grid.T - t) * np.exp(-x0 ** 2 / 4) * (-x0 / 2.0)
    assert np.abs(fields.grad(t, pts)[:, 0] - grad_true).max() <= 2e-3
    hess_true = (grid.T - t) * np.exp(-x0 ** 2 / 4) * (x0 ** 2 / 4.0 - 0.5)
    assert np.abs(fields.hess(t, pts)[:, 0, 0] - hess_true).max() <= 5e-3


def test_transformed_model_stepper_matches_plain_evaluators(singular_map_small):
    zm = singular_map_small
    model = transformed_model(zm)
    y = np.linspace(-1.2, 1.2, 33)[:, None]
    b_step, s_step, state = model.stepper(0.3, y, None)
    b_plain, s_plain, _ = zm.transformed(0.3, y)
    assert np.abs(b_step - b_plain).max() <= 1e-8
    assert np.abs(s_step - s_plain).max() <= 1e-8
    x_direct, _ = zm.invert(0.3, y)
    assert np.abs(state - x_direct).max() <= 1e-10
