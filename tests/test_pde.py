import math

import numpy as np
import pytest

from zvlab import pde, zvonkin
from zvlab.fields import CoefficientSet, GridSpec, NormSpec
from zvlab.pde import (
    derivative_fields,
    lambda_sweep,
    sample_operator,
    solve_backward,
    solve_phi_system,
    verify_apriori,
)


def unit_sigma(d=1):
    eye = np.eye(d)

    def sigma(t, x):
        x = np.asarray(x)
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    return sigma


def solve_f(coeffs, grid, lam):
    """The scalar equation driven by coeffs.f."""
    op = sample_operator(coeffs, grid)
    return solve_backward(op, lam, op["f"])


def gaussian_problem(n, m, L=8.0, T=1.0):
    """Manufactured solution G = (T-t) exp(-x^2/4) for a = 1/2, no drift.

    f = dG/dt + a G'' = -g + (T-t)(x^2-2)/8 * g with g = exp(-x^2/4);
    terminal slice is exactly zero.
    """

    def f(t, x):
        r = np.asarray(x)[..., 0]
        g = np.exp(-r ** 2 / 4.0)
        return -g + (T - t) * (r ** 2 - 2.0) / 8.0 * g

    coeffs = CoefficientSet(sigma=unit_sigma(1), f=f, kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=1, n=n, m=m, L=L, T=T)
    return grid, coeffs


def gaussian_exact(grid):
    xs = grid.xs
    ts = grid.ts
    return (grid.T - ts)[:, None] * np.exp(-xs[None, :] ** 2 / 4.0)


def solve_gaussian(n, m):
    grid, coeffs = gaussian_problem(n, m)
    u = solve_f(coeffs, grid, 0.0)
    err = np.max(np.abs(u[..., 0] - gaussian_exact(grid)))
    return u, float(err)


def test_manufactured_gaussian_sup_error():
    _, err = solve_gaussian(161, 200)
    assert err <= 1e-3


def test_manufactured_gaussian_self_convergence():
    _, e_coarse = solve_gaussian(81, 50)
    _, e_fine = solve_gaussian(161, 200)
    assert e_coarse / e_fine >= 2.5


def test_solution_derivatives_match_manufactured_oracle():
    # the derivative fields that feed the L^p-L^q estimate (d_t u, grad u,
    # D^2 u) against the manufactured solution's closed forms, at t = 0.4
    grid, coeffs = gaussian_problem(161, 200, L=6.0)
    op = sample_operator(coeffs, grid)
    u = solve_backward(op, 0.0, op["f"])
    du_dt, grad, hess, material = derivative_fields(op, u)
    k = 80
    t = grid.ts[k]
    inner = np.abs(grid.xs) <= 2.0
    x = grid.xs[inner]
    g = np.exp(-x ** 2 / 4.0)
    assert np.abs(u[k, inner, 0] - (grid.T - t) * g).max() <= 2e-3
    assert np.abs(du_dt[k, inner, 0] + g).max() <= 5e-3
    grad_true = (grid.T - t) * g * (-x / 2.0)
    assert np.abs(grad[k, inner, 0, 0] - grad_true).max() <= 2e-3
    hess_true = (grid.T - t) * g * (x ** 2 / 4.0 - 0.5)
    assert np.abs(hess[k, inner, 0, 0, 0] - hess_true).max() <= 5e-3
    # with no drift the material derivative is d_t u
    assert np.array_equal(material, du_dt)


def test_mixed_second_derivative_in_2d():
    # u = x y: the composed central differences are exact, D^2 u[0, 1] = 1
    grid = GridSpec(d=2, n=9, m=2, L=1.0, T=1.0)
    x, y = np.meshgrid(grid.xs, grid.xs, indexing="ij")
    u = np.broadcast_to((x * y)[None, :, :, None], (grid.m + 1, 9, 9, 1))
    op = {"grid": grid, "b1": np.zeros((grid.m + 1, 9, 9, 2))}
    hess = derivative_fields(op, u)[2]
    assert np.all(hess[..., 0, 1] == 1.0) and np.all(hess[..., 1, 0] == 1.0)


def test_constant_source_matches_ode_oracle():
    # spatially constant source, drift -x: the solution away from the walls
    # follows u' = lam*u + 1, u(T)=0, so sup|u| = (1 - exp(-lam*T))/lam
    def b1(t, x):
        return -np.asarray(x)

    def f(t, x):
        return np.ones(np.asarray(x).shape[:-1])

    coeffs = CoefficientSet(sigma=unit_sigma(1), b1=b1, f=f,
                            kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=1, n=161, m=200, L=4.0, T=1.0)
    for lam in (10.0, 1e4):
        sup = float(np.max(np.abs(solve_f(coeffs, grid, lam))))
        exact = (1.0 - math.exp(-lam * grid.T)) / lam
        assert sup == pytest.approx(exact, rel=0.03)


@pytest.mark.parametrize("d", [1, 2])
def test_discrete_max_principle_with_upwinding(d):
    # strong constant convection along x so the cell Peclet number exceeds
    # 2; f <= 0 must give u >= 0 without node-to-node oscillation
    def b2(t, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[..., 0] = 30.0
        return out

    def f(t, x):
        return -np.ones(np.asarray(x).shape[:-1])

    coeffs = CoefficientSet(sigma=unit_sigma(d), b2=b2, f=f,
                            kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=d, n=41, m=100, L=1.0, T=1.0)
    assert 30.0 * grid.h / 0.5 > 2.0  # the switch is actually exercised
    u = solve_f(coeffs, grid, 5.0)
    assert u.min() >= -1e-12 * max(1.0, u.max())
    # every x-line rises and falls once: its total variation is twice its
    # peak (central differences here oscillate, about 3 % above that)
    u = u[..., 0]
    tv = np.abs(np.diff(u, axis=1)).sum(axis=1)
    assert np.all(tv <= 2.0 * u.max(axis=1) * (1 + 1e-9))


def counting(monkeypatch, owner, attr):
    """Replace owner.attr by a spy; returns its call list."""
    calls = []
    orig = getattr(owner, attr)

    def spy(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, attr, spy)
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_one_operator_per_coefficient_set(monkeypatch, d):
    # every slice's stencil is built once, when the operator is sampled;
    # solves at any number of lam values only read it
    built = counting(monkeypatch, pde, "_stencil")
    co = CoefficientSet(sigma=unit_sigma(d), f=lambda t, x: np.ones(x.shape[:-1]),
                        kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=d, n=11, m=12, L=1.0, T=1.0)
    op = sample_operator(co, grid)
    solve_backward(op, 1.0, op["f"])
    solve_backward(op, 4.0, op["f"])
    assert len(built) == 1
    assert all(s.shape == (grid.m + 1,) + (grid.n - 2,) * d
               for s in op["stencil"].values())


def test_ladder_and_sweep_sample_once(monkeypatch):
    # the two-rung ladder of the constant-b0 oracle (lam 10, then 40)
    sampled = counting(monkeypatch, zvonkin, "sample_operator")
    sig = unit_sigma(1)
    cs = CoefficientSet(sigma=sig, b0=lambda t, x: np.full_like(x, 1.5),
                        kappa1=0.5, kappa2=0.5)
    zm = zvonkin.build_zvonkin(cs, GridSpec(d=1, n=601, m=100, L=6.0, T=1.0))
    assert len(zm.trace) == 2 and len(sampled) == 1
    # three lam values, one operator sampled in the parent
    sampled = counting(monkeypatch, pde, "sample_operator")
    co = CoefficientSet(sigma=sig, f=lambda t, x: np.ones(x.shape[:-1]),
                        kappa1=0.5, kappa2=0.5)
    lambda_sweep(co, GridSpec(d=1, n=41, m=40, L=4.0, T=1.0),
                 [10.0, 100.0, 1000.0], NormSpec(p=4, q=4, d=1))
    assert len(sampled) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_shared_operator_is_read_only(d):
    # solves at two lam values, then the first again, on one operator:
    # the repeat is bit-identical and no array of the operator changes
    def b0(t, x):
        return 0.4 * np.sin(2 * np.asarray(x, dtype=float))

    co = CoefficientSet(sigma=unit_sigma(d), b0=b0, kappa1=0.5, kappa2=0.5)
    op = sample_operator(co, GridSpec(d=d, n=21, m=20, L=2.0, T=1.0))
    keep = {k: v.copy() for k, v in op.items() if isinstance(v, np.ndarray)}
    keep.update({o: s.copy() for o, s in op["stencil"].items()})
    first = solve_phi_system(op, 10.0)
    other = solve_phi_system(op, 40.0)
    again = solve_phi_system(op, 10.0)
    assert np.array_equal(first, again) and not np.array_equal(first, other)
    for k, v in keep.items():
        now = op["stencil"][k] if isinstance(k, tuple) else op[k]
        assert np.array_equal(now, v), k


def test_solution_linear_in_source():
    grid = GridSpec(d=1, n=81, m=40, L=2.0, T=0.5)

    def f1(t, x):
        return np.sin(np.asarray(x)[..., 0]) * (1 + t)

    def f2(t, x):
        return np.cos(2 * np.asarray(x)[..., 0])

    def f12(t, x):
        return f1(t, x) + 2.0 * f2(t, x)

    def solve_with(fev):
        co = CoefficientSet(sigma=unit_sigma(1), f=fev, kappa1=0.5, kappa2=0.5)
        return solve_f(co, grid, 3.0)

    u1, u2, u12 = solve_with(f1), solve_with(f2), solve_with(f12)
    scale = np.max(np.abs(u12))
    assert np.max(np.abs(u12 - u1 - 2 * u2)) <= 1e-11 * max(scale, 1e-30)


def test_phi_system_scales_linearly_without_gradient_coupling():
    # phi is linear in its source -b0 only while b0 stays out of the
    # drift B; the solver always includes it, so doubling b0 is not linear
    grid = GridSpec(d=1, n=101, m=50, L=2.0, T=1.0)

    def b0(t, x):
        return 0.3 * np.sin(2 * np.asarray(x, dtype=float))

    def b0_double(t, x):
        return 2.0 * b0(t, x)

    co1 = CoefficientSet(sigma=unit_sigma(1), b0=b0, kappa1=0.5, kappa2=0.5)
    co2 = CoefficientSet(sigma=unit_sigma(1), b0=b0_double, kappa1=0.5, kappa2=0.5)
    q1 = solve_phi_system(sample_operator(co1, grid), 20.0)
    q2 = solve_phi_system(sample_operator(co2, grid), 20.0)
    assert np.max(np.abs(q2 - 2 * q1)) > 1e-7 * np.max(np.abs(q2))


def test_apriori_ratio_stable_under_refinement():
    def b1(t, x):
        return -np.asarray(x)

    def f(t, x):
        r = np.asarray(x)[..., 0]
        return np.exp(-r ** 2) * np.sin(3 * r)

    ns = NormSpec(p=4, q=4, d=1)
    ratios = []
    for n, m in [(101, 50), (201, 100)]:
        grid = GridSpec(d=1, n=n, m=m, L=4.0, T=1.0)
        co = CoefficientSet(sigma=unit_sigma(1), b1=b1, f=f,
                            kappa1=0.5, kappa2=0.5)
        op = sample_operator(co, grid)
        rep = verify_apriori(op, 10.0, solve_backward(op, 10.0, op["f"]), op["f"], ns)
        assert rep["ratio"] > 0
        ratios.append(rep["ratio"])
    assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.25


def test_lambda_sweep_envelope_and_slope():
    def b1(t, x):
        return -np.asarray(x)

    def f(t, x):
        return np.ones(np.asarray(x).shape[:-1])

    co = CoefficientSet(sigma=unit_sigma(1), b1=b1, f=f,
                        kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=1, n=81, m=100, L=4.0, T=1.0)
    ns = NormSpec(p=4, q=4, d=1)   # sup-norm target
    assert ns.decay_exponent == pytest.approx(0.625)
    res = lambda_sweep(co, grid, [10.0, 100.0, 1000.0], ns)
    assert res.passed
    assert res.slope <= -0.9


def test_manufactured_gaussian_2d():
    T = 1.0

    def f(t, x):
        x = np.asarray(x)
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        g = np.exp(-r2 / 4.0)
        return -g + (T - t) * (r2 - 4.0) / 8.0 * g

    co = CoefficientSet(sigma=unit_sigma(2), f=f, kappa1=0.5, kappa2=0.5)
    grid = GridSpec(d=2, n=41, m=40, L=6.0, T=T)
    u = solve_f(co, grid, 0.0)
    xs = grid.xs
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    exact = (T - grid.ts)[:, None, None] * np.exp(-(X ** 2 + Y ** 2) / 4.0)
    err = np.max(np.abs(u[..., 0] - exact))
    assert err <= 5e-3


def test_decay_prediction_validates_exponents():
    # the shipped sup-norm target: beta0 = (2 - 1/2 - 1/4)/2
    assert NormSpec(p=4, q=4, d=1).decay_exponent == pytest.approx(0.625)


def test_banded_solve_is_lapack_gtsv_bit_for_bit():
    # the 1-d implicit step calls gtsv on the three bands, the routine
    # scipy's solve_banded uses for (1, 1) bands: same bits, walls at 0
    from scipy.linalg import solve_banded
    rng = np.random.default_rng(5)
    lam, gamma, n = 2.0, 0.3, 41
    for _ in range(5):
        lo, up = rng.uniform(0.0, 1.0, (2, n - 2))
        st = {(-1,): lo, (1,): up, (0,): -(lo + up) - rng.uniform(0.0, 1.0, n - 2)}
        rhs = rng.normal(size=(n, 1))
        keep = rhs.copy()
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = -gamma * up[:-1]
        ab[1] = 1.0 + gamma * (lam - st[(0,)])
        ab[2, :-1] = -gamma * lo[1:]
        w = pde._solve_banded(st, lam, gamma, rhs, 0.25)
        assert np.array_equal(w[1:-1], solve_banded((1, 1), ab, rhs[1:-1]))
        assert w[0, 0] == 0.0 and w[-1, 0] == 0.0
        assert np.array_equal(rhs, keep)


def test_banded_solve_one_interior_node():
    # n = 3 leaves one interior node and empty off-diagonals, which gtsv
    # refuses; the one equation is solved by division
    lam, gamma = 2.0, 0.3
    st = {(-1,): np.array([0.4]), (1,): np.array([0.7]), (0,): np.array([-1.3])}
    rhs = np.array([[5.0], [1.7], [-2.0]])
    w = pde._solve_banded(st, lam, gamma, rhs, 0.25)
    assert np.array_equal(w[1], rhs[1] / (1.0 + gamma * (lam - st[(0,)])))
    assert w[0, 0] == 0.0 and w[-1, 0] == 0.0
    # 1 + gamma (lam - L_00) = 0
    with pytest.raises(np.linalg.LinAlgError, match="singular.*t=0.75"):
        pde._solve_banded({**st, (0,): np.array([1.0])}, 0.0, 1.0, rhs, 0.75)


def test_banded_solve_refuses_bad_systems():
    lam, gamma, n = 0.0, 1.0, 9
    zero = np.zeros(n - 2)
    st = {(-1,): zero, (1,): zero, (0,): np.full(n - 2, -1.0)}
    rhs = np.ones((n, 1))
    nan_diag = np.full(n - 2, -1.0)
    nan_diag[3] = np.nan
    with pytest.raises(ValueError, match="non-finite.*t=0.25"):
        pde._solve_banded({**st, (0,): nan_diag}, lam, gamma, rhs, 0.25)
    rhs_bad = rhs.copy()
    rhs_bad[4] = np.inf
    with pytest.raises(ValueError, match="non-finite.*t=0.5"):
        pde._solve_banded(st, lam, gamma, rhs_bad, 0.5)
    # 1 + gamma (lam - L_00) = 0 on the diagonal, nothing off it
    singular = np.full(n - 2, lam + 1.0 / gamma)
    with pytest.raises(np.linalg.LinAlgError, match="singular.*t=0.75"):
        pde._solve_banded({**st, (0,): singular}, lam, gamma, rhs, 0.75)


@pytest.mark.parametrize("name", ["trivial-zero", "ou-lipschitz", "additive-1d"])
def test_zero_b0_gives_the_marched_zero_corrector(name):
    # without a singular part the corrector is not marched: the result is
    # the march's, +0.0 at every node, at the CLI's full and --fast grids,
    # and a bad lam is still refused
    from dataclasses import replace

    from zvlab.scenarios import get_scenario
    sc = get_scenario(name)
    for grid in (sc.grid, replace(sc.grid, n=min(sc.grid.n, 201),
                                  m=min(sc.grid.m, 200))):
        op = sample_operator(sc.coeffs, grid)
        assert not op["b0"].any()
        for lam in (0.0, 10.0):
            got = solve_phi_system(op, lam)
            ref = solve_backward(op, lam, -op["b0"])
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert not np.signbit(got).any()
        with pytest.raises(ValueError, match="lam must be finite"):
            solve_phi_system(op, float("nan"))


def test_build_transform_without_b0_loads_no_scipy():
    # scipy is loaded only by the solves that a singular part needs
    import os
    import subprocess
    import sys
    from pathlib import Path
    probe = ("import contextlib, io, sys\n"
             "from zvlab.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['build-transform', '--scenario', 'trivial-zero',"
             " '--fast'])\n"
             "print(code, sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 []"
