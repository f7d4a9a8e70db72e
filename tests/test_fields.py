import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zvlab.fields import (
    GridFunction,
    GridSpec,
    NormSpec,
    constant_sigma,
    interp_space,
    lp_lq_norm,
    sample_field,
)


def grid1(n=101, m=20, L=1.0, T=1.0):
    return GridSpec(d=1, n=n, m=m, L=L, T=T)


# ---------------------------------------------------------------------------
# GridSpec / NormSpec basics


def test_grid_origin_is_node():
    g = grid1(n=101)
    assert 0.0 in g.xs
    assert np.isclose(g.h * (g.n - 1), 2 * g.L)


def test_grid_rejects_even_n():
    with pytest.raises(ValueError, match="n must be odd and >= 3, got 100"):
        GridSpec(d=1, n=100, m=10, L=1.0, T=1.0)


def test_norm_spec_budget_classification():
    # (p,q)=(4,16): beta = 1/4 + 1/8 = 0.375, all three classes
    ns = NormSpec(p=4, q=16, d=1)
    c = ns.classify()
    assert math.isclose(c["beta"], 0.375)
    assert c["krylov_admissible"] and c["singular_admissible"] and c["harnack_power_admissible"]
    # (4,4): beta = 0.75 -> no harnack-power
    c = NormSpec(p=4, q=4, d=1).classify()
    assert math.isclose(c["beta"], 0.75)
    assert c["krylov_admissible"] and c["singular_admissible"]
    assert not c["harnack_power_admissible"]
    # (2,2): beta = 1.5 -> krylov only
    c = NormSpec(p=2, q=2, d=1).classify()
    assert c["krylov_admissible"] and not c["singular_admissible"]


def test_norm_spec_rejects_bad_exponents():
    with pytest.raises(ValueError, match="p must lie in .*got 1.0"):
        NormSpec(p=1.0, q=4)
    with pytest.raises(ValueError, match="q must lie in .*got inf"):
        NormSpec(p=4, q=math.inf)


# ---------------------------------------------------------------------------
# mixed norms


def test_lp_lq_of_constant_closed_form():
    # ||1||: space integral over [-1,1] is 2 exactly under trapezoid,
    # time integral of 2^{q/p} over [0,1] gives 2^{1/p}.
    grid = grid1()
    ones = np.ones((grid.m + 1, grid.n))
    for p, q in [(4.0, 16.0), (4.0, 4.0), (2.0, 8.0)]:
        val = lp_lq_norm(ones, grid, NormSpec(p=p, q=q, d=1))
        assert abs(val - 2.0 ** (1.0 / p)) < 1e-12


def test_lp_lq_gaussian_against_quadrature_oracle():
    # oracle computed with adaptive quadrature, frozen tolerance 1e-4 relative
    grid = GridSpec(d=1, n=1601, m=10, L=8.0, T=1.0)
    xs = grid.xs
    vals = np.tile(np.exp(-xs ** 2), (grid.m + 1, 1))
    p, q = 3.0, 5.0
    space_p, _ = quad(lambda x: math.exp(-p * x * x), -8.0, 8.0, epsabs=1e-14)
    exact = space_p ** (1.0 / p)  # time factor T^{1/q} = 1
    got = lp_lq_norm(vals, grid, NormSpec(p=p, q=q, d=1))
    assert abs(got - exact) / exact < 1e-4


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=-100, max_value=100).filter(lambda v: abs(v) > 1e-6),
       p=st.floats(min_value=1.1, max_value=12),
       q=st.floats(min_value=1.1, max_value=12))
def test_lp_lq_absolute_homogeneity(c, p, q):
    grid = grid1(n=31, m=4)
    xs = grid.xs
    base = np.tile(np.sin(3 * xs) + 0.3, (grid.m + 1, 1))
    ns = NormSpec(p=p, q=q, d=1)
    assert lp_lq_norm(c * base, grid, ns) == pytest.approx(
        abs(c) * lp_lq_norm(base, grid, ns), rel=1e-10)


def test_lp_lq_monotone_in_pointwise_domination():
    grid = grid1(n=41, m=5)
    xs = grid.xs
    a = np.tile(np.sin(xs), (grid.m + 1, 1))
    b = np.abs(a) + 0.25
    ns = NormSpec(p=3, q=7, d=1)
    assert lp_lq_norm(a, grid, ns) <= lp_lq_norm(b, grid, ns)


def test_vector_field_norm_uses_euclidean_magnitude():
    # components (-3, 4) have magnitude 5 at every node; ||5||_{2,2} over
    # [-1, 1] x [0, 1] is 5 sqrt 2
    grid = grid1(n=21, m=2)
    vals = np.zeros((grid.m + 1, grid.n, 2))
    vals[..., 0] = -3.0
    vals[..., 1] = 4.0
    assert lp_lq_norm(vals, grid, NormSpec(p=2, q=2, d=1)) == pytest.approx(
        5.0 * 2 ** 0.5, rel=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        lp_lq_norm(vals, grid, NormSpec(p=2, q=2, d=2))


# ---------------------------------------------------------------------------
# sampling with the singular-node cap


def test_sample_capped_odd_singularity():
    grid = GridSpec(d=1, n=101, m=2, L=2.0, T=1.0)

    def b0(t, x):
        x = np.asarray(x)
        r = x[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 0.5 * np.abs(r) ** (-0.2) * np.sign(r)
            out = np.where(np.abs(r) <= 1.0, out, 0.0)
        return out[..., None]

    vals, capped = sample_field(b0, grid, cap_singular=True)
    assert capped == grid.m + 1  # origin node on every slice
    assert vals.shape == (grid.m + 1, grid.n, 1)
    i0 = grid.n // 2
    cap_mag = 0.5 * grid.h ** (-0.2)
    assert np.all(np.abs(vals[:, i0, 0]) <= cap_mag + 1e-12)
    # odd neighbours average to zero at the origin
    assert np.max(np.abs(vals[:, i0, 0])) < 1e-12


def test_sample_uncapped_rejects_nonfinite():
    grid = GridSpec(d=1, n=11, m=1, L=1.0, T=1.0)

    def bad(t, x):
        x = np.asarray(x)[..., 0]
        with np.errstate(divide="ignore"):
            return 1.0 / x

    with pytest.raises(ValueError):
        sample_field(bad, grid, cap_singular=False)


def test_sample_infers_matrix_components():
    # the component shape is what the evaluator returns past the node axis
    grid = GridSpec(d=2, n=5, m=3, L=1.0, T=1.0)

    def ev(t, x):
        x = np.asarray(x)
        return np.stack([np.stack([x[..., 0] + t, x[..., 1]], -1),
                         np.stack([-x[..., 1], 2.0 * x[..., 0]], -1)], -2)

    vals, capped = sample_field(ev, grid)
    assert capped == 0
    assert vals.shape == (grid.m + 1, grid.n, grid.n, 2, 2)
    k, i, j = 2, 1, 4
    x = np.array([[grid.xs[i], grid.xs[j]]])
    assert np.array_equal(vals[k, i, j], ev(grid.ts[k], x)[0])


def _marked_field(value, where_nan, where_inf):
    """A 2-d scalar field: value everywhere, NaN and +inf on the points
    that the two predicates of (x, y) pick."""

    def ev(t, x):
        x = np.asarray(x)
        out = np.full(x.shape[:-1], value)
        out[where_nan(x[..., 0], x[..., 1])] = np.nan
        out[where_inf(x[..., 0], x[..., 1])] = np.inf
        return out

    return ev


def test_sample_cap_skips_nonfinite_neighbours_and_shrinks_to_the_cap():
    # the origin is +inf and its east neighbour NaN, so each is repaired
    # from the three finite 0.1s beside it, skipping the other; the mean
    # of three 0.1s rounds one ulp above 0.1 and is shrunk back
    grid = GridSpec(d=2, n=5, m=1, L=1.0, T=1.0)
    near = lambda a, b: np.abs(a - b) < 0.25 * grid.h
    ev = _marked_field(0.1, lambda x, y: near(x, grid.h) & near(y, 0.0),
                       lambda x, y: near(x, 0.0) & near(y, 0.0))
    assert (0.1 + 0.1 + 0.1) / 3 == np.nextafter(0.1, 1.0)
    vals, capped = sample_field(ev, grid, cap_singular=True)
    assert capped == 2 * (grid.m + 1)
    c = grid.n // 2
    repaired = np.zeros((grid.n, grid.n), dtype=bool)
    repaired[c, c] = repaired[c + 1, c] = True
    assert np.all(vals[:, repaired] <= 0.1)
    assert np.all(vals[:, repaired] >= np.nextafter(0.1, 0.0))
    assert np.all(vals[:, ~repaired] == 0.1)


def test_sample_cap_raises_without_finite_neighbours():
    grid = GridSpec(d=2, n=5, m=1, L=1.0, T=1.0)
    ev = _marked_field(1.0, lambda x, y: np.zeros_like(x, dtype=bool),
                       lambda x, y: np.hypot(x, y) < 1.5 * grid.h)
    with pytest.raises(ValueError, match="singular node with no finite neighbours"):
        sample_field(ev, grid, cap_singular=True)


# ---------------------------------------------------------------------------
# interpolation and clamping


def test_interp_linear_exact_and_clamps():
    grid = grid1(n=11, m=1, L=1.0)
    sl = 2.0 * grid.xs + 1.0
    pts = np.array([[0.137], [-0.62], [3.0]])
    vals, clamped = interp_space(grid, sl, pts)
    assert clamped == 1
    assert vals[0] == pytest.approx(2 * 0.137 + 1, abs=1e-14)
    assert vals[2] == pytest.approx(3.0)  # clamped to the boundary value


def test_gridfunction_time_interpolation():
    grid = grid1(n=5, m=4, T=2.0)
    vals = np.tile(grid.ts[:, None], (1, grid.n))
    g = GridFunction(grid, vals)
    assert g.time_slice(0.777)[0] == pytest.approx(0.777, abs=1e-14)


def test_time_slice_stacks_scalar_calls():
    # an array of times gives the bytes of one scalar call per time: on
    # nodes, between them, below 0 and above T (clamped to the end slices)
    grid = GridSpec(d=2, n=5, m=4, L=1.0, T=2.0)
    rng = np.random.default_rng(5)
    g = GridFunction(grid, rng.standard_normal((grid.m + 1, grid.n, grid.n, 2)))
    ts = np.concatenate([grid.ts, [0.1, 0.777, 1.9999, -0.3, 2.5]])
    stacked = g.time_slice(ts)
    assert stacked.shape == (len(ts),) + g.values.shape[1:]
    assert stacked.tobytes() == np.stack([g.time_slice(float(t)) for t in ts]).tobytes()
    assert np.array_equal(stacked[:grid.m + 1], g.values)
    assert np.array_equal(stacked[-2], g.values[0])
    assert np.array_equal(stacked[-1], g.values[-1])


def test_gridfunction_rejects_nonfinite():
    grid = grid1(n=5, m=1)
    vals = np.zeros((2, 5))
    vals[0, 2] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid, vals)


def test_constant_sigma_helper():
    ev = constant_sigma(np.array([[2.0]]))
    out = ev(0.0, np.zeros((7, 1)))
    assert out.shape == (7, 1, 1)
    assert np.all(out == 2.0)


# ---------------------------------------------------------------------------
# input checks across the layers


def _no_gamma():
    from zvlab.coupling import CouplingConfig, theta_for_gamma
    theta_for_gamma(CouplingConfig(T=1.0, m=2, n_paths=1, L=1.0, K_T=1.0,
                                   delta_T=1.0, lam_T=1.0))


def _calibrate_at_equal_points():
    from zvlab.coupling import CouplingConfig, calibrate_k1, simulate_pair
    from zvlab.sde import SdeModel
    pair = SdeModel(d=1, drift=lambda t, x: np.zeros_like(x),
                    sigma=constant_sigma(np.eye(1)))
    cfg = CouplingConfig(T=1.0, m=2, n_paths=1, L=1.0, K_T=1.0, delta_T=1.0,
                         lam_T=1.0)
    calibrate_k1(simulate_pair(pair, [0.0], [0.0], cfg, seed=1), [], kappa1=1.0)


def _ellipticity_without_kappa():
    from zvlab.fields import CoefficientSet
    from zvlab.zvonkin import ZvonkinMap, ellipticity_certificate
    coeffs = CoefficientSet(sigma=constant_sigma(np.eye(1)))
    zm = ZvonkinMap(grid=grid1(n=5, m=1), coeffs=coeffs, lam=1.0, phi=None,
                    grad_sup=0.0, trace=[])
    ellipticity_certificate(zm)


def _too_many_widths():
    from zvlab.sde import SimSpec, bump_family_stat
    bump_family_stat(SimSpec(T=1.0, n_steps=100, n_paths=8, seed=1, L=4.0),
                     NormSpec(p=4.0, q=16.0), [0.1] * 256)


def _sweep_without_decay():
    from zvlab.pde import lambda_sweep
    # 2/q + d/p = 8/3 >= 2: the predicted exponent (2 - beta) / 2 is negative
    lambda_sweep(None, None, [10.0], NormSpec(p=1.5, q=1.5, d=2))


def _threads(monkeypatch, value):
    from zvlab import parallel
    monkeypatch.setenv("ZVLAB_THREADS", value)
    parallel.n_workers()


INPUT_CHECKS = {
    "grid-d": (ValueError, lambda mp: GridSpec(d=3, n=5, m=1, L=1.0, T=1.0),
               "d must be 1 or 2, got 3"),
    "grid-m": (ValueError, lambda mp: GridSpec(d=1, n=5, m=0, L=1.0, T=1.0),
               "m must be >= 1, got 0"),
    "grid-L": (ValueError, lambda mp: GridSpec(d=1, n=5, m=1, L=math.nan, T=1.0),
               "L must be positive and finite, got nan"),
    "grid-T": (ValueError, lambda mp: GridSpec(d=1, n=5, m=1, L=1.0, T=0.0),
               "T must be positive and finite, got 0.0"),
    "norm-d": (ValueError, lambda mp: NormSpec(p=4.0, q=16.0, d=3),
               "d must be 1 or 2, got 3"),
    "gridfunction-shape": (
        ValueError, lambda mp: GridFunction(grid1(n=5, m=1), np.zeros((2, 4))),
        r"values shape \(2, 4\), expected \(2, 5\)"),
    "interp-dimension": (
        ValueError,
        lambda mp: interp_space(grid1(n=5, m=1), np.zeros(5), np.zeros((3, 2))),
        "points have dimension 2, grid is 1-d"),
    "theta-no-gamma": (ValueError, lambda mp: _no_gamma(), "no gamma supplied"),
    "calibrate-equal-points": (ValueError, lambda mp: _calibrate_at_equal_points(),
                               "needs x != y"),
    "ellipticity-no-kappa": (ValueError, lambda mp: _ellipticity_without_kappa(),
                             "no ellipticity certificate: kappa1=0.0, kappa2=0.0"),
    "bump-widths": (ValueError, lambda mp: _too_many_widths(),
                    "at most 255 bump widths, got 256"),
    "sweep-decay": (ValueError, lambda mp: _sweep_without_decay(),
                    "non-positive exponent, got -0.33.* for p=1.5, q=1.5"),
    "threads-not-int": (SystemExit, lambda mp: _threads(mp, "two"),
                        "ZVLAB_THREADS must be an integer, got 'two'"),
    "threads-below-1": (SystemExit, lambda mp: _threads(mp, "0"),
                        "ZVLAB_THREADS must be >= 1, got '0'"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_checks_name_their_input(monkeypatch, case):
    # each check refuses its input before any work, and the message names it
    exc, call, match = INPUT_CHECKS[case]
    with pytest.raises(exc, match=match):
        call(monkeypatch)
