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

    gf, capped = sample_field(b0, grid, kind="vector", cap_singular=True)
    assert capped == grid.m + 1  # origin node on every slice
    i0 = grid.n // 2
    cap_mag = 0.5 * grid.h ** (-0.2)
    assert np.all(np.abs(gf.values[:, i0, 0]) <= cap_mag + 1e-12)
    # odd neighbours average to zero at the origin
    assert np.max(np.abs(gf.values[:, i0, 0])) < 1e-12


def test_sample_uncapped_rejects_nonfinite():
    grid = GridSpec(d=1, n=11, m=1, L=1.0, T=1.0)

    def bad(t, x):
        x = np.asarray(x)[..., 0]
        with np.errstate(divide="ignore"):
            return 1.0 / x

    with pytest.raises(ValueError):
        sample_field(bad, grid, kind="scalar", cap_singular=False)


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
