"""Map-construction tests: lam ladder, inversion, certificates, cancellation.

Closed-form oracle for constant singular part b0 = c on a = 1/2, no other
drift: interior phi(t) = (c/lam)(1 - exp(-lam (T-t))) and the stationary
boundary-layer slope (c/lam) k tanh(k L), k = sqrt(2 lam).  The transient
peak slope exceeds the stationary value by a modest factor, so gradient
comparisons carry a 10% band while interior values are sharp.
"""

import numpy as np
import pytest

from zvlab.fields import CoefficientSet, GridSpec, constant_sigma
from zvlab.zvonkin import (InverseEscape, LambdaSearchError,
                           bilipschitz_certificate, build_zvonkin,
                           ellipticity_certificate,
                           interp_lipschitz_sup, roundtrip_certificate,
                           transformed_constants)

SIG1 = constant_sigma(np.array([[1.0]]))      # a = 1/2


def const_b0(c):
    return lambda t, x: np.full_like(x, c)


def test_zero_drift_gives_identity_map():
    grid = GridSpec(d=1, n=101, m=20, L=4.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, kappa1=0.5, kappa2=0.5)
    zm = build_zvonkin(cs, grid)
    assert zm.lam == 10.0 and zm.grad_sup == 0.0
    y = np.array([[0.3], [-1.7]])
    assert np.abs(zm.forward(0.5, y) - y).max() == 0.0
    x, its = zm.invert(0.5, y)
    assert np.abs(x - y).max() == 0.0 and its <= 2


def test_lambda_ladder_and_boundary_layer_oracle():
    grid = GridSpec(d=1, n=601, m=100, L=6.0, T=1.0)
    c = 1.5
    cs = CoefficientSet(sigma=SIG1, b0=const_b0(c), kappa1=0.5, kappa2=0.5)
    zm = build_zvonkin(cs, grid)
    assert len(zm.trace) == 2
    assert zm.trace[0][0] == 10.0 and zm.trace[0][1] > 0.5
    assert zm.lam == 40.0 and zm.grad_sup < 0.5
    k = np.sqrt(2 * zm.lam)
    stationary = (c / zm.lam) * k * np.tanh(k * grid.L)
    assert abs(zm.grad_sup - stationary) <= 0.10 * stationary
    mid = grid.n // 2
    for kk in (0, grid.m // 2):
        t = grid.ts[kk]
        oracle = (c / zm.lam) * (1 - np.exp(-zm.lam * (grid.T - t)))
        assert abs(zm.phi.values[kk, mid, 0] - oracle) <= 1e-5 * max(oracle, 1e-3)


def test_ladder_exhaustion_raises_with_trace():
    grid = GridSpec(d=1, n=301, m=50, L=6.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b0=const_b0(1.5), kappa1=0.5, kappa2=0.5)
    with pytest.raises(LambdaSearchError) as ei:
        build_zvonkin(cs, grid, max_steps=1)
    assert len(ei.value.trace) == 1 and ei.value.trace[0][1] > 0.5


def singular_b0(t, x):
    r = x[..., 0]
    mag = 0.5 * np.sign(r) * np.abs(r) ** -0.2 * (np.abs(r) <= 1.0)
    return mag[..., None]


@pytest.fixture(scope="module")
def singular_map():
    grid = GridSpec(d=1, n=401, m=100, L=2.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b0=singular_b0, kappa1=0.5, kappa2=0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        return build_zvonkin(cs, grid)


def test_singular_build_and_inversion(singular_map):
    zm = singular_map
    assert zm.grad_sup < 0.5
    assert zm.solution.capped_nodes == zm.grid.m + 1   # origin node per slice
    rt = roundtrip_certificate(zm)
    assert rt["passed"], rt
    # warm start from the solution at a nearby time cannot be worse
    y = np.linspace(-1.5, 1.5, 64)[:, None]
    x_prev, its_cold = zm.invert(0.50, y)
    _, its_warm = zm.invert(0.51, y, x0=x_prev)
    assert its_warm <= its_cold <= 40


def test_inversion_errors_name_the_input(singular_map):
    zm = singular_map
    y = np.array([[0.0], [0.05], [1.0]])
    with pytest.raises(RuntimeError, match="stalled") as ei:
        zm.invert(0.37, y, max_iter=1)
    msg = str(ei.value)
    assert "t=0.37" in msg and "max_iter=1" in msg and "worst row" in msg
    # beyond 2L the clamped map is flat, so the fixed point converges to y
    y_out = np.array([[0.0], [1.0], [2.5 * zm.grid.L]])
    with pytest.raises(InverseEscape) as ei:
        zm.invert(0.37, y_out)
    msg = str(ei.value)
    assert "t=0.37" in msg and "worst row 2" in msg and "y=[5.]" in msg
    x, _ = zm.invert(0.37, y_out, on_escape="flag")
    assert np.abs(x[2]).max() > 2.0 * zm.grid.L


def test_singular_part_cancels_in_transformed_drift(singular_map):
    zm = singular_map
    y = np.linspace(-1.8, 1.8, 181)[:, None]
    for t in (0.0, 0.37, 0.9):
        vals, _, _ = zm.transformed(t, y)
        assert np.all(np.isfinite(vals))
        # b1 = b2 = 0 here, so |Z| <= lam * sup|phi| exactly; the raw b0
        # near the origin is an order of magnitude larger
        assert np.abs(vals).max() <= zm.lam * zm.phi.sup() * (1 + 1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.abs(singular_b0(0.0, np.array([[0.01]])))[0, 0]
    assert raw > 5 * np.abs(zm.transformed(0.0, np.array([[0.01]]))[0]).max()


def test_certificates_on_singular_map(singular_map):
    zm = singular_map
    bl = bilipschitz_certificate(zm)
    assert bl["passed"] and bl["violations"] == 0
    assert bl["ratio_min"] >= 0.5 and bl["ratio_max"] <= 1.5
    el = ellipticity_certificate(zm)
    assert el["passed"], el
    tc = transformed_constants(zm)
    assert np.isfinite(tc["K_T"]) and tc["delta_T"] >= 0 and tc["lam_T"] > 0


def test_transformed_coefficients_interior_oracle():
    grid = GridSpec(d=1, n=601, m=100, L=6.0, T=1.0)
    c = 0.3
    cs = CoefficientSet(sigma=SIG1, b0=const_b0(c), kappa1=0.5, kappa2=0.5)
    zm = build_zvonkin(cs, grid)
    assert zm.lam == 10.0
    y = np.linspace(-2.0, 2.0, 41)[:, None]
    for t in (0.0, 0.5):
        oracle = c * (1 - np.exp(-zm.lam * (grid.T - t)))
        drift, S, _ = zm.transformed(t, y)
        assert np.abs(drift - oracle).max() <= 1e-3 * max(oracle, 1e-2)
        assert np.abs(S - 1.0).max() <= 5e-3    # grad phi vanishes away from walls


def test_lipschitz_sup_exact_for_linear_fields():
    grid = GridSpec(d=2, n=11, m=2, L=1.0, T=1.0)
    nodes = grid.nodes()

    def sup_for(A):
        vals = np.tile((nodes @ A.T).reshape(grid.n, grid.n, 2), (grid.m + 1, 1, 1, 1))
        return interp_lipschitz_sup(vals, grid)

    A_pos = np.array([[0.2, 0.1], [0.05, 0.15]])   # nonnegative: bound is exact
    assert abs(sup_for(A_pos) - np.linalg.svd(A_pos, compute_uv=False).max()) <= 1e-12
    A_mix = np.array([[0.2, 0.1], [0.05, -0.15]])  # mixed signs: entrywise-abs bound
    got = sup_for(A_mix)
    true_norm = np.linalg.svd(A_mix, compute_uv=False).max()
    abs_norm = np.linalg.svd(np.abs(A_mix), compute_uv=False).max()
    assert got >= true_norm - 1e-12                # never understates
    assert abs(got - abs_norm) <= 1e-12

    grid1 = GridSpec(d=1, n=11, m=2, L=1.0, T=1.0)
    v1 = np.tile((0.35 * grid1.xs)[:, None], (grid1.m + 1, 1, 1))
    assert abs(interp_lipschitz_sup(v1, grid1) - 0.35) <= 1e-12
