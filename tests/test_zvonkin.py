"""Map-construction tests: lam ladder, inversion, certificates, cancellation.

Closed-form oracle for constant singular part b0 = c on a = 1/2, no other
drift: interior phi(t) = (c/lam)(1 - exp(-lam (T-t))) and the stationary
boundary-layer slope (c/lam) k tanh(k L), k = sqrt(2 lam).  The transient
peak slope exceeds the stationary value by a modest factor, so gradient
comparisons carry a 10% band while interior values are sharp.
"""

from dataclasses import replace

import numpy as np
import pytest

from zvlab import coupling, zvonkin
from zvlab.coupling import CouplingConfig, h5_certificate
from zvlab.fields import (CoefficientSet, GridFunction, GridSpec, constant_sigma,
                          interp_space)
from zvlab.pde import sample_operator
from zvlab.sde import SdeModel
from zvlab.zvonkin import (InverseEscape, LambdaSearchError, ZvonkinMap,
                           _cell_tables, _image_cell, bilipschitz_certificate, build_zvonkin,
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
    assert np.all(x == y) and its == 1     # exact: y - 0, bit for bit


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


def test_ladder_exhaustion_raises_with_trace(monkeypatch):
    grid = GridSpec(d=1, n=301, m=50, L=6.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b0=const_b0(1.5), kappa1=0.5, kappa2=0.5)
    monkeypatch.setattr(zvonkin, "MAX_LAMBDA_STEPS", 1)
    with pytest.raises(LambdaSearchError) as ei:
        build_zvonkin(cs, grid)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        capped = sample_operator(zm.coeffs, zm.grid)["capped"]
    assert capped == zm.grid.m + 1                     # origin node per slice
    rt = roundtrip_certificate(zm)
    assert rt["passed"], rt
    # the 1-d inverse is exact: one pass, no fixed-point sweeps
    y = np.linspace(-1.5, 1.5, 64)[:, None]
    for t in (0.0, 0.5, 0.9):
        _, its = zm.invert(t, y)
        assert its == 1


def reference_fixed_point(zm, t, y, sweeps=200):
    x = y
    for _ in range(sweeps):
        x = y - zm.phi.eval(t, x)
    return x


def test_exact_1d_inverse(singular_map):
    # phi vanishes on the walls; a time-dependent shift gives the rays
    # past +-L non-zero offsets without changing grad phi
    ts = singular_map.grid.ts[:, None, None]
    shifted = replace(singular_map, phi=GridFunction(
        singular_map.grid, singular_map.phi.values + 0.05 + 0.1 * ts))
    t = 0.37                                  # between time slices
    L = singular_map.grid.L
    y = np.linspace(-1.9 * L, 1.9 * L, 1001)[:, None]
    for zm in (singular_map, shifted):
        x, its = zm.invert(t, y, on_escape="flag")
        assert its == 1
        assert np.abs(zm.forward(t, x) - y).max() <= 1e-13
        assert np.abs(x - reference_fixed_point(zm, t, y)).max() <= 1e-10
        # past the images of +-L the clamped phi is constant: slope-1 rays
        ends = zm.phi.eval(t, np.array([[-L], [L]]))
        lo = y[:, 0] < -L + ends[0, 0]
        hi = y[:, 0] > L + ends[1, 0]
        assert lo.any() and hi.any()
        assert np.all(x[lo] == y[lo] - ends[0])
        assert np.all(x[hi] == y[hi] - ends[1])
    assert ends[0, 0] > 0.05                  # the shifted map's rays are offset
    # a map that folds over has no inverse
    g = singular_map.grid
    folded = replace(singular_map, phi=GridFunction(
        g, np.broadcast_to(-1.5 * g.xs[:, None], (g.m + 1, g.n, 1))))
    with pytest.raises(ValueError, match="not strictly increasing at t=0.37"):
        folded.invert(t, y)


def test_cell_index_matches_searchsorted():
    # cell widths from 0.05 h to 4 h, so that a bucket holds several node
    # images, and maps with one cell 1e-9 h wide
    rng = np.random.default_rng(3)
    for case in range(60):
        grid = GridSpec(d=1, n=2 * int(rng.integers(1, 150)) + 1, m=1, L=2.0, T=1.0)
        width = grid.h + rng.uniform(-0.95, 3.0, grid.n - 1) * grid.h
        if case % 6 == 5:
            width[rng.integers(grid.n - 1)] = 1e-9 * grid.h
        knots = grid.xs[0] + np.concatenate(([0.0], np.cumsum(width))) + rng.normal()
        assert np.all(np.diff(knots) > 0.0)                  # node images
        # random points, every knot and its neighbours, points far outside
        # and NaN, which sorts last
        y = np.concatenate([
            rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 1000),
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [-np.inf, -1e300, 1e300, np.inf, np.nan]])
        ref = np.searchsorted(knots, y, side="right")      # the cell, rays included
        table = _cell_tables(knots[None])[0]
        assert table[4].dtype == np.int32               # the bucket counts
        assert np.array_equal(_image_cell(table, y), ref)
        # an (N, 1) column gives the column shape
        col = _image_cell(table, y[:, None])
        assert col.shape == (y.size, 1) and np.array_equal(col[:, 0], ref)


def test_transformed_1d_matches_the_composite(singular_map, monkeypatch):
    # the cell-local stepper against invert, then phi.eval at x, then
    # grad_phi_at, none of which it calls
    g = singular_map.grid
    ts = g.ts[:, None, None]
    shifted = replace(singular_map, phi=GridFunction(
        g, singular_map.phi.values + 0.05 + 0.1 * ts))
    rng = np.random.default_rng(11)
    t = 0.37
    for zm in (singular_map, shifted):
        ends = zm.phi.eval(t, np.array([[-g.L], [g.L]]))[:, 0]
        y = np.concatenate([
            rng.uniform(-1.9 * g.L, 1.9 * g.L, 2000),      # interior, and past
            g.xs + zm.phi.time_slice(t)[:, 0],             # the node images
            [-g.L - 0.25 * g.h + ends[0], g.L + 0.25 * g.h + ends[1]],
            rng.uniform(2.1, 3.0, 40) * g.L * np.repeat([-1.0, 1.0], 20),
        ])[:, None]
        x, _ = zm.invert(t, y, on_escape="flag")
        assert (np.abs(x) > 2 * g.L).sum() == 40           # escaped rows, kept
        Z0 = zm.lam * zm.phi.eval(t, x)
        S0 = np.einsum("...ij,...jk->...ik", 1.0 + zm.grad_phi_at(t, x),
                       zm.coeffs.sigma(t, x))
        with monkeypatch.context() as mp:
            for owner, name in ((ZvonkinMap, "invert"), (ZvonkinMap, "grad_phi_at"),
                                (GridFunction, "eval")):
                mp.setattr(owner, name, None)
            Z, S = zm.transformed(t, y, on_escape="flag")
        np.testing.assert_allclose(Z, Z0, rtol=1e-12, atol=1e-12 * np.abs(Z0).max())
        np.testing.assert_allclose(S, S0, rtol=1e-12, atol=0.0)
    # beyond 2L the preimage escapes; "raise" names t and the worst row
    with pytest.raises(InverseEscape) as ei:
        singular_map.transformed(0.37, np.array([[0.0], [1.0], [2.5 * g.L]]))
    msg = str(ei.value)
    assert "t=0.37" in msg and "worst row 2" in msg and "y=[5.]" in msg


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_merged_table_matches_the_formulas(singular_map):
    # invert and transformed read x, phi and grad phi as affine pieces of
    # y; the formulas they replace are phi interpolated between the node
    # images at the preimage, and grad_phi_at's central difference there.
    # Queries: random points, the node images, the images of the half-cell
    # points, both rays, and +-inf and NaN, which give x = +-inf and NaN
    g = singular_map.grid
    shifted = replace(singular_map, phi=GridFunction(
        g, singular_map.phi.values + 0.05 + 0.1 * g.ts[:, None, None]))
    rng = np.random.default_rng(12)
    t = 0.37
    half = np.append(g.xs - 0.5 * g.h, g.L + 0.5 * g.h)[:, None]
    for zm in (singular_map, shifted):
        vals = zm.phi.time_slice(t)[:, 0]
        img = g.xs + vals
        y = np.concatenate([
            rng.uniform(-1.9 * g.L, 1.9 * g.L, 2000), img,
            (half + zm.phi.eval(t, half))[:, 0],
            rng.uniform(1.0, 3.0, 40) * g.L * np.repeat([-1.0, 1.0], 20)])[:, None]
        phi = np.interp(y, img, vals)         # constant past the end images
        x0 = y - phi
        S0 = (1.0 + zm.grad_phi_at(t, x0)) * zm.coeffs.sigma(t, x0)
        x, _ = zm.invert(t, y, on_escape="flag")
        Z, S = zm.transformed(t, y, on_escape="flag")
        for got, ref in ((x, x0), (Z, zm.lam * phi), (S, S0)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
        y = np.array([[-np.inf], [np.inf], [np.nan]])
        x, _ = zm.invert(t, y, on_escape="flag")
        Z, S = zm.transformed(t, y, on_escape="flag")
        assert x[:2, 0].tolist() == [-np.inf, np.inf] and np.isnan(x[2, 0])
        assert Z[:2, 0].tolist() == (zm.lam * vals[[0, -1]]).tolist()
        assert S[:2].ravel().tolist() == [1.0, 1.0]
        assert np.isnan(Z[2, 0]) and np.isnan(S[2]).all()
    # phi = 0: y itself, Z = b1 and Sigma = sigma, bit for bit
    cs = CoefficientSet(sigma=lambda t, x: (1.0 + 0.3 * np.sin(x))[..., None],
                        b1=lambda t, x: -0.7 * x, kappa1=0.5, kappa2=2.0)
    zero = replace(singular_map, coeffs=cs, phi=GridFunction(
        g, np.zeros_like(singular_map.phi.values)))
    y = rng.uniform(-1.9 * g.L, 1.9 * g.L, (500, 1))
    Z, S = zero.transformed(t, y, on_escape="flag")
    assert np.array_equal(zero.invert(t, y, on_escape="flag")[0], y)
    assert np.array_equal(Z, cs.b1(t, y)) and np.array_equal(S, cs.sigma(t, y))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_row_gives_nan_row(singular_map, small_2d_map):
    # a NaN row comes out NaN without a cast warning or an index error, and
    # the finite row beside it keeps the bits of a call of its own
    t = 0.37
    y = np.array([[0.1], [np.nan]])
    Z, S = singular_map.transformed(t, y, on_escape="flag")
    Z1, S1 = singular_map.transformed(t, y[:1], on_escape="flag")
    assert np.array_equal(Z[:1], Z1) and np.array_equal(S[:1], S1)
    assert np.isnan(Z[1]).all() and np.isnan(S[1]).all()
    x, _ = singular_map.invert(t, y, on_escape="flag")
    assert np.array_equal(x[:1], singular_map.invert(t, y[:1])[0])
    assert np.isnan(x[1]).all()
    for zm, x in ((singular_map, y), (small_2d_map, np.array([[0.1, -0.2], [np.nan, 0.3]]))):
        sl = zm.phi.time_slice(t)
        out, _ = interp_space(zm.grid, sl, x)
        assert np.array_equal(out[:1], interp_space(zm.grid, sl, x[:1])[0])
        assert np.isnan(out[1]).all()


@pytest.fixture(scope="module")
def small_2d_map():
    grid = GridSpec(d=2, n=11, m=4, L=2.0, T=0.5)
    cs = CoefficientSet(sigma=constant_sigma(np.eye(2)), b0=const_b0(0.3),
                        kappa1=0.5, kappa2=0.5)
    return build_zvonkin(cs, grid)


def test_inversion_errors_name_the_input(singular_map, small_2d_map, monkeypatch):
    # only the 2-d fixed point can stall
    y2 = np.array([[0.0, 0.0], [0.5, -0.3], [1.0, 1.0]])
    x2, its = small_2d_map.invert(0.37, y2)
    assert 1 < its <= 40
    assert np.abs(small_2d_map.forward(0.37, x2) - y2).max() <= 1e-9
    with monkeypatch.context() as m:
        m.setattr(zvonkin, "INVERT_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="stalled") as ei:
            small_2d_map.invert(0.37, y2)
    msg = str(ei.value)
    assert "t=0.37" in msg and "INVERT_MAX_ITER=1" in msg and "worst row" in msg
    zm = singular_map
    # beyond 2L the clamped map is flat, so the preimage is y - phi(L)
    y_out = np.array([[0.0], [1.0], [2.5 * zm.grid.L]])
    with pytest.raises(InverseEscape) as ei:
        zm.invert(0.37, y_out)
    msg = str(ei.value)
    assert "t=0.37" in msg and "worst row 2" in msg and "y=[5.]" in msg
    x, _ = zm.invert(0.37, y_out, on_escape="flag")
    assert np.abs(x[2]).max() > 2.0 * zm.grid.L


def test_a_nan_preimage_is_an_escape(singular_map):
    # the engines' box test: a non-finite row of x fails it, so raise mode
    # names the NaN row and flag mode returns it as it is
    y = np.array([[0.1], [np.nan]])
    with pytest.raises(InverseEscape) as ei:
        singular_map.invert(0.37, y)
    assert "1 preimage(s)" in str(ei.value) and "worst row 1" in str(ei.value)
    x, _ = singular_map.invert(0.37, y, on_escape="flag")
    assert np.isfinite(x[0]).all() and np.isnan(x[1]).all()


def test_2d_inverse_is_row_local(small_2d_map):
    # each row stops on its own update, so inverting a batch gives every
    # row the bits of inverting it alone
    y = np.random.default_rng(4).uniform(-1.5, 1.5, (300, 2))
    x, _ = small_2d_map.invert(0.37, y)
    for i in range(len(y)):
        assert small_2d_map.invert(0.37, y[i:i + 1])[0].tobytes() == x[i:i + 1].tobytes(), i


def test_singular_part_cancels_in_transformed_drift(singular_map):
    zm = singular_map
    y = np.linspace(-1.8, 1.8, 181)[:, None]
    for t in (0.0, 0.37, 0.9):
        vals, _ = zm.transformed(t, y)
        assert np.all(np.isfinite(vals))
        # b1 = 0 here, so |Z| <= lam * sup|phi| exactly; the raw b0
        # near the origin is an order of magnitude larger
        assert np.abs(vals).max() <= zm.lam * np.abs(zm.phi.values).max() * (1 + 1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.abs(singular_b0(0.0, np.array([[0.01]])))[0, 0]
    assert raw > 5 * np.abs(zm.transformed(0.0, np.array([[0.01]]))[0]).max()


def test_certificates_on_singular_map(singular_map):
    zm = singular_map
    bl = bilipschitz_certificate(zm)
    assert bl["passed"] and bl["violations"] == 0
    # the sandwich 1 -+ GRAD_TARGET is the certificate's own bound
    assert (bl["lower_bound"], bl["upper_bound"]) == (0.5, 1.5)
    assert bl["lower_bound"] <= bl["ratio_min"] and bl["ratio_max"] <= bl["upper_bound"]
    el = ellipticity_certificate(zm)
    assert el["passed"], el
    tc = transformed_constants(zm)
    assert np.isfinite(tc["K_T"]) and tc["delta_T"] >= 0 and tc["lam_T"] > 0


def test_constants_are_measured_by_pair_constants(singular_map, monkeypatch):
    # h5_certificate and transformed_constants both measure through
    # coupling.pair_constants, each on its own sample
    calls = []
    real = coupling.pair_constants

    def spy(pair, xs, ys, ts, alpha):
        out = real(pair, xs, ys, ts, alpha)
        calls.append((pair, len(xs), len(ts), alpha, out))
        return out

    monkeypatch.setattr(coupling, "pair_constants", spy)
    monkeypatch.setattr(zvonkin, "pair_constants", spy)
    tc = transformed_constants(singular_map, n_pairs=16)
    pair = SdeModel(d=1, drift=lambda t, x: -0.5 * x, sigma=SIG1)
    cfg = CouplingConfig(T=1.0, m=100, n_paths=1, L=2.0, K_T=1.0,
                         delta_T=1.0, lam_T=1.0, alpha=0.75)
    h5 = h5_certificate(pair, cfg)
    assert len(calls) == 2
    (tc_pair, tc_n, tc_m, tc_alpha, tc_out), (h5_pair, _, h5_m, h5_alpha, h5_out) = calls
    assert tc_pair.stepper == singular_map.transformed
    assert (tc_n, tc_m, tc_alpha) == (16, 4, 1.0)
    assert {k: tc[k] for k in tc_out} == tc_out
    assert h5_pair is pair and (h5_m, h5_alpha) == (coupling.H5_TIMES, 0.75)
    assert {k: h5[k] for k in h5_out} == h5_out and h5["passed"]


def test_transformed_coefficients_interior_oracle():
    grid = GridSpec(d=1, n=601, m=100, L=6.0, T=1.0)
    c = 0.3
    cs = CoefficientSet(sigma=SIG1, b0=const_b0(c), kappa1=0.5, kappa2=0.5)
    zm = build_zvonkin(cs, grid)
    assert zm.lam == 10.0
    y = np.linspace(-2.0, 2.0, 41)[:, None]
    for t in (0.0, 0.5):
        oracle = c * (1 - np.exp(-zm.lam * (grid.T - t)))
        drift, S = zm.transformed(t, y)
        assert np.abs(drift - oracle).max() <= 1e-3 * max(oracle, 1e-2)
        assert np.abs(S - 1.0).max() <= 5e-3    # grad phi vanishes away from walls


def test_lipschitz_sup_closed_form_matches_svd():
    # the 2-d bound is the largest singular value of per-cell 2x2 stacks of
    # non-negative quotients; the reference takes it from LAPACK's SVD
    grid = GridSpec(d=2, n=3, m=1, L=1.0, T=1.0)

    def svd_sup(vals):
        dx = np.abs(np.diff(vals, axis=1)) / grid.h
        dy = np.abs(np.diff(vals, axis=2)) / grid.h
        mat = np.stack([np.maximum(dx[:, :, :-1], dx[:, :, 1:]),
                        np.maximum(dy[:, :-1], dy[:, 1:])], axis=-1)
        return np.linalg.svd(mat.reshape(-1, 2, 2), compute_uv=False).max()

    rng = np.random.default_rng(5)
    shape = (grid.m + 1, grid.n, grid.n, 2)
    cases = [rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3) for _ in range(300)]
    # equal singular values, exactly and nearly, where F^2 - 4 det^2 cancels
    iso = np.broadcast_to(0.3 * grid.nodes().reshape(shape[1:]), shape)
    cases += [iso, iso + 1e-9 * np.abs(rng.normal(size=shape))]
    for vals in cases:
        assert interp_lipschitz_sup(vals, grid) == pytest.approx(svd_sup(vals), rel=1e-13)


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
