"""Phase-space change of variables that removes the singular drift part.

phi solves the vector backward system (one component per coordinate)

    d_t phi + tr(a D^2 phi) + (b1 + b0) . grad phi = lam phi - b0,

so the map Phi_t(x) = x + phi(t, x) turns dX = (b1 + b0) dt + sigma dW
into dY = Z(t, Y) dt + Sigma(t, Y) dW with

    Z     = (b1 + lam phi) o Phi^{-1},
    Sigma = ((I + grad phi) sigma) o Phi^{-1}.

The singular part b0 is absorbed exactly.  lam is raised on a fixed
quadrupling ladder until the interpolated phi has Lipschitz constant
below GRAD_TARGET, which makes Phi_t bi-Lipschitz with explicit bounds.
In 1-d the interpolated Phi_t is then a strictly increasing piecewise-
linear function, and its inverse, phi and the mean slope of phi are
affine in y on each cell of one table per step time (StepTable); in
2-d the inverse is the contraction fixed point x <- y - phi(t, x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import pair_constants
from .fields import CoefficientSet, GridFunction, GridSpec
from .pde import sample_operator, solve_phi_system
from .report import CheckRecord, all_pass, pass_fail
from .sde import SdeModel, in_box
from . import rng as _rng

GRAD_TARGET = 0.5          # Lipschitz target for phi
LAMBDA_START = 10.0
LAMBDA_FACTOR = 4.0
MAX_LAMBDA_STEPS = 12
INVERT_TOL = 1e-10
INVERT_MAX_ITER = 40
ROUNDTRIP_TOL = 10 * INVERT_TOL
ELLIPTICITY_RTOL = 1e-9


def interp_lipschitz_sup(phi_vals: np.ndarray, grid: GridSpec) -> float:
    """Lipschitz constant of the interpolated phi via one-sided quotients.

    Multilinear interpolation has piecewise-affine restrictions along each
    axis, so the per-cell forward difference quotients bound the gradient
    exactly in 1-d and give an entrywise-dominating matrix in 2-d whose
    operator norm dominates the interpolant's.
    """
    h = grid.h
    if grid.d == 1:
        q = np.abs(np.diff(phi_vals, axis=1)) / h      # (m+1, n-1, 1)
        return float(q.max())
    dx = np.abs(np.diff(phi_vals, axis=1)) / h         # (m+1, n-1, n, d)
    dy = np.abs(np.diff(phi_vals, axis=2)) / h         # (m+1, n, n-1, d)
    qx = np.maximum(dx[:, :, :-1], dx[:, :, 1:])       # per cell, both far corners
    qy = np.maximum(dy[:, :-1], dy[:, 1:])
    a, b, c, e = qx[..., 0], qy[..., 0], qx[..., 1], qy[..., 1]   # [[a, b], [c, e]]
    # largest singular value sqrt((F + sqrt(F^2 - 4 det^2)) / 2), F = a^2 + b^2
    # + c^2 + e^2, as (|(a+e, b-c)| + |(a-e, b+c)|) / 2, where nothing cancels
    return float(0.5 * (np.hypot(a + e, b - c) + np.hypot(a - e, b + c)).max())


def _bucket(v, lo, inv_bw, nb):
    """The bucket of each v, clamped to [0, nb + 1]; NaN goes to nb + 1."""
    return np.fmax(np.fmin((v - lo) * inv_bw, nb + 1), 0.0).astype(np.int64)


def _cell_tables(brk: np.ndarray) -> list:
    """_image_cell's table for each row of brk (S, N), strictly increasing
    breakpoints, all built in one pass: 2N + 2 buckets, span / (2N) wide
    from the row's first point, the last holding no point and taking NaN
    and +inf; the count of points below each bucket, as intp, the index
    type of a gather, so no step casts it; the row with a NaN appended;
    and the most points one bucket of any row holds."""
    S, N = brk.shape
    nb = 2 * N
    lo, inv_bw = brk[:, 0], nb / (brk[:, -1] - brk[:, 0])
    bk = _bucket(brk, lo[:, None], inv_bw[:, None], nb)
    bk += (nb + 2) * np.arange(S)[:, None]              # one bucket range per row
    count = np.bincount(bk.ravel(), minlength=S * (nb + 2)).reshape(S, nb + 2)
    below = (np.cumsum(count, axis=1) - count).astype(np.intp)
    pad = np.concatenate([brk, np.full((S, 1), np.nan)], axis=1)   # no row steps past N
    passes = int(count[:, :-1].max())
    return [(pad[i], lo[i], inv_bw[i], nb, below[i], passes) for i in range(S)]


def _image_cell(table: tuple, y: np.ndarray) -> np.ndarray:
    """The cell of each y among the N + 1 cells of the breakpoints brk of
    _cell_tables, the two rays included: searchsorted(brk, y, "right")
    (NaN sorts last).  A bucket index never decreases as y grows, so
    points in lower buckets are < y and those in higher ones > y: from the
    count of the lower ones, j steps over the points in y's bucket, one
    compare each.  There is at most one when every cell is wider than a
    bucket.  For a map build_zvonkin returns, grad_sup < 1/2 makes every
    cell of its StepTable at least h/4 wide, about one bucket of a span
    near 2L + h."""
    pad, lo, inv_bw, nb, below, passes = table
    j = below[_bucket(y, lo, inv_bw, nb)]
    for _ in range(passes):
        j += y >= pad[j]
    return j


@dataclass(frozen=True)
class StepTable:
    """What the 1-d transformed stepper computes once per time t, for every
    row.  Its breakpoints in y merge the node images x_i + phi_t(x_i) with
    the images of the half-cell points x_i - h/2 and L + h/2, which
    interleave with them.  On each of their 2n + 2 cells, the rays
    included, x = Phi_t^{-1}(y) is affine in y, and so are phi_t(x) and
    the mean slope G(x) of phi_t over [x - h/2, x + h/2]: coef holds, per
    cell, the offset and slope in y of phi, then those of G."""

    cells: tuple
    coef: np.ndarray

    def eval(self, y: np.ndarray):
        """(x, phi_t(x), G(x)) at x = Phi_t^{-1}(y), for y of any shape: one
        cell search, one gather and one multiply-add each for phi and G."""
        c = self.coef.take(_image_cell(self.cells, y), axis=0)
        # phi and G are flat on the rays, so clamping y there changes
        # nothing, and +-inf meets no 0 * inf
        yc = np.clip(y, self.cells[0][0], self.cells[0][-2])
        phi = c[..., 0] + c[..., 1] * yc
        return y - phi, phi, c[..., 2] + c[..., 3] * yc


class LambdaSearchError(RuntimeError):
    """The quadrupling ladder exhausted its steps without meeting the target."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            "no admissible lam found; trace " +
            ", ".join(f"(lam={l:g}, sup_grad={s:.4f})" for l, s in trace))


class InverseEscape(RuntimeError):
    """A preimage left the doubled box (query too near the wall)."""


@dataclass
class ZvonkinMap:
    grid: GridSpec
    coeffs: CoefficientSet
    lam: float
    phi: GridFunction                   # vector field, (m+1, n[, n], d)
    grad_sup: float
    trace: list

    # -- point evaluation ---------------------------------------------------

    def forward(self, t: float, x: np.ndarray) -> np.ndarray:
        """Phi_t(x) = x + phi(t, x) at the rows of x (N, d)."""
        x = np.asarray(x, dtype=float)
        return x + self.phi.eval(t, x)

    def invert(self, t: float, y: np.ndarray, on_escape: str = "raise"):
        """Solve x + phi(t, x) = y.  Returns (x, iterations).

        1-d: exact.  Phi_t is piecewise linear on the nodes and strictly
        increasing (grad_sup < 1), so each y lies in one cell of the merged
        breakpoints of StepTable, between the slope-1 rays past +-L where
        the clamped phi is constant; x = y - phi with phi affine in that
        cell (phi = 0 gives back y bit for bit).  iterations = 1.

        2-d: the contraction x <- y - phi(t, x), started at y, which is
        within sup |phi| of the solution.  Convergence rate is grad_sup
        < 1, geometric.  Each row stops once its own update is at most
        INVERT_TOL, or is NaN, when the row comes back non-finite, so its
        bits do not depend on the rows beside it, and only the rows still
        moving are swept again; iterations is the count of sweeps.  Raises,
        naming the worst row, if a row has not stopped in INVERT_MAX_ITER
        sweeps.

        Preimages outside the doubled box mean y sits too close to the
        wall for the interpolated map: on_escape="raise" raises
        InverseEscape, "flag" keeps the clamped-field solution (bulk
        sampling mode) and leaves the caller to count the rows of x
        outside the box.  Both errors name t and the worst row of y.
        """
        y = np.asarray(y, dtype=float)
        if self.grid.d == 1:
            x, its = self.step_tables([t])[0].eval(y)[0], 1
        else:
            x, its = self._invert_fixed_point(t, y)
        self._check_escape(t, y, x, on_escape)
        return x, its

    def _check_escape(self, t: float, y: np.ndarray, x: np.ndarray, on_escape: str):
        """Under on_escape="raise", InverseEscape if a row of x left the
        doubled box or is not finite (in_box, the engines' rule)."""
        if on_escape != "raise":
            return
        if out := int(np.count_nonzero(~in_box(x, 2.0 * self.grid.L))):
            i = int(np.argmax(np.abs(x).max(axis=-1)))     # a NaN row is the worst
            raise InverseEscape(
                f"{out} preimage(s) outside the doubled box at t={t:.6g}: "
                f"worst row {i} y={y[i]} maps back to x={x[i]}")

    def step_tables(self, ts) -> list:
        """The StepTable at each of the times ts (1-d maps only), built in
        one stacked pass whose temporaries grow with len(ts): the path
        engines pass one block of sde.TABLE_BLOCK step times at a time."""
        g = self.grid
        vals = self.phi.time_slice(ts)[..., 0]             # (S, n)
        # x, phi and G at the breakpoints in x: x_i - h/2 then x_i for each
        # node i, then L + h/2, with a unit step past each end, which makes
        # the rays cells of zero slope.  phi at x_i - h/2 is the mean of its
        # cell, clamped beyond +-L; G there is the cell slope, 0 beyond
        # +-L, and at x_i the mean of the two beside it
        n, S = g.n, len(ts)
        at = np.zeros((3, S, 2 * n + 3))
        at[0] = np.concatenate([[-g.L - 0.5 * g.h - 1.0],
                                np.stack([g.xs - 0.5 * g.h, g.xs], axis=1).ravel(),
                                [g.L + 0.5 * g.h, g.L + 0.5 * g.h + 1.0]])
        at[1, :, 2:-1:2] = vals
        at[1, :, 3:-2:2] = 0.5 * (vals[:, :-1] + vals[:, 1:])
        at[1, :, :2], at[1, :, -2:] = vals[:, :1], vals[:, -1:]
        at[2, :, 3:-2:2] = np.diff(vals, axis=1) / g.h
        at[2, :, 2:-1:2] = 0.5 * (at[2, :, 1:-2:2] + at[2, :, 3:-1:2])
        y = np.add(at[0], at[1], out=at[0])              # the breakpoints in y
        if not (up := np.diff(y[:, 1:-1], axis=1) > 0.0).all():
            t = ts[int(np.argmin(up.all(axis=1)))]
            raise ValueError(f"Phi_t is not strictly increasing at t={t:.6g}")
        # per cell, phi's and then G's offset and slope in y
        coef = np.empty((S, 2 * n + 2, 2, 2))
        off, sl = coef[..., 0].transpose(2, 0, 1), coef[..., 1].transpose(2, 0, 1)
        np.divide(np.diff(at[1:], axis=2), np.diff(y, axis=1), out=sl)
        np.subtract(at[1:, :, :-1], np.multiply(sl, y[:, :-1], out=off), out=off)
        return [StepTable(c, f) for c, f in
                zip(_cell_tables(y[:, 1:-1]), coef.reshape(S, 2 * n + 2, 4))]

    def _invert_fixed_point(self, t: float, pts: np.ndarray):
        x = pts.copy()
        live = np.arange(len(pts))          # rows still moving
        for its in range(1, INVERT_MAX_ITER + 1):
            xl = x[live]
            xn = pts[live] - self.phi.eval(t, xl)
            step = np.abs(xn - xl).max(axis=-1)
            x[live] = xn
            moving = step > INVERT_TOL      # a NaN update stops its row, non-finite
            if not moving.any():
                return x, its
            live, step = live[moving], step[moving]
        w = int(np.argmax(step))
        raise RuntimeError(
            f"map inversion stalled at t={t:.6g}: last update {step[w]:.3e} "
            f"after INVERT_MAX_ITER={INVERT_MAX_ITER} sweeps, "
            f"worst row {live[w]} y={pts[live[w]]}")

    def grad_phi_at(self, t: float, x: np.ndarray) -> np.ndarray:
        """Jacobian of the interpolated phi by central differences with
        step h/2 at the rows of x (N, d), (N, d, d)."""
        x = np.asarray(x, dtype=float)
        delta = 0.5 * self.grid.h
        cols = [(self.phi.eval(t, x + e) - self.phi.eval(t, x - e)) / (2.0 * delta)
                for e in delta * np.eye(self.grid.d)]
        return np.stack(cols, axis=-1)

    # -- transformed coefficients -------------------------------------------

    def transformed(self, t: float, y: np.ndarray, on_escape: str = "raise",
                    table: StepTable | None = None):
        """(Z, Sigma) = (b1 + lam phi, (I + grad phi) sigma) at the
        preimages x = Phi_t^{-1}(y) of y (N, d); on_escape is as in invert.
        In 1-d one cell search in the merged table of StepTable gives x, phi
        and G, the mean slope over [x - h/2, x + h/2] that grad_phi_at's
        central difference measures (0 on the clamped rays beyond +-L), and
        Sigma is the one product (1 + G) sigma that the 1x1 matrix product
        computes.  table is step_tables([t])[0], which the path engines
        build in blocks of step times; without it, it is built here."""
        g = self.grid
        y = np.asarray(y, dtype=float)
        if g.d == 1:
            tab = self.step_tables([t])[0] if table is None else table
            x1, phi, G = tab.eval(y[:, 0])                  # flat (N,)
            x = x1[:, None]
            self._check_escape(t, y, x, on_escape)
            Z = self.lam * phi[:, None]
        else:
            x, _ = self.invert(t, y, on_escape=on_escape)
            Z = self.lam * self.phi.eval(t, x)
            G = self.grad_phi_at(t, x)
        if self.coeffs.b1 is not None:
            Z = Z + np.asarray(self.coeffs.b1(t, x), dtype=float)
        s = np.asarray(self.coeffs.sigma(t, x), dtype=float)
        if g.d == 1:
            return Z, (1.0 + G)[:, None, None] * s
        return Z, np.einsum("...ij,...jk->...ik", np.eye(g.d) + G, s)


def build_zvonkin(coeffs: CoefficientSet, grid: GridSpec) -> ZvonkinMap:
    """Solve the phi system on a quadrupling lam ladder until the map is tame.

    Raises LambdaSearchError with the full (lam, sup_grad) trace if
    MAX_LAMBDA_STEPS quadruplings are not enough.
    """
    op = sample_operator(coeffs, grid)        # every rung marches on it
    trace = []
    lam = LAMBDA_START
    for _ in range(MAX_LAMBDA_STEPS):
        phi = solve_phi_system(op, lam)             # (m+1, n[, n], d)
        s = interp_lipschitz_sup(phi, grid)
        trace.append((lam, s))
        if s < GRAD_TARGET:
            return ZvonkinMap(grid=grid, coeffs=coeffs, lam=lam,
                              phi=GridFunction(grid, phi), grad_sup=s, trace=trace)
        lam *= LAMBDA_FACTOR
    raise LambdaSearchError(trace)


# ---------------------------------------------------------------------------
# certificates


def bilipschitz_certificate(zmap: ZvonkinMap, n_pairs: int = 256, seed: int = 21) -> dict:
    """Sampled two-sided bound (1-s)|x-y| <= |Phi x - Phi y| <= (1+s)|x-y|,
    each side counted on its own, after the map's lam and grad_sup < s.

    With s = GRAD_TARGET = 1/2 this is the [1/2, 3/2] sandwich.  Slack
    1e-6 |x-y| + 1e-9 absorbs interpolation roundoff.
    """
    g = zmap.grid
    box = g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 14, n_pairs, -box, box)
    ys = _rng.uniform_points(seed, 15, n_pairs, -box, box)
    ts = _rng.uniform_points(seed, 16, 8, 0.0, g.T)
    s = GRAD_TARGET
    worst_low = np.inf
    worst_high = 0.0
    low = high = 0
    for t in ts:
        t = float(t)
        fx = zmap.forward(t, xs)
        fy = zmap.forward(t, ys)
        base = np.sqrt(np.sum((xs - ys) ** 2, axis=-1))
        img = np.sqrt(np.sum((fx - fy) ** 2, axis=-1))
        slack = 1e-6 * base + 1e-9
        low += int(np.count_nonzero(img < (1 - s) * base - slack))
        high += int(np.count_nonzero(img > (1 + s) * base + slack))
        ratio = img / np.maximum(base, 1e-300)
        worst_low = min(worst_low, float(ratio.min()))
        worst_high = max(worst_high, float(ratio.max()))
    rows = [CheckRecord("zvonkin-lambda", zmap.lam, "info", provenance="fit"),
            CheckRecord("zvonkin-grad-sup", zmap.grad_sup, pass_fail(zmap.grad_sup < s), s),
            CheckRecord("bilip-violations", float(low + high),
                        pass_fail(low + high == 0), 0.0),
            CheckRecord("bilip-ratio-min", worst_low, pass_fail(low == 0), 1 - s),
            CheckRecord("bilip-ratio-max", worst_high, pass_fail(high == 0), 1 + s)]
    return {"violations": low + high, "ratio_min": worst_low,
            "ratio_max": worst_high, "lower_bound": 1 - s, "upper_bound": 1 + s,
            "pairs": n_pairs * len(ts), "rows": rows, "passed": all_pass(rows)}


def roundtrip_certificate(zmap: ZvonkinMap, n_points: int = 256, seed: int = 22) -> dict:
    """sup |Phi^{-1}(Phi(x)) - x| and |Phi(Phi^{-1}(y)) - y| on samples, the
    larger against ROUNDTRIP_TOL."""
    g = zmap.grid
    box = 0.9 * g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 17, n_points, -box, box)
    ys = _rng.uniform_points(seed, 18, n_points, -box, box)
    ts = _rng.uniform_points(seed, 19, 4, 0.0, g.T)
    worst = 0.0
    for t in ts:
        t = float(t)
        back, _ = zmap.invert(t, zmap.forward(t, xs))
        pre, _ = zmap.invert(t, ys)
        worst = max(worst, float(np.max(np.abs(back - xs))),
                    float(np.max(np.abs(zmap.forward(t, pre) - ys))))
    rows = [CheckRecord("roundtrip-defect", worst, pass_fail(worst <= ROUNDTRIP_TOL),
                        ROUNDTRIP_TOL)]
    return {"rows": rows, "passed": all_pass(rows)}


def ellipticity_certificate(zmap: ZvonkinMap, n_points: int = 256, seed: int = 23) -> dict:
    """Sampled sandwich kappa1/4 <= eig(Sigma Sigma^T / 2) <= 9 kappa2 / 4."""
    g = zmap.grid
    cs = zmap.coeffs
    if not (cs.kappa1 and cs.kappa2):
        raise ValueError("coefficient set carries no ellipticity certificate: "
                         f"kappa1={cs.kappa1}, kappa2={cs.kappa2}")
    box = 0.9 * g.L * np.ones(g.d)
    ys = _rng.uniform_points(seed, 24, n_points, -box, box)
    ts = _rng.uniform_points(seed, 25, 4, 0.0, g.T)
    emin = np.inf
    emax = 0.0
    for t in ts:
        t = float(t)
        _, S = zmap.transformed(t, ys)
        eig = np.linalg.eigvalsh(0.5 * np.einsum("...ij,...kj->...ik", S, S))
        emin = min(emin, float(eig.min()))
        emax = max(emax, float(eig.max()))
    lo, hi = 0.25 * cs.kappa1, 2.25 * cs.kappa2
    rows = [CheckRecord("ellipticity-min-eig", emin,
                        pass_fail(emin >= lo * (1 - ELLIPTICITY_RTOL)), lo),
            CheckRecord("ellipticity-max-eig", emax,
                        pass_fail(emax <= hi * (1 + ELLIPTICITY_RTOL)), hi)]
    return {"rows": rows, "passed": all_pass(rows)}


def identity_rows(zmap: ZvonkinMap) -> list:
    """A map with no singular part is the identity: Z = b1 bit for bit on
    [-L/2, L/2] at T/2, and grad_sup = 0."""
    g = zmap.grid
    pts = np.linspace(-g.L / 2, g.L / 2, 41)[:, None]
    Z, _ = zmap.transformed(0.5 * g.T, pts)
    same = bool(np.all(Z == zmap.coeffs.b1(0.5 * g.T, pts)))
    return [CheckRecord("identity-drift-nodes", float(same), pass_fail(same), 1.0,
                        provenance="identity"),
            CheckRecord("identity-grad-sup", zmap.grad_sup, pass_fail(zmap.grad_sup == 0.0),
                        0.0, provenance="identity")]


def transformed_constants(zmap: ZvonkinMap, n_pairs: int = 128, seed: int = 26) -> dict:
    """coupling.pair_constants of the transformed pair (Z, Sigma) at
    alpha = 1, on n_pairs point pairs in 0.8 of the box and 4 times in
    [0, T].  Its lip_Z, the plain Lipschitz quotient of Z, is finite
    although the raw singular drift's is not."""
    g = zmap.grid
    box = 0.8 * g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 27, n_pairs, -box, box)
    ys = _rng.uniform_points(seed, 28, n_pairs, -box, box)
    ts = _rng.uniform_points(seed, 29, 4, 0.0, g.T)
    pair = SdeModel(d=g.d, stepper=zmap.transformed)
    got = pair_constants(pair, xs, ys, ts, alpha=1.0)
    return {**got, "alpha": 1.0, "rows": [CheckRecord(
        "transformed-lip-Z", got["lip_Z"], pass_fail(np.isfinite(got["lip_Z"])))]}
