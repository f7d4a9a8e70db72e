"""Phase-space change of variables that removes the singular drift part.

phi solves the vector backward system (one component per coordinate)

    d_t phi + tr(a D^2 phi) + (b1 + b2 + b0) . grad phi = lam phi - b0,

so the map Phi_t(x) = x + phi(t, x) turns dX = (b1+b2+b0) dt + sigma dW
into dY = Z(t, Y) dt + Sigma(t, Y) dW with

    Z     = (b1 + b2 + lam phi) o Phi^{-1},
    Sigma = ((I + grad phi) sigma) o Phi^{-1}.

The singular part b0 is absorbed exactly.  lam is raised on a fixed
quadrupling ladder until the interpolated phi has Lipschitz constant
below grad_target, which makes Phi_t bi-Lipschitz with explicit bounds
and makes the inversion fixed point a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CoefficientSet, GridFunction, GridSpec
from .pde import PdeSolution, solve_phi_system
from . import rng as _rng

GRAD_TARGET = 0.5          # default Lipschitz target for phi
LAMBDA_START = 10.0
LAMBDA_FACTOR = 4.0
MAX_LAMBDA_STEPS = 12
INVERT_TOL = 1e-10
INVERT_MAX_ITER = 40


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
    mat = np.stack([qx, qy], axis=-1)                  # (m+1, n-1, n-1, d, d)
    s = np.linalg.svd(mat.reshape(-1, grid.d, grid.d), compute_uv=False)
    return float(s.max())


class LambdaSearchError(RuntimeError):
    """The quadrupling ladder exhausted its steps without meeting the target."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            "no admissible lam found; trace " +
            ", ".join(f"(lam={l:g}, sup_grad={s:.4f})" for l, s in trace))


class InverseEscape(RuntimeError):
    """A fixed-point iterate left the doubled box (query too near the wall)."""


@dataclass
class ZvonkinMap:
    grid: GridSpec
    coeffs: CoefficientSet
    lam: float
    phi: GridFunction                   # vector field, (m+1, n[, n], d)
    grad_sup: float
    grad_target: float
    trace: list
    solution: PdeSolution
    invert_tol: float = INVERT_TOL

    # -- point evaluation ---------------------------------------------------

    def phi_at(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.phi.eval(t, np.asarray(x, dtype=float))

    def forward(self, t: float, x: np.ndarray) -> np.ndarray:
        """Phi_t(x) = x + phi(t, x)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return x + self.phi.eval(t, x[None, :])[0]
        return x + self.phi.eval(t, x)

    def invert(self, t: float, y: np.ndarray, x0: np.ndarray | None = None,
               tol: float | None = None, max_iter: int = INVERT_MAX_ITER,
               on_escape: str = "raise"):
        """Solve x + phi(t, x) = y by the contraction x <- y - phi(t, x).

        Convergence rate is grad_sup < 1, geometric; raises if the
        successive-difference tolerance is not met in max_iter sweeps.
        Returns (x, iterations).  x0 warm-starts (e.g. previous time step).

        Iterates outside the doubled box mean y sits too close to the wall
        for the interpolated map: on_escape="raise" raises InverseEscape,
        "flag" keeps the clamped-field fixed point (bulk sampling mode) and
        leaves the caller to count the rows of x outside the box.  Both
        errors name t and the worst row of y.
        """
        tol = self.invert_tol if tol is None else tol
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        pts = y[None, :] if single else y
        x = pts.copy() if x0 is None else np.array(x0, dtype=float, copy=True)
        if x.shape != pts.shape:
            x = np.broadcast_to(x, pts.shape).copy()
        its = 0
        for its in range(1, max_iter + 1):
            xn = pts - self.phi.eval(t, x)
            step = np.abs(xn - x)
            delta = float(np.max(step))
            x = xn
            if delta <= tol:
                break
        else:
            i = int(np.argmax(step.max(axis=-1)))
            raise RuntimeError(
                f"map inversion stalled at t={t:.6g}: last update {delta:.3e} "
                f"after max_iter={max_iter} sweeps, worst row {i} y={pts[i]}")
        if on_escape == "raise":
            size = np.abs(x).max(axis=-1)
            out = int(np.count_nonzero(size > 2.0 * self.grid.L))
            if out:
                i = int(np.argmax(size))
                raise InverseEscape(
                    f"{out} preimage(s) outside the doubled box at t={t:.6g}: "
                    f"worst row {i} y={pts[i]} maps back to x={x[i]}")
        return (x[0], its) if single else (x, its)

    def grad_phi_at(self, t: float, x: np.ndarray, step: float | None = None) -> np.ndarray:
        """Jacobian of the interpolated phi by central differences, (..., d, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        delta = 0.5 * self.grid.h if step is None else step
        d = self.grid.d
        cols = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = delta
            cols.append((self.phi.eval(t, pts + e) - self.phi.eval(t, pts - e))
                        / (2.0 * delta))
        out = np.stack(cols, axis=-1)
        return out[0] if single else out

    # -- transformed coefficients -------------------------------------------

    def transformed(self, t: float, y: np.ndarray, x0: np.ndarray | None = None,
                    on_escape: str = "raise"):
        """(Z, Sigma, x) at the points y (N, d), with x = Phi_t^{-1}(y):

            Z     = (b1 + b2 + lam phi)(t, x),
            Sigma = ((I + grad phi) sigma)(t, x).

        One inversion serves both; x0 and on_escape go to invert, and x can
        warm-start the next call.
        """
        x, _ = self.invert(t, y, x0=x0, on_escape=on_escape)
        cs = self.coeffs
        Z = self.lam * self.phi.eval(t, x)
        for ev in (cs.b1, cs.b2):
            if ev is not None:
                Z = Z + np.asarray(ev(t, x), dtype=float)
        G = self.grad_phi_at(t, x)
        Sigma = np.einsum("...ij,...jk->...ik", np.eye(self.grid.d) + G,
                          np.asarray(cs.sigma(t, x), dtype=float))
        return Z, Sigma, x


def build_zvonkin(coeffs: CoefficientSet, grid: GridSpec,
                  grad_target: float = GRAD_TARGET,
                  lam_start: float = LAMBDA_START,
                  max_steps: int = MAX_LAMBDA_STEPS) -> ZvonkinMap:
    """Solve the phi system on a quadrupling lam ladder until the map is tame.

    Raises LambdaSearchError with the full (lam, sup_grad) trace if
    max_steps quadruplings are not enough.
    """
    trace = []
    lam = lam_start
    for _ in range(max_steps):
        sol = solve_phi_system(coeffs, grid, lam)
        s = interp_lipschitz_sup(sol.u, grid)
        trace.append((lam, s))
        if s < grad_target:
            shape = (grid.m + 1,) + (grid.n,) * grid.d + (grid.d,)
            phi = GridFunction(grid, sol.u.reshape(shape), "vector")
            return ZvonkinMap(grid=grid, coeffs=coeffs, lam=lam, phi=phi,
                              grad_sup=s, grad_target=grad_target, trace=trace,
                              solution=sol)
        lam *= LAMBDA_FACTOR
    raise LambdaSearchError(trace)


# ---------------------------------------------------------------------------
# certificates


def bilipschitz_certificate(zmap: ZvonkinMap, n_pairs: int = 256, seed: int = 21) -> dict:
    """Sampled two-sided bound (1-s)|x-y| <= |Phi x - Phi y| <= (1+s)|x-y|.

    With s = grad_target = 1/2 this is the [1/2, 3/2] sandwich.  Slack
    1e-6 |x-y| + 1e-9 absorbs interpolation roundoff.
    """
    g = zmap.grid
    lo = -g.L * np.ones(g.d)
    hi = g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 14, n_pairs, lo, hi)
    ys = _rng.uniform_points(seed, 15, n_pairs, lo, hi)
    ts = _rng.uniform_points(seed, 16, 8, 0.0, g.T)
    s = zmap.grad_target
    worst_low = np.inf
    worst_high = 0.0
    violations = 0
    for t in ts:
        t = float(t)
        fx = xs + zmap.phi.eval(t, xs)
        fy = ys + zmap.phi.eval(t, ys)
        base = np.sqrt(np.sum((xs - ys) ** 2, axis=-1))
        img = np.sqrt(np.sum((fx - fy) ** 2, axis=-1))
        slack = 1e-6 * base + 1e-9
        violations += int(np.count_nonzero(img < (1 - s) * base - slack))
        violations += int(np.count_nonzero(img > (1 + s) * base + slack))
        ratio = img / np.maximum(base, 1e-300)
        worst_low = min(worst_low, float(ratio.min()))
        worst_high = max(worst_high, float(ratio.max()))
    return {"violations": violations, "ratio_min": worst_low,
            "ratio_max": worst_high, "pairs": n_pairs * len(ts),
            "passed": violations == 0}


def roundtrip_certificate(zmap: ZvonkinMap, n_points: int = 256, seed: int = 22) -> dict:
    """sup |Phi^{-1}(Phi(x)) - x| and |Phi(Phi^{-1}(y)) - y| on samples."""
    g = zmap.grid
    lo = -0.9 * g.L * np.ones(g.d)
    hi = 0.9 * g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 17, n_points, lo, hi)
    ys = _rng.uniform_points(seed, 18, n_points, lo, hi)
    ts = _rng.uniform_points(seed, 19, 4, 0.0, g.T)
    worst_fwd = 0.0
    worst_bwd = 0.0
    for t in ts:
        t = float(t)
        img = xs + zmap.phi.eval(t, xs)
        back, _ = zmap.invert(t, img)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(back - xs))))
        pre, _ = zmap.invert(t, ys)
        img2 = pre + zmap.phi.eval(t, pre)
        worst_bwd = max(worst_bwd, float(np.max(np.abs(img2 - ys))))
    tol = 10 * zmap.invert_tol
    return {"roundtrip_x": worst_fwd, "roundtrip_y": worst_bwd,
            "tol": tol, "passed": worst_fwd <= tol and worst_bwd <= tol}


def ellipticity_certificate(zmap: ZvonkinMap, n_points: int = 256, seed: int = 23) -> dict:
    """Sampled sandwich kappa1/4 <= eig(Sigma Sigma^T / 2) <= 9 kappa2 / 4."""
    g = zmap.grid
    cs = zmap.coeffs
    if not (cs.kappa1 and cs.kappa2):
        raise ValueError("coefficient set carries no ellipticity certificate")
    lo = -0.9 * g.L * np.ones(g.d)
    hi = 0.9 * g.L * np.ones(g.d)
    ys = _rng.uniform_points(seed, 24, n_points, lo, hi)
    ts = _rng.uniform_points(seed, 25, 4, 0.0, g.T)
    emin = np.inf
    emax = 0.0
    for t in ts:
        t = float(t)
        _, S, _ = zmap.transformed(t, ys)
        abar = 0.5 * np.einsum("...ij,...kj->...ik", S, S)
        eig = np.linalg.eigvalsh(abar)
        emin = min(emin, float(eig.min()))
        emax = max(emax, float(eig.max()))
    lo_bound = 0.25 * cs.kappa1
    hi_bound = 2.25 * cs.kappa2
    return {"min_eig": emin, "max_eig": emax, "lower_bound": lo_bound,
            "upper_bound": hi_bound,
            "passed": emin >= lo_bound * (1 - 1e-9) and emax <= hi_bound * (1 + 1e-9)}


def transformed_constants(zmap: ZvonkinMap, n_pairs: int = 128, seed: int = 26,
                          alpha: float = 1.0) -> dict:
    """Sampled surrogate constants of the transformed pair (Z, Sigma).

    K_T bounds 2<Z(x)-Z(y), x-y> + ||Sigma(x)-Sigma(y)||_HS^2 against
    |x-y|^2 v |x-y|^{2 alpha}; delta_T the distance-aligned diffusion
    difference |(Sigma(x)-Sigma(y))^T (x-y)| / |x-y|; lam_T the smallest
    eigenvalue of Sigma Sigma^T.  Also reports the plain Lipschitz
    quotient of Z (finite although the raw singular drift is not)."""
    g = zmap.grid
    lo = -0.8 * g.L * np.ones(g.d)
    hi = 0.8 * g.L * np.ones(g.d)
    xs = _rng.uniform_points(seed, 27, n_pairs, lo, hi)
    ys = _rng.uniform_points(seed, 28, n_pairs, lo, hi)
    ts = _rng.uniform_points(seed, 29, 4, 0.0, g.T)
    K = -np.inf
    delta = 0.0
    lam_T = np.inf
    lip_Z = 0.0
    for t in ts:
        t = float(t)
        zx, sx, _ = zmap.transformed(t, xs)
        zy, sy, _ = zmap.transformed(t, ys)
        diff = xs - ys
        d2 = np.sum(diff ** 2, axis=-1)
        dist = np.sqrt(d2)
        denom = np.maximum(np.maximum(d2, dist ** (2 * alpha)), 1e-300)
        hs2 = np.sum((sx - sy) ** 2, axis=(-2, -1))
        K = max(K, float(((2 * np.sum((zx - zy) * diff, axis=-1) + hs2)
                          / denom).max()))
        aligned = np.sqrt(np.sum(
            (np.einsum("...ji,...j->...i", sx - sy, diff)) ** 2, axis=-1))
        delta = max(delta, float((aligned / np.maximum(dist, 1e-300)).max()))
        lip_Z = max(lip_Z, float((np.sqrt(np.sum((zx - zy) ** 2, axis=-1))
                                  / np.maximum(dist, 1e-300)).max()))
        eig = np.linalg.eigvalsh(np.einsum("...ij,...kj->...ik", sx, sx))
        lam_T = min(lam_T, float(eig.min()))
    return {"K_T": K, "delta_T": delta, "lam_T": lam_T, "lip_Z": lip_Z,
            "alpha": alpha}
