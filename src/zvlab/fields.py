"""Grids, space-time fields, and the mixed-integrability norms.

The workbench works on uniform tensor grids over [-L, L]^d x [0, T],
d in {1, 2}.  Mixed norms are

    ||g||_{p,q} = ( int_0^T ( int |g(t,x)|^p dx )^{q/p} dt )^{1/q}

with trapezoid quadrature in both space and time.  The integrability
budget beta = d/p + 2/q classifies what a pair (p, q) can support:
beta < 2 admits occupation-functional estimates, beta < 1 admits
singular drifts, beta < 1/2 additionally admits the power-form Harnack
route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Evaluator = Callable[[float, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: n nodes per axis on [-L, L], m time steps on [0, T].

    n must be odd so that the origin is a node; singular drifts in the
    shipped scenarios put their worst point there and the capping rule
    needs to see it.
    """

    d: int
    n: int
    m: int
    L: float
    T: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def dt(self) -> float:
        return self.T / self.m

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.m + 1)

    def nodes(self) -> np.ndarray:
        """All spatial nodes, shape (n^d, d), x-major order."""
        xs = self.xs
        if self.d == 1:
            return xs[:, None]
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def space_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, shape (n,) or (n, n)."""
        w = trapezoid_weights(self.n, self.h)
        return w if self.d == 1 else np.outer(w, w)

    def time_weights(self) -> np.ndarray:
        """Trapezoid weights over the m + 1 time slices."""
        return trapezoid_weights(self.m + 1, self.dt)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n equispaced nodes h apart: h, halved at both ends."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# ---------------------------------------------------------------------------
# norm spec and admissibility budget


@dataclass(frozen=True)
class NormSpec:
    """Integrability pair (p, q), with the ambient dimension."""

    p: float
    q: float
    d: int = 1

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not (1.0 < self.q < math.inf):
            raise ValueError(f"q must lie in (1, inf), got {self.q}")
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")

    @property
    def beta(self) -> float:
        return self.d / self.p + 2.0 / self.q

    @property
    def decay_exponent(self) -> float:
        """(2 - beta) / 2, the predicted decay rate in lam of the sup norm of
        the solution driven by a source of this integrability."""
        return 0.5 * (2.0 - 2.0 / self.q - self.d / self.p)

    def classify(self) -> dict:
        b = self.beta
        return {
            "beta": b,
            "krylov_admissible": b < 2.0,
            "singular_admissible": b < 1.0,
            "harnack_power_admissible": b < 0.5,
        }


# ---------------------------------------------------------------------------
# grid functions


@dataclass
class GridFunction:
    """Field sampled on the space-time grid.

    values shape: (m+1, n[, n], *components).  Evaluation off the grid is
    multilinear in space and linear in time; queries outside the box are
    clamped to the boundary.  eval keeps no count of them, so pool tasks
    can share one instance; interp_space returns the count to callers
    that need it.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        lead = (self.grid.m + 1,) + (self.grid.n,) * self.grid.d
        if self.values.shape[:len(lead)] != lead:
            raise ValueError(f"values shape {self.values.shape}, expected {lead} "
                             "then the component axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite values")

    def time_slice(self, t) -> np.ndarray:
        """Linear-in-time interpolation of the stored slices at one time t,
        or at each of an array of times, stacked on the leading axes."""
        g = self.grid
        s = np.asarray(t, dtype=float) / g.dt
        k = np.clip(np.floor(s), 0, g.m - 1).astype(np.intp)
        w = np.clip(s - k, 0.0, 1.0)
        w = w.reshape(w.shape + (1,) * (self.values.ndim - 1))
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        return interp_space(self.grid, self.time_slice(t), x)[0]


def interp_space(grid: GridSpec, slice_vals: np.ndarray, x: np.ndarray):
    """Multilinear interpolation of one time slice at points x (..., d).

    Returns (values, clamp_count).  Component axes of slice_vals ride
    along unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != grid.d:
        raise ValueError(f"points have dimension {x.shape[-1]}, grid is {grid.d}-d")
    u = (x + grid.L) / grid.h
    clamped = int(np.count_nonzero((u < 0.0) | (u > grid.n - 1.0)))
    u = np.clip(u, 0.0, grid.n - 1.0)
    i0 = np.fmin(u, grid.n - 2.0).astype(np.int64)   # NaN: the top cell, weight NaN
    f = u - i0
    if grid.d == 1:
        a = slice_vals[i0[..., 0]]
        b = slice_vals[i0[..., 0] + 1]
        w = f[..., 0].reshape(f.shape[:-1] + (1,) * (slice_vals.ndim - 1))
        return a * (1.0 - w) + b * w, clamped
    ix, iy = i0[..., 0], i0[..., 1]
    fx = f[..., 0].reshape(f.shape[:-1] + (1,) * (slice_vals.ndim - 2))
    fy = f[..., 1].reshape(fx.shape)
    v00 = slice_vals[ix, iy]
    v10 = slice_vals[ix + 1, iy]
    v01 = slice_vals[ix, iy + 1]
    v11 = slice_vals[ix + 1, iy + 1]
    out = (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
           + v01 * (1 - fx) * fy + v11 * fx * fy)
    return out, clamped


# ---------------------------------------------------------------------------
# sampling evaluators onto grids, with the singular-node cap


def sample_field(ev: Evaluator, grid: GridSpec, cap_singular: bool = False):
    """Sample an evaluator on every (t_k, node).

    The component shape is what the evaluator returns past the node axis.
    With cap_singular=True, nodes where the evaluator returns a
    non-finite value (a point singularity sitting on a node) are
    replaced by the componentwise mean of their finite axis neighbours
    one mesh-width away, magnitude-capped at the largest neighbour
    magnitude; one more evaluator call per slice gives the neighbours of
    all of them.  As |mean| <= max |v|, the cap acts only at roundoff.
    Returns (values (m+1, n[, n], *components), capped_node_count).
    """
    nodes = grid.nodes()
    spatial = (grid.n,) * grid.d
    steps = np.stack([s * e for e in grid.h * np.eye(grid.d) for s in (-1.0, 1.0)])
    slices = []
    capped = 0
    for t in grid.ts:
        vals = np.asarray(ev(float(t), nodes), dtype=float)
        comp = vals.shape[1:]
        bad = np.nonzero(~np.isfinite(vals).reshape(len(nodes), -1).all(axis=1))[0]
        if bad.size and not cap_singular:
            raise ValueError("non-finite field values (pass cap_singular=True for "
                             "fields with a node singularity)")
        if bad.size:
            pts = (nodes[bad, None] + steps).reshape(-1, grid.d)
            nb = np.asarray(ev(float(t), pts), dtype=float).reshape(len(bad), len(steps), -1)
            ok = np.isfinite(nb).all(axis=2)
            if not ok.any(axis=1).all():
                raise ValueError("singular node with no finite neighbours")
            nb = np.where(ok[..., None], nb, 0.0)         # a skipped neighbour adds 0
            cap = np.sqrt(np.sum(nb ** 2, axis=2)).max(axis=1)
            repl = nb.sum(axis=1) / ok.sum(axis=1)[:, None]
            mag = np.sqrt(np.sum(repl ** 2, axis=1))
            big = (mag > cap) & (cap > 0.0)
            repl[big] *= (cap[big] / mag[big])[:, None]
            vals[bad] = repl.reshape(bad.shape + comp)
            capped += bad.size
        slices.append(vals.reshape(spatial + comp))
    return np.stack(slices), capped


# ---------------------------------------------------------------------------
# norms


def lp_lq_norm(values: np.ndarray, grid: GridSpec, ns: NormSpec) -> float:
    """Mixed norm over [0, T] of values (m+1, n[, n], ...) on grid, of the
    pointwise Euclidean magnitude over the axes after the spatial ones."""
    if ns.d != grid.d:
        raise ValueError("NormSpec dimension does not match the grid")
    mag = np.sqrt(np.sum(values.reshape(values.shape[:1 + grid.d] + (-1,)) ** 2, axis=-1))
    space = np.sum((mag ** ns.p) * grid.space_weights(), axis=tuple(range(1, 1 + grid.d)))
    return float(np.sum(space ** (ns.q / ns.p) * grid.time_weights()) ** (1.0 / ns.q))


# ---------------------------------------------------------------------------
# coefficient bundles


@dataclass
class CoefficientSet:
    """Evaluators for one problem: diffusion a = sigma sigma^T / 2, drift
    parts b1 (Lipschitz) and b0 (singular, integrable), and source f, with
    the ellipticity constants kappa1 and kappa2 that
    ellipticity_certificate and the coupled stages read.
    """

    sigma: Evaluator
    b1: Evaluator | None = None
    b0: Evaluator | None = None
    f: Evaluator | None = None
    kappa1: float = 0.0
    kappa2: float = 0.0

    def a(self, t: float, x: np.ndarray) -> np.ndarray:
        s = np.asarray(self.sigma(t, x), dtype=float)
        return 0.5 * np.einsum("...ij,...kj->...ik", s, s)

    def total_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for ev in (self.b1, self.b0):
            if ev is not None:
                out = out + np.asarray(ev(t, x), dtype=float)
        return out


def constant_sigma(value: np.ndarray) -> Evaluator:
    """sigma = value at every point, as a read-only broadcast view: no copy
    per call, and a caller that wrote into it would raise.  The view is
    built once per row count (np.broadcast_to is slow beside a step)."""
    value = np.atleast_2d(np.asarray(value, dtype=float))
    view = functools.lru_cache(maxsize=8)(
        lambda rows: np.broadcast_to(value, rows + value.shape))

    def ev(t, x):
        return view(np.shape(x)[:-1])

    return ev
