"""Grids, space-time fields, and the mixed-integrability norms.

The workbench works on uniform tensor grids over [-L, L]^d x [0, T],
d in {1, 2}.  Mixed norms are

    ||g||_{p,q;t0,t1} = ( int_t0^t1 ( int |g(t,x)|^p dx )^{q/p} dt )^{1/q}

with trapezoid quadrature in both space and time.  The integrability
budget beta = d/p + 2/q classifies what a pair (p, q) can support:
beta < 2 admits occupation-functional estimates, beta < 1 admits
singular drifts, beta < 1/2 additionally admits the power-form Harnack
route.
"""

from __future__ import annotations

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
            raise ValueError("d must be 1 or 2")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("n must be odd and >= 3")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("T must be positive and finite")

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
        w = np.full(self.n, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        if self.d == 1:
            return w
        return np.outer(w, w)

    def time_weights(self, k0: int = 0, k1: int | None = None) -> np.ndarray:
        """Trapezoid weights over time slices k0..k1 inclusive."""
        if k1 is None:
            k1 = self.m
        if k1 <= k0:
            raise ValueError("empty time window")
        w = np.full(k1 - k0 + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


# ---------------------------------------------------------------------------
# norm spec and admissibility budget


@dataclass(frozen=True)
class NormSpec:
    """Integrability pair (p, q), with the ambient dimension.

    p1 is an optional second spatial exponent (>= p) used when a drift
    norm enters an exponential constant; weighted=True requests the
    (1+|x|^2)^{-p/2} spatial weight.
    """

    p: float
    q: float
    d: int = 1
    p1: float | None = None
    weighted: bool = False

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must lie in (1, inf)")
        if not (1.0 < self.q < math.inf):
            raise ValueError("q must lie in (1, inf)")
        if self.p1 is not None and not (self.p <= self.p1):
            raise ValueError("p1 must satisfy p1 >= p")
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")

    @property
    def beta(self) -> float:
        return self.d / self.p + 2.0 / self.q

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


_COMP_DIMS = {"scalar": 0, "vector": 1, "matrix": 2}


def _expected_shape(grid: GridSpec, kind: str) -> tuple:
    spatial = (grid.n,) * grid.d
    comp = (grid.d,) * _COMP_DIMS[kind]
    return (grid.m + 1,) + spatial + comp


@dataclass
class GridFunction:
    """Field sampled on the space-time grid.

    values shape: (m+1, n[, n][, d][, d]) for scalar/vector/matrix kinds.
    Evaluation off the grid is multilinear in space and linear in time;
    queries outside the box are clamped to the boundary.  eval keeps no
    count of them, so worker threads can share one instance; interp_space
    returns the count to callers that need it.
    """

    grid: GridSpec
    values: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        if self.kind not in _COMP_DIMS:
            raise ValueError(f"unknown kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=float)
        exp = _expected_shape(self.grid, self.kind)
        if self.values.shape != exp:
            raise ValueError(f"values shape {self.values.shape}, expected {exp}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite values")

    def magnitude(self) -> np.ndarray:
        """Pointwise |g|: abs, Euclidean, or Frobenius by kind."""
        if self.kind == "scalar":
            return np.abs(self.values)
        if self.kind == "vector":
            return np.sqrt(np.sum(self.values ** 2, axis=-1))
        return np.sqrt(np.sum(self.values ** 2, axis=(-2, -1)))

    def sup(self) -> float:
        return float(self.magnitude().max())

    def time_slice(self, t: float) -> np.ndarray:
        """Linear-in-time interpolation of the stored slices."""
        g = self.grid
        s = t / g.dt
        k = int(np.clip(np.floor(s), 0, g.m - 1)) if g.m > 0 else 0
        w = s - k
        w = min(max(w, 0.0), 1.0)
        if w == 0.0:
            return self.values[k]
        if w == 1.0:
            return self.values[k + 1]
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        sl = self.time_slice(t)
        out, _ = interp_space(self.grid, sl, x)
        return out

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values, self.kind)


def interp_space(grid: GridSpec, slice_vals: np.ndarray, x: np.ndarray):
    """Multilinear interpolation of one time slice at points x (..., d).

    Returns (values, clamp_count).  Component axes of slice_vals ride
    along unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and grid.d == 1 and x.shape[-1] != 1:
        x = x[:, None]
    if x.shape[-1] != grid.d:
        raise ValueError(f"points have dimension {x.shape[-1]}, grid is {grid.d}-d")
    u = (x + grid.L) / grid.h
    clamped = int(np.count_nonzero((u < 0.0) | (u > grid.n - 1.0)))
    u = np.clip(u, 0.0, grid.n - 1.0)
    i0 = np.minimum(u.astype(np.int64), grid.n - 2)
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


def sample_field(ev: Evaluator, grid: GridSpec, kind: str = "scalar",
                 cap_singular: bool = False):
    """Sample an evaluator on every (t_k, node).

    With cap_singular=True, nodes where the evaluator returns a
    non-finite value (a point singularity sitting on a node) are
    replaced by the componentwise mean of their finite axis neighbours
    one mesh-width away, magnitude-capped at the largest neighbour
    magnitude.  Returns (GridFunction, capped_node_count).
    """
    nodes = grid.nodes()
    spatial = (grid.n,) * grid.d
    comp = (grid.d,) * _COMP_DIMS[kind]
    out = np.empty((grid.m + 1,) + spatial + comp)
    capped = 0
    offsets = grid.h * np.eye(grid.d)
    for k, t in enumerate(grid.ts):
        vals = np.asarray(ev(float(t), nodes), dtype=float)
        vals = vals.reshape((nodes.shape[0],) + comp)
        bad = ~np.isfinite(vals).reshape(nodes.shape[0], -1).all(axis=1)
        if cap_singular and bad.any():
            idx = np.nonzero(bad)[0]
            for i in idx:
                nb = []
                for j in range(grid.d):
                    for s in (-1.0, 1.0):
                        p = nodes[i] + s * offsets[j]
                        v = np.asarray(ev(float(t), p[None, :]), dtype=float).reshape(comp)
                        if np.all(np.isfinite(v)):
                            nb.append(v)
                if not nb:
                    raise ValueError("singular node with no finite neighbours")
                nb = np.stack(nb)
                cap = float(np.max(np.sqrt(np.sum(nb.reshape(len(nb), -1) ** 2, axis=1))))
                repl = nb.mean(axis=0)
                mag = float(np.sqrt(np.sum(repl ** 2)))
                if mag > cap > 0.0:
                    repl = repl * (cap / mag)
                vals[i] = repl
            capped += len(idx)
        elif bad.any():
            raise ValueError("non-finite field values (pass cap_singular=True for "
                             "fields with a node singularity)")
        out[k] = vals.reshape(spatial + comp)
    return GridFunction(grid, out, kind), capped


# ---------------------------------------------------------------------------
# norms


def _window_indices(grid: GridSpec, t0: float | None, t1: float | None):
    a = 0 if t0 is None else int(round(t0 / grid.dt))
    b = grid.m if t1 is None else int(round(t1 / grid.dt))
    a = max(0, min(a, grid.m))
    b = max(0, min(b, grid.m))
    if b <= a:
        raise ValueError("time window collapses on this grid")
    return a, b


def lp_lq_norm(g: GridFunction, ns: NormSpec, t0: float | None = None,
               t1: float | None = None) -> float:
    """Mixed norm over the window [t0, t1] (grid-snapped; full span by default)."""
    if ns.d != g.grid.d:
        raise ValueError("NormSpec dimension does not match the grid")
    k0, k1 = _window_indices(g.grid, t0, t1)
    mag = g.magnitude()[k0:k1 + 1]
    sw = g.grid.space_weights()
    axes = tuple(range(1, 1 + g.grid.d))
    space_p = np.sum((mag ** ns.p) * sw, axis=axes)
    tw = g.grid.time_weights(k0, k1)
    inner = space_p ** (ns.q / ns.p)
    return float(np.sum(inner * tw) ** (1.0 / ns.q))


def sup_norm(g: GridFunction, t0: float | None = None, t1: float | None = None) -> float:
    k0, k1 = _window_indices(g.grid, t0, t1)
    return float(g.magnitude()[k0:k1 + 1].max())


def weighted_lp_norm(g: GridFunction, ns: NormSpec, t: float) -> float:
    """Single-slice spatial norm with weight (1+|x|^2)^{-p/2}."""
    sl = g.time_slice(t)
    if g.kind == "scalar":
        mag = np.abs(sl)
    elif g.kind == "vector":
        mag = np.sqrt(np.sum(sl ** 2, axis=-1))
    else:
        mag = np.sqrt(np.sum(sl ** 2, axis=(-2, -1)))
    xs = g.grid.xs
    if g.grid.d == 1:
        w2 = 1.0 + xs ** 2
    else:
        w2 = 1.0 + xs[:, None] ** 2 + xs[None, :] ** 2
    integ = (mag ** ns.p) * w2 ** (-ns.p / 2.0) * g.grid.space_weights()
    return float(np.sum(integ) ** (1.0 / ns.p))


_HOLDER_WINDOW = 8       # near pairs within 2h * window
_HOLDER_FAR_PAIRS = 10_000


def holder_seminorm(g: GridFunction, t: float, alpha: float) -> float:
    """sup |g(x)-g(y)| / |x-y|^alpha over near pairs plus a fixed far sample.

    Near pairs are all node pairs within 2h*window per axis offset; far
    pairs are a deterministic pseudo-random sample, so the value is
    reproducible for a given grid.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    grid = g.grid
    sl = g.time_slice(t)
    comp_nd = _COMP_DIMS[g.kind]

    def mag_diff(a, b):
        d = a - b
        if comp_nd == 0:
            return np.abs(d)
        return np.sqrt(np.sum(d.reshape(d.shape[:grid.d] + (-1,)) ** 2, axis=-1))

    best = 0.0
    R = 2 * _HOLDER_WINDOW
    if grid.d == 1:
        for k in range(1, R + 1):
            if k >= grid.n:
                break
            q = mag_diff(sl[k:], sl[:-k]) / (k * grid.h) ** alpha
            best = max(best, float(q.max()))
    else:
        for ox in range(0, R + 1):
            for oy in range(-R if ox > 0 else 1, R + 1):
                dist = math.hypot(ox * grid.h, oy * grid.h)
                if dist == 0.0 or dist > R * grid.h:
                    continue
                sx = slice(ox, None) if ox >= 0 else slice(None, ox)
                sx0 = slice(None, -ox) if ox > 0 else slice(None)
                sy = slice(oy, None) if oy >= 0 else slice(None, oy)
                sy0 = slice(None, -oy) if oy > 0 else (slice(-oy, None) if oy < 0 else slice(None))
                a = sl[sx, sy]
                b = sl[sx0, sy0]
                q = mag_diff(a, b) / dist ** alpha
                best = max(best, float(q.max()))
    # far pairs: deterministic sample keyed by the grid shape
    from . import rng as _rng
    n_total = grid.n ** grid.d
    seed = 1009 * grid.n + 13 * grid.m + grid.d
    ii = np.floor(_rng.uniform_points(seed, 1, _HOLDER_FAR_PAIRS, 0, n_total)).astype(np.int64)
    jj = np.floor(_rng.uniform_points(seed, 2, _HOLDER_FAR_PAIRS, 0, n_total)).astype(np.int64)
    ii = np.minimum(ii, n_total - 1)
    jj = np.minimum(jj, n_total - 1)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    nodes = grid.nodes()
    flat = sl.reshape((n_total,) + sl.shape[grid.d:])
    dvals = flat[ii] - flat[jj]
    if comp_nd == 0:
        dmag = np.abs(dvals)
    else:
        dmag = np.sqrt(np.sum(dvals.reshape(len(ii), -1) ** 2, axis=-1))
    dist = np.sqrt(np.sum((nodes[ii] - nodes[jj]) ** 2, axis=-1))
    best = max(best, float((dmag / dist ** alpha).max(initial=0.0)))
    return best


# ---------------------------------------------------------------------------
# mollification and the Lipschitz drift split


def bump_weights(radius: float, h: float) -> np.ndarray:
    """Discrete bump kernel exp(-1/(1-(kh/r)^2)) on |kh| < r, unit mass."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    K = int(math.floor(radius / h))
    ks = np.arange(-K, K + 1)
    u = ks * h / radius
    w = np.zeros(len(ks))
    inside = np.abs(u) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    s = w.sum()
    if s <= 0:
        # radius below one mesh width: identity kernel
        w = np.zeros(1)
        w[0] = 1.0
        return w
    return w / s


def mollify(g: GridFunction, radius: float) -> GridFunction:
    """Convolve each time slice with the bump kernel.

    Near the boundary the kernel is renormalised over the part of its
    support inside the box, so constants are preserved exactly and the
    sup norm never grows.
    """
    grid = g.grid
    w = bump_weights(radius, grid.h)
    if len(w) == 1:
        return GridFunction(grid, g.values.copy(), g.kind)
    comp_nd = _COMP_DIMS[g.kind]
    vals = g.values
    flatcomp = vals.reshape(vals.shape[:1 + grid.d] + (-1,)) if comp_nd else vals[..., None]
    out = np.empty_like(flatcomp)
    ones = np.ones(grid.n)
    if grid.d == 1:
        denom = np.convolve(ones, w, mode="same")
        for k in range(grid.m + 1):
            for c in range(flatcomp.shape[-1]):
                out[k, :, c] = np.convolve(flatcomp[k, :, c], w, mode="same") / denom
    else:
        from scipy.ndimage import convolve1d
        denom1 = np.convolve(ones, w, mode="same")
        denom = np.outer(denom1, denom1)
        for k in range(grid.m + 1):
            for c in range(flatcomp.shape[-1]):
                tmp = convolve1d(flatcomp[k, :, :, c], w, axis=0, mode="constant")
                tmp = convolve1d(tmp, w, axis=1, mode="constant")
                out[k, :, :, c] = tmp / denom
    res = out.reshape(vals.shape) if comp_nd else out[..., 0]
    return GridFunction(grid, res, g.kind)


def decompose_lipschitz_drift(b1: Evaluator, radius: float, grid: GridSpec,
                              lip: float | None = None):
    """Split a Lipschitz drift into a smooth part and a small remainder.

    The smooth part is the bump mollification of the evaluator (done in
    evaluator space, so no boundary effects); the remainder is the
    pointwise difference.  |remainder| <= lip * radius wherever the
    Lipschitz constant lip holds, and the smooth part keeps the same
    Lipschitz bound.  Returns (smooth_ev, remainder_ev, report).
    """
    step = min(grid.h, radius / 4.0)
    K = max(1, int(math.floor(radius / step)))
    ks = np.arange(-K, K + 1)
    u = ks * step / radius
    w = np.zeros(len(ks))
    inside = np.abs(u) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    w = w / w.sum()
    if grid.d == 1:
        offs = (ks * step)[:, None]
        wts = w
    else:
        ox, oy = np.meshgrid(ks * step, ks * step, indexing="ij")
        offs = np.stack([ox.ravel(), oy.ravel()], axis=-1)
        wts = np.outer(w, w).ravel()

    def smooth(t, x):
        x = np.asarray(x, dtype=float)
        acc = None
        for off, ww in zip(offs, wts):
            v = np.asarray(b1(t, x - off), dtype=float) * ww
            acc = v if acc is None else acc + v
        return acc

    def remainder(t, x):
        return np.asarray(b1(t, x), dtype=float) - smooth(t, x)

    report = {"radius": radius, "quad_points": len(wts), "lip": lip}
    if lip is not None:
        from . import rng as _rng
        pts = _rng.uniform_points(2024, 3, 256, -grid.L * np.ones(grid.d), grid.L * np.ones(grid.d))
        sup_rem = float(np.max(np.sqrt(np.sum(
            np.asarray(remainder(0.0, pts)) ** 2, axis=-1))))
        report["sup_remainder"] = sup_rem
        report["sup_remainder_bound"] = lip * radius
    return smooth, remainder, report


# ---------------------------------------------------------------------------
# coefficient bundles


@dataclass
class CoefficientSet:
    """Evaluators for one problem: diffusion a = sigma sigma^T / 2, drift
    parts b1 (Lipschitz), b2 (bounded), b0 (singular, integrable), zero
    order c, and source f.  Metadata carries the certified constants.
    """

    sigma: Evaluator
    b1: Evaluator | None = None
    b2: Evaluator | None = None
    b0: Evaluator | None = None
    c: Evaluator | None = None
    f: Evaluator | None = None
    kappa1: float = 0.0
    kappa2: float = 0.0
    lip_b1: float = 0.0
    sup_b2: float = 0.0
    sup_c: float = 0.0
    beta_sigma: float | None = None

    def a(self, t: float, x: np.ndarray) -> np.ndarray:
        s = np.asarray(self.sigma(t, x), dtype=float)
        return 0.5 * np.einsum("...ij,...kj->...ik", s, s)

    def total_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for ev in (self.b1, self.b2, self.b0):
            if ev is not None:
                out = out + np.asarray(ev(t, x), dtype=float)
        return out

    def validate(self, grid: GridSpec, seed: int = 7) -> dict:
        """Sampled certificate checks; raises on violation."""
        from . import rng as _rng
        lo = -grid.L * np.ones(grid.d)
        hi = grid.L * np.ones(grid.d)
        pts = _rng.uniform_points(seed, 4, 512, lo, hi)
        ts = _rng.uniform_points(seed, 5, 8, 0.0, grid.T)
        report = {}
        for t in ts:
            t = float(t)
            a = self.a(t, pts)
            asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)))
            if asym > 1e-10:
                raise ValueError("a is not symmetric")
            eig = np.linalg.eigvalsh(a)
            report["min_eig_a"] = min(report.get("min_eig_a", np.inf), float(eig.min()))
            report["max_eig_a"] = max(report.get("max_eig_a", 0.0), float(eig.max()))
            if self.kappa1 and eig.min() < self.kappa1 * (1 - 1e-9):
                raise ValueError("ellipticity lower bound violated")
            if self.kappa2 and eig.max() > self.kappa2 * (1 + 1e-9):
                raise ValueError("ellipticity upper bound violated")
            if self.b2 is not None and self.sup_b2:
                m = np.sqrt(np.sum(np.asarray(self.b2(t, pts)) ** 2, axis=-1)).max()
                if m > self.sup_b2 * (1 + 1e-9):
                    raise ValueError("bounded drift exceeds its certificate")
            if self.c is not None and self.sup_c:
                m = np.abs(np.asarray(self.c(t, pts))).max()
                if m > self.sup_c * (1 + 1e-9):
                    raise ValueError("zero-order term exceeds its certificate")
        if self.b1 is not None and self.lip_b1:
            a_pts = pts[:256]
            b_pts = pts[256:512]
            t = float(ts[0])
            num = np.sqrt(np.sum((np.asarray(self.b1(t, a_pts))
                                  - np.asarray(self.b1(t, b_pts))) ** 2, axis=-1))
            den = np.sqrt(np.sum((a_pts - b_pts) ** 2, axis=-1))
            quot = (num / np.maximum(den, 1e-300)).max()
            report["lip_b1_sampled"] = float(quot)
            if quot > self.lip_b1 * (1 + 1e-6):
                raise ValueError("Lipschitz quotient of b1 exceeds its certificate")
        return report


def constant_sigma(value: np.ndarray) -> Evaluator:
    value = np.atleast_2d(np.asarray(value, dtype=float))

    def ev(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(value, x.shape[:-1] + value.shape).copy()

    return ev
