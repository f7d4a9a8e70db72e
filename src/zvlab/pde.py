"""Backward parabolic solver and the lambda-decay machinery.

Solves, backward in time from zero terminal data on [-L, L]^d with
homogeneous Dirichlet walls,

    d_t u + tr(a D^2 u) + B . grad u + c u = lam * u + f,

componentwise for K right-hand sides sharing one operator, where
B = b1 + b2 + b0 and b0 enters through its node-capped grid sample.
Marching is theta-scheme in the time-to-go variable: a few damped
implicit-Euler startup steps (they kill the stiff transient that pure
Crank-Nicolson turns into slow step-to-step oscillation when lam*dt is
large), Crank-Nicolson afterwards.  First-order terms switch from
central to one-sided differencing wherever the cell Peclet number
|B| h / a exceeds 2, which keeps the implicit matrix an M-matrix and
the scheme monotone.

Linear algebra: tridiagonal direct solves in d=1; diagonally
preconditioned BiCGStab (tol 1e-10, at most 10^4 iterations) in d=2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .fields import CoefficientSet, GridFunction, GridSpec, NormSpec, sample_field

# Floor for the spectral parameter when it appears multiplicatively in
# estimates; sweeps start at 10, so max(lam, LAMBDA_FLOOR) = lam there.
LAMBDA_FLOOR = 10.0

# damped implicit-Euler steps before switching to Crank-Nicolson
STARTUP_STEPS = 4

PECLET_SWITCH = 2.0


@dataclass
class PdeProblem:
    grid: GridSpec
    coeffs: CoefficientSet
    lam: float = 0.0
    n_comp: int = 1
    sources: str = "f"              # "f" (scalar source) or "b0" (phi system)
    include_singular_gradient: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.sources not in ("f", "b0"):
            raise ValueError(f"sources must be 'f' or 'b0', got {self.sources!r}")


@dataclass
class PdeSolution:
    """Solved field plus its derived derivative fields and diagnostics."""

    grid: GridSpec
    lam: float
    u: np.ndarray                    # (m+1, *spatial, K)
    b1_sample: np.ndarray            # (m+1, *spatial, d)
    source: np.ndarray               # (m+1, *spatial, K), the sampled source
    capped_nodes: int = 0
    solver_info: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_comp(self) -> int:
        return self.u.shape[-1]

    def u_gridfunction(self) -> GridFunction:
        if self.n_comp == 1:
            return GridFunction(self.grid, self.u[..., 0], "scalar")
        if self.n_comp == self.grid.d:
            return GridFunction(self.grid, self.u, "vector")
        raise ValueError("component count matches neither scalar nor vector layout")

    def grad(self) -> np.ndarray:
        """(m+1, *spatial, K, d), central differences, one-sided at walls."""
        if "grad" not in self._cache:
            h = self.grid.h
            parts = [np.gradient(self.u, h, axis=1 + ax) for ax in range(self.grid.d)]
            self._cache["grad"] = np.stack(parts, axis=-1)
        return self._cache["grad"]

    def hess(self) -> np.ndarray:
        """(m+1, *spatial, K, d, d); pure second differences on axes,
        composed central differences for the mixed entry."""
        if "hess" in self._cache:
            return self._cache["hess"]
        g = self.grid
        h2 = g.h ** 2
        d = g.d
        out = np.zeros(self.u.shape + (d, d))

        def second_diff(arr, axis):
            res = np.empty_like(arr)
            sl = [slice(None)] * arr.ndim
            lo = [slice(None)] * arr.ndim
            hi = [slice(None)] * arr.ndim
            sl[axis] = slice(1, -1)
            lo[axis] = slice(0, -2)
            hi[axis] = slice(2, None)
            res[tuple(sl)] = (arr[tuple(hi)] - 2 * arr[tuple(sl)] + arr[tuple(lo)]) / h2
            first = [slice(None)] * arr.ndim
            first[axis] = 0
            second = [slice(None)] * arr.ndim
            second[axis] = 1
            res[tuple(first)] = res[tuple(second)]
            first[axis] = -1
            second[axis] = -2
            res[tuple(first)] = res[tuple(second)]
            return res

        for ax in range(d):
            out[..., ax, ax] = second_diff(self.u, 1 + ax)
        if d == 2:
            mixed = np.gradient(np.gradient(self.u, g.h, axis=1), g.h, axis=2)
            out[..., 0, 1] = mixed
            out[..., 1, 0] = mixed
        self._cache["hess"] = out
        return out

    def du_dt(self) -> np.ndarray:
        if "du_dt" not in self._cache:
            self._cache["du_dt"] = np.gradient(self.u, self.grid.dt, axis=0)
        return self._cache["du_dt"]

    def material_derivative(self) -> np.ndarray:
        """(d_t + b1 . grad) u, the derivative along the Lipschitz stream."""
        if "material" not in self._cache:
            g = self.grad()
            conv = np.einsum("...d,...kd->...k", self.b1_sample, g)
            self._cache["material"] = self.du_dt() + conv
        return self._cache["material"]

    def boundary_shell_fraction(self) -> float:
        """L1 mass share of the outer 10% shell; large values mean the
        Dirichlet truncation is contaminating the solution."""
        g = self.grid
        mag = np.sqrt(np.sum(self.u ** 2, axis=-1))
        w = g.space_weights()
        xs = np.abs(g.xs) >= 0.9 * g.L
        if g.d == 1:
            shell = xs
        else:
            shell = xs[:, None] | xs[None, :]
        total = float(np.sum(mag * w))
        if total == 0.0:
            return 0.0
        return float(np.sum((mag * w)[:, shell])) / total

    def norm_report(self, ns: NormSpec) -> dict:
        g = self.grid
        sw = g.space_weights()
        tw = g.time_weights()
        axes = tuple(range(1, 1 + g.d))

        def mixed(arr):
            mag = np.sqrt(np.sum(arr.reshape(arr.shape[:1 + g.d] + (-1,)) ** 2, axis=-1))
            space = np.sum((mag ** ns.p) * sw, axis=axes)
            return float(np.sum(space ** (ns.q / ns.p) * tw) ** (1.0 / ns.q))

        lam_eff = max(self.lam, LAMBDA_FLOOR)
        rep = {
            "u": mixed(self.u),
            "grad": mixed(self.grad()),
            "hess": mixed(self.hess()),
            "material": mixed(self.material_derivative()),
            "source": mixed(self.source),
            "sup_u": float(np.max(np.sqrt(np.sum(self.u ** 2, axis=-1)))),
            "sup_grad": float(np.max(np.sqrt(np.sum(self.grad() ** 2, axis=(-2, -1))))),
            "shell_fraction": self.boundary_shell_fraction(),
            "lam_eff": lam_eff,
        }
        rep["sobolev"] = rep["u"] + rep["grad"] + rep["hess"]
        rep["lhs"] = lam_eff * rep["u"] + rep["material"] + rep["sobolev"]
        return rep


# ---------------------------------------------------------------------------
# operator sampling


def _sample_operator(problem: PdeProblem):
    """Grid samples of a, B = b1+b2+b0(capped), c, and the requested sources."""
    g = problem.grid
    co = problem.coeffs
    spatial = (g.n,) * g.d
    N = g.n ** g.d
    nodes = g.nodes()

    a_arr = np.empty((g.m + 1, N, g.d, g.d))
    for k, t in enumerate(g.ts):
        a_arr[k] = co.a(float(t), nodes)

    def sample_vec(ev):
        out = np.zeros((g.m + 1, N, g.d))
        if ev is None:
            return out, 0
        gf, capped = sample_field(ev, g, kind="vector", cap_singular=False)
        return gf.values.reshape(g.m + 1, N, g.d), capped

    b1_arr, _ = sample_vec(co.b1)
    b2_arr, _ = sample_vec(co.b2)
    capped = 0
    b0_arr = np.zeros((g.m + 1, N, g.d))
    if co.b0 is not None:
        gf, capped = sample_field(co.b0, g, kind="vector", cap_singular=True)
        b0_arr = gf.values.reshape(g.m + 1, N, g.d)

    B = b1_arr + b2_arr
    if problem.include_singular_gradient:
        B = B + b0_arr

    c_arr = np.zeros((g.m + 1, N))
    if co.c is not None:
        gf, _ = sample_field(co.c, g, kind="scalar", cap_singular=False)
        c_arr = gf.values.reshape(g.m + 1, N)

    if problem.sources == "f":
        K = problem.n_comp
        src = np.zeros((g.m + 1, N, K))
        if co.f is not None:
            gf, _ = sample_field(co.f, g, kind="scalar", cap_singular=False)
            src[..., 0] = gf.values.reshape(g.m + 1, N)
    else:
        # phi system: one component per axis, source -b0^i
        src = -b0_arr
    return {
        "a": a_arr, "B": B, "c": c_arr, "src": src,
        "b1": b1_arr, "capped": capped, "spatial": spatial,
    }


# ---------------------------------------------------------------------------
# spatial operator: apply and implicit solve


def _apply_L_1d(a, B, c, v, h):
    """L v for v of shape (n, K); boundary rows return 0 (Dirichlet)."""
    out = np.zeros_like(v)
    ad = a[:, 0, 0]
    Bd = B[:, 0]
    upw = np.abs(Bd) * h > PECLET_SWITCH * ad
    diff = (v[2:] - 2 * v[1:-1] + v[:-2]) * (ad[1:-1, None] / h ** 2)
    central = (v[2:] - v[:-2]) * (Bd[1:-1, None] / (2 * h))
    fwd = (v[2:] - v[1:-1]) * (Bd[1:-1, None] / h)
    bwd = (v[1:-1] - v[:-2]) * (Bd[1:-1, None] / h)
    upw_i = upw[1:-1, None]
    conv = np.where(upw_i, np.where(Bd[1:-1, None] > 0, fwd, bwd), central)
    out[1:-1] = diff + conv + c[1:-1, None] * v[1:-1]
    return out


def _implicit_solve_1d(a, B, c, lam, gamma, rhs, h):
    """Solve (I + gamma*(lam - L)) w = rhs on interior nodes, w = 0 on walls."""
    n = rhs.shape[0]
    ad = a[:, 0, 0]
    Bd = B[:, 0]
    upw = np.abs(Bd) * h > PECLET_SWITCH * ad
    s = ad / h ** 2
    lo = np.where(upw, np.where(Bd > 0, 0.0, -Bd / h), -Bd / (2 * h)) + s
    di = np.where(upw, -np.abs(Bd) / h, 0.0) - 2 * s + c
    hi = np.where(upw, np.where(Bd > 0, Bd / h, 0.0), Bd / (2 * h)) + s
    # interior unknowns 1..n-2
    A_di = 1.0 + gamma * (lam - di[1:-1])
    A_lo = -gamma * lo[2:-1]
    A_hi = -gamma * hi[1:-2]
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = A_hi
    ab[1, :] = A_di
    ab[2, :-1] = A_lo
    w = np.zeros_like(rhs)
    w[1:-1] = solve_banded((1, 1), ab, rhs[1:-1])
    return w


def _apply_L_2d(a, B, c, v, h, n):
    """L v for v of shape (n*n, K) viewed as (n, n, K)."""
    K = v.shape[-1]
    vv = v.reshape(n, n, K)
    out = np.zeros_like(vv)
    a11 = a[:, 0, 0].reshape(n, n)[1:-1, 1:-1, None]
    a22 = a[:, 1, 1].reshape(n, n)[1:-1, 1:-1, None]
    a12 = a[:, 0, 1].reshape(n, n)[1:-1, 1:-1, None]
    Bx = B[:, 0].reshape(n, n)[1:-1, 1:-1, None]
    By = B[:, 1].reshape(n, n)[1:-1, 1:-1, None]
    cc = c.reshape(n, n)[1:-1, 1:-1, None]
    i = vv[1:-1, 1:-1]
    xp, xm = vv[2:, 1:-1], vv[:-2, 1:-1]
    yp, ym = vv[1:-1, 2:], vv[1:-1, :-2]
    pp, mm = vv[2:, 2:], vv[:-2, :-2]
    pm, mp = vv[2:, :-2], vv[:-2, 2:]
    res = a11 * (xp - 2 * i + xm) / h ** 2 + a22 * (yp - 2 * i + ym) / h ** 2
    res += 2 * a12 * (pp - pm - mp + mm) / (4 * h ** 2)
    upx = np.abs(Bx) * h > PECLET_SWITCH * a11
    upy = np.abs(By) * h > PECLET_SWITCH * a22
    res += np.where(upx, np.where(Bx > 0, Bx * (xp - i), Bx * (i - xm)) / h,
                    Bx * (xp - xm) / (2 * h))
    res += np.where(upy, np.where(By > 0, By * (yp - i), By * (i - ym)) / h,
                    By * (yp - ym) / (2 * h))
    res += cc * i
    out[1:-1, 1:-1] = res
    return out.reshape(n * n, K)


def _assemble_2d(a, B, c, lam, gamma, h, n):
    """Sparse matrix of I + gamma*(lam - L) over interior nodes."""
    from scipy.sparse import coo_matrix
    ni = n - 2
    idx = np.arange(n * n).reshape(n, n)
    interior = idx[1:-1, 1:-1].ravel()
    pos = -np.ones(n * n, dtype=np.int64)
    pos[interior] = np.arange(interior.size)

    a11 = a[interior, 0, 0]
    a22 = a[interior, 1, 1]
    a12 = a[interior, 0, 1]
    Bx = B[interior, 0]
    By = B[interior, 1]
    cc = c[interior]
    upx = np.abs(Bx) * h > PECLET_SWITCH * a11
    upy = np.abs(By) * h > PECLET_SWITCH * a22

    rows, cols, vals = [], [], []

    def add(nbr_offset, coeff):
        nbr = interior + nbr_offset
        p = pos[nbr]
        keep = p >= 0
        rows.append(np.arange(interior.size)[keep])
        cols.append(p[keep])
        vals.append(coeff[keep])

    sx = a11 / h ** 2
    sy = a22 / h ** 2
    conv_xp = np.where(upx, np.where(Bx > 0, Bx / h, 0.0), Bx / (2 * h))
    conv_xm = np.where(upx, np.where(Bx > 0, 0.0, -Bx / h), -Bx / (2 * h))
    conv_yp = np.where(upy, np.where(By > 0, By / h, 0.0), By / (2 * h))
    conv_ym = np.where(upy, np.where(By > 0, 0.0, -By / h), -By / (2 * h))
    diag = -2 * sx - 2 * sy + cc - np.where(upx, np.abs(Bx) / h, 0.0) \
        - np.where(upy, np.abs(By) / h, 0.0)
    cross = 2 * a12 / (4 * h ** 2)

    add(0, diag)
    add(n, sx + conv_xp)      # x+1 neighbour (row-major x-axis stride is n)
    add(-n, sx + conv_xm)
    add(1, sy + conv_yp)
    add(-1, sy + conv_ym)
    add(n + 1, cross)
    add(-n - 1, cross)
    add(n - 1, -cross)
    add(-n + 1, -cross)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    L = coo_matrix((vals, (rows, cols)), shape=(interior.size, interior.size)).tocsr()
    from scipy.sparse import identity
    A = identity(interior.size, format="csr") * (1.0 + gamma * lam) - gamma * L
    return A, interior


def _implicit_solve_2d(a, B, c, lam, gamma, rhs, h, n, x0=None):
    from scipy.sparse.linalg import LinearOperator, bicgstab
    A, interior = _assemble_2d(a, B, c, lam, gamma, h, n)
    dinv = 1.0 / A.diagonal()
    M = LinearOperator(A.shape, matvec=lambda z: dinv * z)
    w = np.zeros_like(rhs)
    for k in range(rhs.shape[1]):
        b = rhs[interior, k]
        guess = None if x0 is None else x0[interior, k]
        sol, info = bicgstab(A, b, M=M, rtol=1e-10, atol=1e-13, maxiter=10_000, x0=guess)
        if info != 0:
            raise RuntimeError(f"implicit 2-d solve failed to converge (info={info})")
        w[interior, k] = sol
    return w


# ---------------------------------------------------------------------------
# the march


def solve_backward(problem: PdeProblem) -> PdeSolution:
    """March the theta-scheme from the zero terminal slice down to t = 0."""
    g = problem.grid
    op = _sample_operator(problem)
    N = g.n ** g.d
    K = op["src"].shape[-1]
    u = np.zeros((g.m + 1, N, K))
    v = u[g.m]
    for j in range(g.m):
        k_old = g.m - j
        k_new = k_old - 1
        theta = 1.0 if j < STARTUP_STEPS else 0.5
        dt = g.dt
        if theta < 1.0:
            Lv = (_apply_L_1d(op["a"][k_old], op["B"][k_old], op["c"][k_old], v, g.h)
                  if g.d == 1 else
                  _apply_L_2d(op["a"][k_old], op["B"][k_old], op["c"][k_old], v, g.h, g.n))
            rhs = v + dt * (1 - theta) * (Lv - problem.lam * v)
        else:
            rhs = v.copy()
        rhs -= dt * (theta * op["src"][k_new] + (1 - theta) * op["src"][k_old])
        gamma = dt * theta
        if g.d == 1:
            v = _implicit_solve_1d(op["a"][k_new], op["B"][k_new], op["c"][k_new],
                                   problem.lam, gamma, rhs, g.h)
        else:
            v = _implicit_solve_2d(op["a"][k_new], op["B"][k_new], op["c"][k_new],
                                   problem.lam, gamma, rhs, g.h, g.n, x0=v)
        u[k_new] = v
    spatial = (g.n,) * g.d
    return PdeSolution(
        grid=g,
        lam=problem.lam,
        u=u.reshape((g.m + 1,) + spatial + (K,)),
        b1_sample=op["b1"].reshape((g.m + 1,) + spatial + (g.d,)),
        source=op["src"].reshape((g.m + 1,) + spatial + (K,)),
        capped_nodes=op["capped"],
        solver_info={"startup_steps": STARTUP_STEPS, "theta": 0.5},
    )


def solve_phi_system(coeffs: CoefficientSet, grid: GridSpec, lam: float,
                     include_singular_gradient: bool = True) -> PdeSolution:
    """Solve the d-component corrector system with source -b0 per component.

    The corrector phi satisfies, componentwise,
        d_t phi + tr(a D^2 phi) + (b1+b2+b0) . grad phi = lam*phi - b0,
    zero at t = T.  Returned with K = d components.
    """
    problem = PdeProblem(grid=grid, coeffs=coeffs, lam=lam, n_comp=grid.d,
                         sources="b0",
                         include_singular_gradient=include_singular_gradient)
    return solve_backward(problem)


# ---------------------------------------------------------------------------
# decay prediction and the lambda sweep


@dataclass(frozen=True)
class DecayPrediction:
    """Predicted decay rate of a weaker-norm target as lam grows.

    Source integrability (p, q), target measured in a (alpha, p2, q2)
    scale with p2 >= p, q2 >= q; the predicted exponent is

        beta0 = (2 - alpha + 2/q2 + d/p2 - 2/q - d/p) / 2,

    and the sweep passes when the measured norms sit below
    C_hat * lam^(-beta0 + 0.2) with C_hat pinned at the smallest lam.
    """

    d: int
    p: float
    q: float
    alpha: float = 0.0
    p2: float = math.inf
    q2: float = math.inf

    def __post_init__(self):
        if self.p2 < self.p or self.q2 < self.q:
            raise ValueError("target exponents must satisfy p2 >= p, q2 >= q")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def beta0(self) -> float:
        return 0.5 * (2.0 - self.alpha + 2.0 / self.q2 + self.d / self.p2
                      - 2.0 / self.q - self.d / self.p)


@dataclass
class SweepResult:
    lambdas: list
    norms: list
    slope: float
    c_hat: float
    prediction: DecayPrediction
    non_increasing: bool
    envelope_ok: bool

    @property
    def passed(self) -> bool:
        return self.non_increasing and self.envelope_ok


def _target_norm(sol: PdeSolution, pred: DecayPrediction) -> float:
    gf = sol.u_gridfunction()
    if math.isinf(pred.p2) and math.isinf(pred.q2):
        if pred.alpha == 0.0:
            return gf.sup()
        from .fields import holder_seminorm
        vals = [holder_seminorm(gf, float(t), pred.alpha) for t in sol.grid.ts]
        return gf.sup() + max(vals)
    from .fields import lp_lq_norm
    ns2 = NormSpec(p=pred.p2, q=pred.q2, d=pred.d)
    return lp_lq_norm(gf, ns2)


def lambda_sweep(coeffs: CoefficientSet, grid: GridSpec, lambdas,
                 prediction: DecayPrediction, mode: str = "source",
                 workers: int | None = None) -> SweepResult:
    """Solve across a lam grid and check the decay envelope.

    mode "source": scalar solve driven by coeffs.f (bounded source);
    mode "phi": the corrector system driven by -b0.
    Solves run concurrently; results are ordered by the lam grid, so
    the outcome does not depend on the worker count.
    """
    lambdas = sorted(float(l) for l in lambdas)
    if prediction.beta0 <= 0:
        raise ValueError("decay prediction has non-positive exponent")

    def one(lam):
        if mode == "phi":
            sol = solve_phi_system(coeffs, grid, lam)
        else:
            sol = solve_backward(PdeProblem(grid=grid, coeffs=coeffs, lam=lam))
        return _target_norm(sol, prediction)

    from .parallel import run_tasks
    norms = run_tasks(one, [(l,) for l in lambdas], workers=workers)

    logs = np.log(np.maximum(norms, 1e-300))
    ll = np.log(lambdas)
    slope = float(np.polyfit(ll, logs, 1)[0]) if len(lambdas) > 1 else 0.0
    expo = -prediction.beta0 + 0.2
    c_hat = norms[0] / lambdas[0] ** expo
    envelope_ok = all(nv <= c_hat * lam ** expo * (1 + 1e-9)
                      for nv, lam in zip(norms, lambdas))
    non_increasing = all(norms[i + 1] <= norms[i] * (1 + 1e-12)
                         for i in range(len(norms) - 1))
    return SweepResult(lambdas=list(lambdas), norms=list(map(float, norms)),
                       slope=slope, c_hat=float(c_hat), prediction=prediction,
                       non_increasing=non_increasing, envelope_ok=envelope_ok)


def verify_apriori(sol: PdeSolution, ns: NormSpec) -> dict:
    """Left/right sides of the maximal-regularity estimate on this grid.

    lhs = lam_eff ||u|| + ||(d_t + b1.grad) u|| + (||u|| + ||grad u|| + ||D2 u||),
    rhs = ||source|| (f, or b0 for the phi system), all in the mixed norm
    of ns; the ratio should be stable (within 25%) under grid
    refinement, which is how the shape of the estimate is checked
    numerically without knowing its constant.
    """
    rep = sol.norm_report(ns)
    f_norm = rep["source"]           # sampled once, by the solve
    ratio = rep["lhs"] / f_norm if f_norm > 0 else math.inf
    return {"lhs": rep["lhs"], "f_norm": f_norm, "ratio": ratio, **rep}
