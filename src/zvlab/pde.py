"""Backward parabolic solver and the lambda-decay machinery.

Solves, backward in time from zero terminal data on [-L, L]^d with
homogeneous Dirichlet walls,

    d_t u + tr(a D^2 u) + B . grad u + c u = lam * u + f,

componentwise for K right-hand sides sharing one operator, where
B = b1 + b2 + b0 and b0 enters through its node-capped grid sample.
Marching is theta-scheme in the time-to-go variable: a few damped
implicit-Euler startup steps (they kill the stiff transient that pure
Crank-Nicolson turns into slow step-to-step oscillation when lam*dt is
large), Crank-Nicolson afterwards.

The operator does not depend on lam, so `sample_operator` samples it
once per (coefficients, grid) and every lam marches on it.  The discrete
L is one stencil per time slice, all slices built in one pass
(`_stencil`): second differences on each axis, the mixed difference in
2-d, and first differences that switch from central to one-sided
(upwind) wherever the cell Peclet number |B| h / a exceeds 2, which
keeps the implicit matrix an M-matrix and the scheme monotone.  lam
enters only the implicit solve and the explicit half's -lam v.

Linear algebra: in d=1 a direct banded (tridiagonal) solve with the
bands read from the stencil; in d=2 the stencil is assembled into a
sparse matrix and solved by diagonally preconditioned BiCGStab (rtol
1e-10, atol 1e-13, at most 10^4 iterations), warm-started from the
previous slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CoefficientSet, GridSpec, NormSpec, lp_lq_norm, sample_field

# Floor for the spectral parameter when it appears multiplicatively in
# estimates; sweeps start at 10, so max(lam, LAMBDA_FLOOR) = lam there.
LAMBDA_FLOOR = 10.0

# damped implicit-Euler steps before switching to Crank-Nicolson
STARTUP_STEPS = 4

PECLET_SWITCH = 2.0


# ---------------------------------------------------------------------------
# operator sampling


def sample_operator(coeffs: CoefficientSet, grid: GridSpec) -> dict:
    """The lam-free operator of (coeffs, grid), sampled once.

    Keys: grid; stencil, every slice's stencil of L (`_stencil`); the
    grid samples b1 and b0 (node-capped), (m+1, n^d, d), and the source f,
    (m+1, n^d, 1), zero where the coefficient is absent; capped, the
    number of capped b0 nodes.  B = b1+b2+b0 and c enter only the
    stencils.
    """
    g = grid
    N = g.n ** g.d

    def sample(ev, comp, cap_singular):
        if ev is None:
            return np.zeros((g.m + 1, N) + comp), 0
        vals, capped = sample_field(ev, g, cap_singular)
        return vals.reshape((g.m + 1, N) + comp), capped

    a, _ = sample(coeffs.a, (g.d, g.d), False)
    b1, _ = sample(coeffs.b1, (g.d,), False)
    b2, _ = sample(coeffs.b2, (g.d,), False)
    b0, capped = sample(coeffs.b0, (g.d,), True)
    c, _ = sample(coeffs.c, (), False)
    f, _ = sample(coeffs.f, (), False)
    return {"grid": g, "stencil": _stencil(a, b1 + b2 + b0, c, g),
            "b1": b1, "b0": b0, "f": f[..., None], "capped": capped}


# ---------------------------------------------------------------------------
# the discrete operator: one stencil per time slice


def _stencil(a: np.ndarray, B: np.ndarray, c: np.ndarray, g: GridSpec) -> dict:
    """Interior stencils of L at every time slice, as {offset: coefficients}.

    a, B and c are the grid samples, (m+1, n^d, ...).  An offset is a
    d-tuple of steps in {-1, 0, 1}; its coefficients, of shape
    (m+1,) + (n-2,)*d, weight that neighbour of each interior node at
    each slice.  Second differences on each axis, the mixed difference in
    2-d, and first differences that are central, or upwind where
    |B| h / a exceeds PECLET_SWITCH.  Wall nodes are Dirichlet and have
    no stencil.  Every operation is elementwise, so slice k's
    coefficients are those a one-slice build would give.
    """
    d, h = g.d, g.h
    inner = (slice(None),) + (slice(1, -1),) * d
    shape = (g.m + 1,) + (g.n,) * d
    a = a.reshape(shape + (d, d))[inner]
    B = B.reshape(shape + (d,))[inner]
    diag = c.reshape(shape)[inner]
    st = {}
    for ax, step in enumerate(np.eye(d, dtype=int).tolist()):
        s = a[..., ax, ax] / h ** 2
        b = B[..., ax]
        upw = np.abs(b) * h > PECLET_SWITCH * a[..., ax, ax]
        st[tuple(step)] = s + np.where(upw, np.maximum(b, 0.0) / h, b / (2 * h))
        st[tuple(-i for i in step)] = s + np.where(upw, np.maximum(-b, 0.0) / h,
                                                   -b / (2 * h))
        diag = diag - 2 * s - np.where(upw, np.abs(b) / h, 0.0)
    if d == 2:
        cross = a[..., 0, 1] / (2 * h ** 2)
        st[(1, 1)] = st[(-1, -1)] = cross
        st[(1, -1)] = st[(-1, 1)] = -cross
    st[(0,) * d] = diag
    return st


def _apply(st: dict, v: np.ndarray, g: GridSpec) -> np.ndarray:
    """L v for v of shape (n^d, K); wall rows are 0 (Dirichlet)."""
    n = g.n
    vv = v.reshape((n,) * g.d + v.shape[-1:])
    out = np.zeros_like(vv)
    inner = out[(slice(1, -1),) * g.d]
    for off, coef in st.items():
        inner += coef[..., None] * vv[tuple(slice(1 + o, n - 1 + o) for o in off)]
    return out.reshape(v.shape)


def _solve_banded(st: dict, lam: float, gamma: float, rhs: np.ndarray,
                  t: float) -> np.ndarray:
    """1-d: solve (I + gamma*(lam - L)) w = rhs on interior nodes, w = 0 on
    walls, with LAPACK gtsv on the three bands read from the stencil (the
    routine scipy's solve_banded calls for one band each side).  Non-finite
    input raises ValueError and a singular system LinAlgError, both naming
    the slice time t."""
    from scipy.linalg.lapack import dgtsv     # scipy.linalg loads slowly
    dl = -gamma * st[(-1,)][1:]
    d = 1.0 + gamma * (lam - st[(0,)])
    du = -gamma * st[(1,)][:-1]
    b = rhs[1:-1]
    if not all(np.isfinite(a).all() for a in (dl, d, du, b)):
        raise ValueError(f"non-finite implicit system at t={t:.6g}")
    if d.size == 1:           # one interior node: gtsv refuses empty bands
        info = int(d[0] == 0.0)
        x = b if info else b / d[0]
    else:
        # dl, d and du are fresh arrays; the shared stencil is never written
        *_, x, info = dgtsv(dl, d, du, b, overwrite_dl=True, overwrite_d=True,
                            overwrite_du=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular implicit system at t={t:.6g}")
    w = np.zeros_like(rhs)
    w[1:-1] = x
    return w


def _solve_bicgstab(st: dict, lam: float, gamma: float, rhs: np.ndarray,
                    x0: np.ndarray, n: int) -> np.ndarray:
    """2-d: the same system, assembled sparse over the interior nodes and
    solved by diagonally preconditioned BiCGStab started at x0."""
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import LinearOperator, bicgstab
    ni = n - 2
    pos = np.pad(np.arange(ni * ni).reshape(ni, ni), 1, constant_values=-1)
    rows, cols, vals = [], [], []
    for (ox, oy), coef in st.items():
        nbr = pos[1 + ox:1 + ox + ni, 1 + oy:1 + oy + ni]
        keep = nbr >= 0                      # a wall neighbour contributes 0
        rows.append(pos[1:-1, 1:-1][keep])
        cols.append(nbr[keep])
        vals.append(coef[keep])
    L = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(ni * ni, ni * ni)).tocsr()
    A = identity(ni * ni, format="csr") * (1.0 + gamma * lam) - gamma * L
    dinv = 1.0 / A.diagonal()
    M = LinearOperator(A.shape, matvec=lambda z: dinv * z)

    def interior(arr):
        return arr.reshape(n, n, -1)[1:-1, 1:-1].reshape(ni * ni, -1)

    b, guess = interior(rhs), interior(x0)
    w = np.zeros_like(rhs)
    w_in = w.reshape(n, n, -1)[1:-1, 1:-1]
    for k in range(rhs.shape[1]):
        sol, info = bicgstab(A, b[:, k], M=M, rtol=1e-10, atol=1e-13, maxiter=10_000,
                             x0=guess[:, k])
        if info != 0:
            raise RuntimeError(f"implicit 2-d solve failed to converge (info={info})")
        w_in[..., k] = sol.reshape(ni, ni)
    return w


# ---------------------------------------------------------------------------
# the march


def _check_lam(lam: float):
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def solve_backward(op: dict, lam: float, source: np.ndarray) -> np.ndarray:
    """March the theta-scheme for d_t u + L u = lam u + source on the
    operator op (`sample_operator`) from the zero terminal slice down to
    t = 0; source is (m+1, n^d, K).  op is only read.  The first step is
    implicit Euler (STARTUP_STEPS >= 1), so every explicit half has the
    previous step's stencil.  Returns u, (m+1, n[, n], K)."""
    _check_lam(lam)
    g = op["grid"]
    K = source.shape[-1]
    u = np.zeros((g.m + 1, g.n ** g.d, K))
    v = u[g.m]
    st = None                                # stencil of slice k_old
    for j in range(g.m):
        k_old = g.m - j
        k_new = k_old - 1
        theta = 1.0 if j < STARTUP_STEPS else 0.5
        dt = g.dt
        if theta < 1.0:
            rhs = v + dt * (1 - theta) * (_apply(st, v, g) - lam * v)
        else:
            rhs = v.copy()
        rhs -= dt * (theta * source[k_new] + (1 - theta) * source[k_old])
        gamma = dt * theta
        st = {o: s[k_new] for o, s in op["stencil"].items()}
        if g.d == 1:
            v = _solve_banded(st, lam, gamma, rhs, k_new * dt)
        else:
            v = _solve_bicgstab(st, lam, gamma, rhs, v, g.n)
        u[k_new] = v
    return u.reshape((g.m + 1,) + (g.n,) * g.d + (K,))


def solve_phi_system(op: dict, lam: float) -> np.ndarray:
    """Solve the d-component corrector system with source -b0 per component.

    The corrector phi satisfies, componentwise,
        d_t phi + tr(a D^2 phi) + (b1+b2+b0) . grad phi = lam*phi - b0,
    zero at t = T.  Returned with K = d components.  A b0 that is 0 at
    every node gives phi = +0.0 at every node, as the march of its zero
    source does, without the march (or scipy).
    """
    b0 = op["b0"]
    if b0.any():
        return solve_backward(op, lam, -b0)
    _check_lam(lam)
    g = op["grid"]
    return np.zeros((g.m + 1,) + (g.n,) * g.d + b0.shape[-1:])


# ---------------------------------------------------------------------------
# derivative fields, the a priori estimate and the lambda sweep


def _second_diff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Pure second difference of u along axis; each wall copies its inner
    neighbour."""
    v = np.moveaxis(u, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
    out[0], out[-1] = out[1], out[-2]
    return np.moveaxis(out, 0, axis)


def derivative_fields(op: dict, u: np.ndarray) -> tuple:
    """(d_t u, grad u, D^2 u, (d_t + b1 . grad) u) of a solve's u
    (m+1, n[, n], K) on op's grid, the last being the derivative along the
    Lipschitz stream.  grad (..., K, d) is central, one-sided at the walls;
    D^2 (..., K, d, d) has pure second differences on the axes and composed
    central differences for the mixed entry."""
    g = op["grid"]
    grad = np.stack([np.gradient(u, g.h, axis=1 + ax) for ax in range(g.d)], axis=-1)
    hess = np.zeros(u.shape + (g.d, g.d))
    for ax in range(g.d):
        hess[..., ax, ax] = _second_diff(u, 1 + ax, g.h)
    if g.d == 2:
        hess[..., 0, 1] = hess[..., 1, 0] = np.gradient(
            np.gradient(u, g.h, axis=1), g.h, axis=2)
    du_dt = np.gradient(u, g.dt, axis=0)
    b1 = op["b1"].reshape(u.shape[:-1] + (g.d,))
    return du_dt, grad, hess, du_dt + np.einsum("...d,...kd->...k", b1, grad)


def verify_apriori(op: dict, lam: float, u: np.ndarray, source: np.ndarray,
                   ns: NormSpec) -> dict:
    """Left/right sides of the maximal-regularity estimate on this grid,
    for u = solve_backward(op, lam, source).

    lhs = lam_eff ||u|| + ||(d_t + b1.grad) u|| + (||u|| + ||grad u|| + ||D2 u||),
    rhs = ||source|| (f, or b0 for the phi system), all in the mixed norm
    of ns, with lam_eff = max(lam, LAMBDA_FLOOR); the ratio should be
    stable (within 25%) under grid refinement, which is how the shape of
    the estimate is checked numerically without knowing its constant.
    """
    g = op["grid"]
    _, grad, hess, material = derivative_fields(op, u)
    rep = {"u": lp_lq_norm(u, g, ns), "grad": lp_lq_norm(grad, g, ns),
           "hess": lp_lq_norm(hess, g, ns), "material": lp_lq_norm(material, g, ns),
           "source": lp_lq_norm(source.reshape(u.shape), g, ns),
           "lam_eff": max(lam, LAMBDA_FLOOR)}
    rep["sobolev"] = rep["u"] + rep["grad"] + rep["hess"]
    rep["lhs"] = rep["lam_eff"] * rep["u"] + rep["material"] + rep["sobolev"]
    rep["f_norm"] = rep["source"]
    rep["ratio"] = rep["lhs"] / rep["f_norm"] if rep["f_norm"] > 0 else math.inf
    return rep


@dataclass
class SweepResult:
    lambdas: list
    norms: list
    slope: float
    non_increasing: bool
    envelope_ok: bool

    @property
    def passed(self) -> bool:
        return self.non_increasing and self.envelope_ok


def lambda_sweep(coeffs: CoefficientSet, grid: GridSpec, lambdas,
                 ns: NormSpec) -> SweepResult:
    """Solve the scalar equation driven by coeffs.f across a lam grid and
    check the decay envelope of sup |u|.

    For a source of integrability ns = (p, q) the predicted decay exponent
    is ns.decay_exponent, and the sweep passes when the norms do not
    increase and sit below C_hat * lam^(-decay_exponent + 0.2) with C_hat
    pinned at the smallest lam.  The operator is sampled once for every
    lam.  Solves run concurrently; results are ordered by the lam grid, so
    the outcome does not depend on the worker count.
    """
    lambdas = sorted(float(l) for l in lambdas)
    if ns.decay_exponent <= 0:
        raise ValueError("decay prediction has non-positive exponent, "
                         f"got {ns.decay_exponent} for p={ns.p}, q={ns.q}")

    op = sample_operator(coeffs, grid)      # inherited by the forked workers

    def one(lam):
        return float(np.abs(solve_backward(op, lam, op["f"])).max())

    from .parallel import run_tasks
    norms = run_tasks(one, [(l,) for l in lambdas])

    logs = np.log(np.maximum(norms, 1e-300))
    ll = np.log(lambdas)
    slope = float(np.polyfit(ll, logs, 1)[0]) if len(lambdas) > 1 else 0.0
    expo = -ns.decay_exponent + 0.2
    c_hat = norms[0] / lambdas[0] ** expo
    envelope_ok = all(nv <= c_hat * lam ** expo * (1 + 1e-9)
                      for nv, lam in zip(norms, lambdas))
    non_increasing = all(norms[i + 1] <= norms[i] * (1 + 1e-12)
                         for i in range(len(norms) - 1))
    return SweepResult(lambdas=list(lambdas), norms=list(map(float, norms)),
                       slope=slope, non_increasing=non_increasing,
                       envelope_ok=envelope_ok)
