"""Characteristic flow of the Lipschitz drift.

psi(t, x) follows dz/ds = b1(s, z) backward from z(T) = x; its gradient
rides along through the variational system d(grad psi)/ds =
grad b1(z) grad psi.  The inverse map psi^{-1}(t, y) is the same ODE
integrated forward from (t, y) up to T, so both directions share one
integrator and accuracy budget.  The Gronwall bound
sup |grad psi| <= exp(Lip(b1) T) is checked on the solved field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Evaluator, GridSpec

TOL_FLOW = 1e-7


class FlowEscape(RuntimeError):
    """A characteristic left the doubled box before reaching its endpoint."""


def _fd_jacobian(b1: Evaluator, d: int):
    """Central finite-difference Jacobian of the drift, step 1e-5."""
    delta = 1e-5

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        cols = []
        for j in range(d):
            e = np.zeros(d)
            e[j] = delta
            cols.append((np.asarray(b1(t, x + e)) - np.asarray(b1(t, x - e))) / (2 * delta))
        return np.stack(cols, axis=-1)

    return jac


def _rk4_pair(b1, jac, t0, t1, pos, J, n_sub, box_limit):
    """RK4 for (position, jacobian) from t0 to t1 (either direction)."""
    dt = (t1 - t0) / n_sub
    t = t0
    for _ in range(n_sub):
        k1p = np.asarray(b1(t, pos))
        k1j = np.matmul(jac(t, pos), J)
        p2 = pos + 0.5 * dt * k1p
        k2p = np.asarray(b1(t + 0.5 * dt, p2))
        k2j = np.matmul(jac(t + 0.5 * dt, p2), J + 0.5 * dt * k1j)
        p3 = pos + 0.5 * dt * k2p
        k3p = np.asarray(b1(t + 0.5 * dt, p3))
        k3j = np.matmul(jac(t + 0.5 * dt, p3), J + 0.5 * dt * k2j)
        p4 = pos + dt * k3p
        k4p = np.asarray(b1(t + dt, p4))
        k4j = np.matmul(jac(t + dt, p4), J + dt * k3j)
        pos = pos + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        J = J + dt / 6.0 * (k1j + 2 * k2j + 2 * k3j + k4j)
        t += dt
    if box_limit is not None and np.any(np.abs(pos) > box_limit):
        raise FlowEscape("characteristic escaped the doubled box")
    return pos, J


@dataclass
class FlowMap:
    grid: GridSpec
    psi: np.ndarray                     # (m+1, N, d)
    grad_psi: np.ndarray                # (m+1, N, d, d)
    n_sub: int
    psi_inv: np.ndarray | None = None
    grad_psi_inv: np.ndarray | None = None

    def sup_grad(self) -> float:
        """Largest operator norm of grad psi over the whole grid."""
        g = self.grad_psi
        if self.grid.d == 1:
            return float(np.abs(g).max())
        s = np.linalg.svd(g.reshape(-1, self.grid.d, self.grid.d), compute_uv=False)
        return float(s.max())


def solve_flow(b1: Evaluator, grid: GridSpec, jac=None, lip: float | None = None,
               tol: float = TOL_FLOW) -> FlowMap:
    """Integrate the backward flow and its gradient on every grid node.

    Substep count starts from a Lipschitz-based guess and doubles until
    a whole-solve Richardson comparison lands below tol.
    """
    d = grid.d
    if jac is None:
        jac = _fd_jacobian(b1, d)
    nodes = grid.nodes()
    N = nodes.shape[0]
    lip_guess = lip if lip is not None else 1.0
    n_sub = max(1, math.ceil(grid.dt * (lip_guess + 1.0) / 0.02))
    box_limit = 2.0 * grid.L

    def integrate(ns):
        psi = np.empty((grid.m + 1, N, d))
        grad = np.empty((grid.m + 1, N, d, d))
        pos = nodes.copy()
        J = np.broadcast_to(np.eye(d), (N, d, d)).copy()
        psi[grid.m] = pos
        grad[grid.m] = J
        for k in range(grid.m, 0, -1):
            pos, J = _rk4_pair(b1, jac, grid.ts[k], grid.ts[k - 1], pos, J, ns, box_limit)
            psi[k - 1] = pos
            grad[k - 1] = J
        return psi, grad

    psi, grad = integrate(n_sub)
    for _ in range(8):
        n_sub *= 2
        prev, (psi, grad) = psi, integrate(n_sub)
        if float(np.max(np.abs(psi - prev))) <= tol / 4.0:
            return FlowMap(grid=grid, psi=psi, grad_psi=grad, n_sub=n_sub)
    raise RuntimeError("flow integrator could not reach the accuracy target")


def solve_inverse_flow(fm: FlowMap, b1: Evaluator, jac=None) -> FlowMap:
    """Fill psi_inv, grad_psi_inv by integrating every time slice forward to T.

    Slice k is born at the nodes at time t_k; all live slices advance
    together through each grid interval, so the whole inverse field costs
    the same number of vectorized RK4 sweeps as the forward field.
    """
    grid = fm.grid
    d = grid.d
    if jac is None:
        jac = _fd_jacobian(b1, d)
    nodes = grid.nodes()
    N = nodes.shape[0]
    Z = np.tile(nodes, (grid.m + 1, 1, 1))
    M = np.tile(np.eye(d), (grid.m + 1, N, 1, 1))
    box_limit = 2.0 * grid.L
    for j in range(grid.m):
        live = Z[:j + 1].reshape(-1, d)
        liveM = M[:j + 1].reshape(-1, d, d)
        pos, J = _rk4_pair(b1, jac, grid.ts[j], grid.ts[j + 1], live, liveM,
                           fm.n_sub, box_limit)
        Z[:j + 1] = pos.reshape(j + 1, N, d)
        M[:j + 1] = J.reshape(j + 1, N, d, d)
    fm.psi_inv = Z
    fm.grad_psi_inv = M
    return fm


def gronwall_bound(fm: FlowMap, lip: float) -> bool:
    """sup ||grad psi|| <= exp(lip * T) within a 1e-6 slack factor."""
    return fm.sup_grad() <= math.exp(lip * fm.grid.T) * (1.0 + 1e-6)
