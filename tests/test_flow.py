"""Characteristic-flow tests against closed-form and matrix-exponential oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from zvlab.fields import GridSpec
from zvlab.flow import (FlowEscape, gronwall_bound, solve_flow,
                        solve_inverse_flow)

A = np.array([[-1.0, 0.3], [0.2, -0.5]])  # eigenvalues -1.1, -0.4


def linear_drift(t, x):
    return x @ A.T


def linear_jac(t, x):
    return np.broadcast_to(A, x.shape[:-1] + (2, 2))


@pytest.fixture(scope="module")
def linear_flow():
    grid = GridSpec(d=2, n=21, m=40, L=3.0, T=0.5)
    fm = solve_flow(linear_drift, grid, jac=linear_jac, lip=1.1)
    solve_inverse_flow(fm, linear_drift, jac=linear_jac)
    return grid, fm


def test_matrix_exponential_oracle(linear_flow):
    grid, fm = linear_flow
    nodes = grid.nodes()
    worst = {"psi": 0.0, "grad": 0.0, "psi_inv": 0.0, "grad_inv": 0.0}
    for k in range(grid.m + 1):
        E_back = expm(A * (grid.ts[k] - grid.T))     # psi(t_k, x) = E_back x
        E_fwd = expm(A * (grid.T - grid.ts[k]))
        worst["psi"] = max(worst["psi"], np.abs(fm.psi[k] - nodes @ E_back.T).max())
        worst["grad"] = max(worst["grad"], np.abs(fm.grad_psi[k] - E_back).max())
        worst["psi_inv"] = max(worst["psi_inv"], np.abs(fm.psi_inv[k] - nodes @ E_fwd.T).max())
        worst["grad_inv"] = max(worst["grad_inv"], np.abs(fm.grad_psi_inv[k] - E_fwd).max())
    for name, err in worst.items():
        assert err <= 1e-6, f"{name} defect {err:.3e} exceeds 1e-6"


def test_fd_jacobian_matches_analytic(linear_flow):
    # same solve without the analytic jacobian must agree to integrator accuracy
    grid, fm = linear_flow
    fm2 = solve_flow(linear_drift, grid, lip=1.1)
    assert np.abs(fm2.psi - fm.psi).max() <= 1e-8
    assert np.abs(fm2.grad_psi - fm.grad_psi).max() <= 1e-6


def test_unreachable_accuracy_target_raises():
    # eight doublings cannot bring the Richardson defect below 1e-300
    grid = GridSpec(d=1, n=5, m=1, L=1.0, T=0.02)
    with pytest.raises(RuntimeError, match="could not reach the accuracy target"):
        solve_flow(lambda t, x: -x, grid, jac=lambda t, x: -np.ones(x.shape + (1,)),
                   lip=1.0, tol=1e-300)


def test_ou_closed_form_and_gronwall():
    grid = GridSpec(d=1, n=201, m=50, L=4.0, T=0.5)
    fm = solve_flow(lambda t, x: -x, grid, lip=1.0)
    xs = grid.nodes()
    for k in (0, grid.m // 2, grid.m):
        factor = np.exp(grid.T - grid.ts[k])     # backward flow of dx = -x dt
        assert np.abs(fm.psi[k] - xs * factor).max() <= 1e-9
        assert np.abs(fm.grad_psi[k] - factor).max() <= 1e-9
    assert fm.sup_grad() <= np.exp(grid.T) * (1 + 1e-9)
    assert gronwall_bound(fm, lip=1.0)
    assert not gronwall_bound(fm, lip=0.5)


def test_flow_escape_raises():
    grid = GridSpec(d=1, n=101, m=50, L=4.0, T=1.0)
    with pytest.raises(FlowEscape):
        solve_flow(lambda t, x: -x, grid, lip=1.0)   # 4*e > 2L = 8


def cubic_drift(t, x):
    return -x ** 3 / (1.0 + x ** 2)


def test_inverse_matches_root_finding():
    from scipy.optimize import brentq
    grid = GridSpec(d=1, n=241, m=40, L=3.0, T=0.5)
    fm = solve_flow(cubic_drift, grid, lip=1.125)
    solve_inverse_flow(fm, cubic_drift)
    k = grid.m // 2
    from zvlab.flow import _fd_jacobian, _rk4_pair
    jac = _fd_jacobian(cubic_drift, 1)

    def psi_at(x):
        pos = np.array([[x]])
        J = np.ones((1, 1, 1))
        for j in range(grid.m, k, -1):
            pos, J = _rk4_pair(cubic_drift, jac, grid.ts[j], grid.ts[j - 1],
                               pos, J, fm.n_sub, 2 * grid.L)
        return float(pos[0, 0])

    from zvlab.fields import interp_space
    for y in (-1.5, -0.3, 0.2, 0.9, 1.4):
        x_root = brentq(lambda x: psi_at(x) - y, -3.0, 3.0, xtol=1e-12)
        stored, _ = interp_space(grid, fm.psi_inv[k][:, 0], np.array([[y]]))
        assert abs(x_root - float(stored[0])) <= 1e-3
