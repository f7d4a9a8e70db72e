"""Registry tests: admissibility flags re-derive from exponents, the
closed-form singular norm matches independent arithmetic, and the grid
norm approaches it from below under refinement."""

import numpy as np
import pytest

from zvlab.fields import GridSpec, NormSpec, lp_lq_norm, sample_field
from zvlab.scenarios import (HOLDER_BETA, get_scenario, holder_sigma,
                             scenario_names, singular_b0, singular_b0_lp_norm)

ALL_NAMES = ["additive-1d", "holder-sigma", "ou-lipschitz",
             "singular-1d", "trivial-zero"]


def test_registry_lists_all_scenarios():
    assert scenario_names() == ALL_NAMES
    for name in scenario_names():
        sc = get_scenario(name)
        assert sc.name == name
        assert sc.grid.d == 1
        assert sc.coeffs.kappa1 > 0


def test_unknown_scenario_lists_available():
    with pytest.raises(KeyError, match="additive-1d"):
        get_scenario("nope")


def test_admissibility_flags_rederive():
    sc = get_scenario("singular-1d")
    fl = sc.b0_norm.classify()
    # 1/4 + 2/16
    assert fl["beta"] == pytest.approx(0.375, abs=1e-15)
    assert fl["krylov_admissible"]
    assert fl["singular_admissible"]
    assert fl["harnack_power_admissible"]
    # flags are derived, not stored: a non-admissible spec classifies as such
    assert not NormSpec(p=2.0, q=4.0, d=1).classify()["singular_admissible"]
    triv = get_scenario("trivial-zero")
    assert triv.b0_norm is None and triv.coeffs.b0 is None


def test_singular_drift_pointwise():
    x = np.array([[0.0], [1e-10], [0.5], [-0.5], [1.0], [1.5], [-1.5]])
    v = singular_b0(0.0, x)
    assert v[0, 0] == 0.0                       # guarded at the origin
    assert v[1, 0] == pytest.approx(50.0)       # 0.5 * (1e-10)^{-0.2}
    assert v[2, 0] == -v[3, 0]                  # odd
    assert v[5, 0] == 0.0 and v[6, 0] == 0.0    # compact support
    assert v[4, 0] == pytest.approx(0.5)


def test_closed_form_norm_value():
    # int (0.5|x|^{-0.2})^4 over [-1,1] = 2 * 0.0625 / 0.2 = 0.625
    assert singular_b0_lp_norm(4.0) == pytest.approx(0.625 ** 0.25, rel=1e-14)
    assert singular_b0_lp_norm(4.0) == pytest.approx(0.8891397050194615, rel=1e-12)
    with np.errstate(divide="ignore"):
        # integrability boundary p = 5
        assert singular_b0_lp_norm(4.999) > 2.0


def test_grid_norm_underestimates_and_converges():
    sc = get_scenario("singular-1d")
    exact = sc.b0_lpq_norm
    vals = []
    for n in (401, 1601, 6401):
        g = GridSpec(d=1, n=n, m=10, L=2.0, T=1.0)
        b0, capped = sample_field(sc.coeffs.b0, g, cap_singular=True)
        assert capped == 0      # node at 0 is guarded, no capping triggers
        vals.append(lp_lq_norm(b0, g, sc.b0_norm))
    assert all(v < exact for v in vals)         # spike mass is sub-grid
    assert vals[0] == pytest.approx(exact, rel=0.15)
    assert vals[0] < vals[1] < vals[2]          # monotone under refinement


def test_holder_sigma_bounds():
    sc = get_scenario("holder-sigma")
    x = np.linspace(-4.0, 4.0, 4001)[:, None]
    s = sc.coeffs.sigma(0.0, x)[:, 0, 0]
    assert s.min() >= 1.0
    assert s.max() <= 1.3
    assert sc.coeffs.sigma(0.0, np.zeros((1, 1)))[0, 0, 0] == 1.0
    assert sc.coeffs.kappa2 >= s.max() ** 2


def test_holder_sigma_bits_equal_the_one_line_formula():
    # holder_sigma computes in place, in the order of the one-line formula,
    # so its bits are that formula's, on random rows with 0 and +-L among them
    L = get_scenario("holder-sigma").grid.L
    x = np.random.default_rng(3).uniform(-2 * L, 2 * L, (20000, 1))
    x[:3, 0] = 0.0, L, -L
    want = (1.0 + 0.3 / (1.0 + x ** 2) * np.abs(np.sin(x)) ** HOLDER_BETA)[..., None]
    got = holder_sigma(0.0, x)
    assert got.shape == (20000, 1, 1) and got.tobytes() == want.tobytes()


def test_coupling_setup_only_on_testbed():
    for sc in map(get_scenario, scenario_names()):
        if sc.name == "additive-1d":
            assert sc.coupling is not None
            assert sc.coupling.K_T > 0 and sc.coupling.lam_T > 0
            # start pair inside the inner half of the box
            assert max(abs(v) for v in sc.coupling.x + sc.coupling.y) <= sc.grid.L / 2
        else:
            assert sc.coupling is None
