"""Scenario registry: named coefficient sets with grids, norms, and
coupling constants bound in one place.

Each scenario fixes everything a pipeline stage needs: the coefficient
evaluators, the solve grid, the integrability exponents of the singular
part with its closed-form norm where one exists, a start point for path
ensembles, and (for the coupling testbeds) the one-sided/alignment/
ellipticity constants with a start pair.  Admissibility is not stored:
b0_norm.classify() derives it from the exponents, so a stale
declaration cannot survive an edit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CoefficientSet, GridSpec, NormSpec, constant_sigma

SINGULAR_POWER = 0.2      # b0 ~ |x|^{-SINGULAR_POWER} near the origin
SINGULAR_SCALE = 0.5
HOLDER_BETA = 0.6         # diffusion Holder exponent, > 1/2


@dataclass(frozen=True)
class CouplingSetup:
    """Constants and start pair for the shared-noise coupling stage."""

    K_T: float
    delta_T: float
    lam_T: float
    alpha: float = 1.0
    x: tuple = (0.25,)
    y: tuple = (-0.25,)


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    coeffs: CoefficientSet
    grid: GridSpec
    x0: tuple = (0.25,)
    b0_norm: NormSpec | None = None
    b0_lpq_norm: float | None = None      # closed-form norm of b0, if any
    coupling: CouplingSetup | None = None

    @property
    def d(self) -> int:
        return self.grid.d


def singular_b0(t, x):
    # 0.5 |x|^{-0.2} sign(x) on |x| <= 1; odd, unbounded at 0, L^4-integrable
    r = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where((r <= 1.0) & (r > 0.0),
                       SINGULAR_SCALE * r ** (-SINGULAR_POWER), 0.0)
    return mag * np.sign(x)


def singular_b0_lp_norm(p: float = 4.0) -> float:
    """Closed-form ||b0||_{L^p(R)} of the singular drift (time-constant)."""
    # int_{-1}^{1} (0.5 |x|^{-0.2})^p dx = 2 * 0.5^p / (1 - 0.2 p), p < 5
    return (2.0 * SINGULAR_SCALE ** p / (1.0 - SINGULAR_POWER * p)) ** (1.0 / p)


def holder_sigma(t, x):
    """1 + 0.3 / (1 + x^2) |sin x|^HOLDER_BETA, in that order, in place."""
    s, w = np.square(x), np.sin(x)
    np.divide(0.3, np.add(1.0, s, out=s), out=s)
    np.power(np.abs(w, out=w), HOLDER_BETA, out=w)
    return np.add(1.0, np.multiply(s, w, out=s), out=s)[..., None]


def _neg_identity_drift(scale):
    def drift(t, x):
        return -scale * x
    return drift


def _trivial_zero() -> Scenario:
    coeffs = CoefficientSet(sigma=constant_sigma([[1.0]]),
                            b1=_neg_identity_drift(0.5),
                            kappa1=1.0, kappa2=1.0)
    return Scenario(
        name="trivial-zero",
        description="no singular part; the transform must be the identity",
        coeffs=coeffs,
        grid=GridSpec(d=1, n=201, m=200, L=2.0, T=1.0))


def _singular_1d() -> Scenario:
    coeffs = CoefficientSet(sigma=constant_sigma([[1.0]]),
                            b0=singular_b0,
                            kappa1=1.0, kappa2=1.0)
    return Scenario(
        name="singular-1d",
        description="compactly supported odd drift, unbounded at the origin",
        coeffs=coeffs,
        grid=GridSpec(d=1, n=401, m=400, L=2.0, T=1.0),
        b0_norm=NormSpec(p=4.0, q=16.0, d=1),
        b0_lpq_norm=singular_b0_lp_norm(4.0))


def _ou_lipschitz() -> Scenario:
    coeffs = CoefficientSet(sigma=constant_sigma([[1.0]]),
                            b1=_neg_identity_drift(1.0),
                            kappa1=1.0, kappa2=1.0)
    return Scenario(
        name="ou-lipschitz",
        description="restoring drift with linear growth, no singular part",
        coeffs=coeffs,
        grid=GridSpec(d=1, n=161, m=200, L=4.0, T=1.0))


def _holder_sigma() -> Scenario:
    coeffs = CoefficientSet(sigma=holder_sigma,
                            b0=singular_b0,
                            kappa1=1.0, kappa2=1.69)
    return Scenario(
        name="holder-sigma",
        description="Holder-continuous diffusion above the ellipticity floor",
        coeffs=coeffs,
        grid=GridSpec(d=1, n=201, m=200, L=2.0, T=1.0),
        b0_norm=NormSpec(p=4.0, q=16.0, d=1),
        b0_lpq_norm=singular_b0_lp_norm(4.0))


def _additive_1d() -> Scenario:
    # analytic coupling testbed: one-sided drift, unit additive noise, so
    # K_T = delta_T = lam_T = 1 are valid bounds by inspection
    coeffs = CoefficientSet(sigma=constant_sigma([[1.0]]),
                            b1=_neg_identity_drift(0.5),
                            kappa1=1.0, kappa2=1.0)
    return Scenario(
        name="additive-1d",
        description="one-sided Lipschitz drift with additive noise",
        coeffs=coeffs,
        grid=GridSpec(d=1, n=201, m=200, L=8.0, T=1.0),
        coupling=CouplingSetup(K_T=1.0, delta_T=1.0, lam_T=1.0))


_FACTORIES = {
    "trivial-zero": _trivial_zero,
    "singular-1d": _singular_1d,
    "ou-lipschitz": _ou_lipschitz,
    "holder-sigma": _holder_sigma,
    "additive-1d": _additive_1d,
}


def scenario_names() -> list:
    return sorted(_FACTORIES)


def get_scenario(name: str) -> Scenario:
    if name not in _FACTORIES:
        raise KeyError(f"unknown scenario {name!r}; available: "
                       + ", ".join(scenario_names()))
    return _FACTORIES[name]()
