"""Euler-Maruyama path engine and the statistics built on it.

Paths are advanced block-by-block (see rng) so any run is bit-identical
for a fixed (seed, config) regardless of worker count: every block's
partial statistic is a pure function of its inputs and partials are
combined in fixed order.  Paths that leave the doubled box are frozen at
their exit value, flagged, and excluded from estimators with the count
reported.

The module also houses the three checks that ride on simulated paths:
the transform-consistency curve E max_t |Phi_t(X_t) - Y_t|, the
occupation-functional estimate against the mixed L^p_q norm, and the
pathwise Ito-identity residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Evaluator, GridFunction, NormSpec, lp_lq_norm
from .parallel import n_workers, run_tasks, tree_reduce
from . import rng as _rng

ESCAPE_WARN = 0.01        # estimator-quality threshold, recorded
ESCAPE_ERROR = 0.20       # hard failure: domain too small for the scenario


@dataclass
class SdeModel:
    """Drift/diffusion pair; optional fused stepper for stateful evaluation.

    The one model type of both path engines: the plain ensemble and the
    coupled pair.  A stepper(t, X, state) -> (drift, sigma, state) lets
    coupled evaluators (e.g. the transformed SDE, whose drift and diffusion
    share one map inversion warm-started from the previous step) avoid
    duplicate work.  state is None or a per-row array; rows are masked
    together with X.
    """

    d: int
    drift: Evaluator | None = None
    sigma: Evaluator | None = None
    stepper: object = None
    name: str = "X"

    def step_eval(self, t, X, state):
        if self.stepper is not None:
            return self.stepper(t, X, state)
        return (np.asarray(self.drift(t, X), dtype=float),
                np.asarray(self.sigma(t, X), dtype=float), None)


@dataclass(frozen=True)
class SimSpec:
    T: float
    n_steps: int
    n_paths: int
    seed: int
    L: float                 # coefficient box half-width; escape at 2L

    @property
    def h(self) -> float:
        return self.T / self.n_steps


def _advance_block(models, x0s, spec, block_index, width):
    """One block of paths for every model, sharing Brownian increments."""
    d = models[0].d
    normals = _rng.block_normals(spec.seed, block_index, spec.n_steps, d, width)
    dW = normals * math.sqrt(spec.h)
    n_models = len(models)
    X = [np.broadcast_to(np.asarray(x0s[i], dtype=float), (width, d)).copy()
         for i in range(n_models)]
    alive = [np.ones(width, dtype=bool) for _ in range(n_models)]
    states = [None] * n_models
    paths = [np.empty((width, spec.n_steps + 1, d)) for _ in range(n_models)]
    for i in range(n_models):
        paths[i][:, 0] = X[i]
    limit = 2.0 * spec.L
    for k in range(spec.n_steps):
        t = k * spec.h
        for i, model in enumerate(models):
            al = alive[i]
            if not al.any():
                paths[i][:, k + 1] = X[i]
                continue
            if al.all():
                b, s, st = model.step_eval(t, X[i], states[i])
                X[i] = X[i] + b * spec.h + np.einsum("...ij,...j->...i", s, dW[:, k])
                states[i] = st
            else:
                idx = np.flatnonzero(al)
                sub_state = None if states[i] is None else states[i][idx]
                b, s, st = model.step_eval(t, X[i][idx], sub_state)
                X[i][idx] += b * spec.h + np.einsum("...ij,...j->...i", s, dW[idx, k])
                if st is not None:
                    if states[i] is None:
                        states[i] = np.broadcast_to(np.asarray(x0s[i], dtype=float),
                                                    (width, d)).copy()
                    states[i][idx] = st
            out = al & (np.abs(X[i]).max(axis=-1) > limit)
            if out.any():
                alive[i][out] = False
            paths[i][:, k + 1] = X[i]
    return {"X": paths, "dW": dW, "alive": alive, "width": width}


def run_blocks(models, x0s, spec, block_fn, workers=None):
    """block_fn(traj, path_offset) per block; partials in fixed block order."""
    blocks = _rng.path_blocks(spec.n_paths)
    args = []
    off = 0
    for bi, w in blocks:
        args.append((bi, w, off))
        off += w

    def task(bi, w, off):
        traj = _advance_block(models, x0s, spec, bi, w)
        return block_fn(traj, off)

    return run_tasks(task, args, workers=workers or n_workers())


# ---------------------------------------------------------------------------
# plain integration


@dataclass
class PathEnsemble:
    model: SdeModel
    x0: np.ndarray
    spec: SimSpec
    terminal: np.ndarray            # (N, d)
    escaped: np.ndarray             # (N,) bool
    escape_fraction: float
    rng_report: dict = field(default_factory=dict)
    paths: np.ndarray | None = None  # (N, n_steps+1, d) when kept


def integrate(model: SdeModel, x0, spec: SimSpec, keep_paths: bool = False,
              workers: int | None = None) -> PathEnsemble:
    """Euler-Maruyama ensemble with escape freezing and RNG sanity stats."""
    x0 = np.asarray(x0, dtype=float)
    if spec.n_steps < 100:
        raise ValueError("step too coarse: need n_steps >= 100 (h <= T/100)")
    if np.abs(x0).max() > 0.5 * spec.L:
        raise ValueError("x0 must lie in the inner half of the box")

    def block_fn(traj, off):
        dW = traj["dW"]
        part = {
            "terminal": traj["X"][0][:, -1],
            "escaped": ~traj["alive"][0],
            "sum_dw": dW.sum(axis=(0, 1)),
            "sum_dw2": (dW ** 2).sum(axis=(0, 1)),
            "count": dW.shape[0] * dW.shape[1],
        }
        if keep_paths:
            part["paths"] = traj["X"][0]
        return part

    parts = run_blocks([model], [x0], spec, block_fn, workers)
    terminal = np.concatenate([p["terminal"] for p in parts])
    escaped = np.concatenate([p["escaped"] for p in parts])
    sum_dw = tree_reduce([p["sum_dw"] for p in parts], lambda a, b: a + b)
    sum_dw2 = tree_reduce([p["sum_dw2"] for p in parts], lambda a, b: a + b)
    count = sum(p["count"] for p in parts)
    mean = sum_dw / count
    var = sum_dw2 / count - mean ** 2
    frac = float(escaped.mean())
    if frac > ESCAPE_ERROR:
        raise RuntimeError(
            f"domain too small for scenario: {frac:.1%} of paths escaped")
    rng_report = {
        "increment_mean": mean,
        "increment_var": var,
        "mean_ok": bool(np.all(np.abs(mean) <= 4 * math.sqrt(spec.h / spec.n_paths))),
        "var_ok": bool(np.all(np.abs(var - spec.h) <= 0.05 * spec.h)),
        "escape_warn": frac > ESCAPE_WARN,
    }
    paths = np.concatenate([p["paths"] for p in parts]) if keep_paths else None
    return PathEnsemble(model=model, x0=x0, spec=spec, terminal=terminal,
                        escaped=escaped, escape_fraction=frac,
                        rng_report=rng_report, paths=paths)


def original_model(coeffs, d: int) -> SdeModel:
    """Model for the raw SDE; the singular part enters uncapped off-grid
    (scenario evaluators define it finitely a.e.)."""
    return SdeModel(d=d, drift=coeffs.total_drift, sigma=coeffs.sigma, name="X")


def transformed_model(zmap) -> SdeModel:
    """Model for the transformed SDE driven by (Z, Sigma), for either path
    engine.  One map inversion per step serves both coefficients; the
    previous step's preimage warm-starts the fixed point."""

    def stepper(t, Y, state):
        return zmap.transformed(t, Y, x0=state, on_escape="flag")

    return SdeModel(d=zmap.grid.d, stepper=stepper, name="Y")


# ---------------------------------------------------------------------------
# transform consistency


def transform_consistency(zmap, x0, steps_list, n_paths: int, seed: int,
                          workers: int | None = None) -> dict:
    """E max_k |Phi_{t_k}(X_{t_k}) - Y_{t_k}| per step size, plus a log-log
    slope fit.  X and Y share Brownian increments within each level."""
    grid = zmap.grid
    x0 = np.asarray(x0, dtype=float)
    mx = original_model(zmap.coeffs, grid.d)
    my = transformed_model(zmap)
    y0 = zmap.forward(0.0, x0)
    errs = []
    ses = []
    drops = []
    for n_steps in steps_list:
        spec = SimSpec(T=grid.T, n_steps=int(n_steps), n_paths=n_paths,
                       seed=seed, L=grid.L)

        def block_fn(traj, off, spec=spec):
            Xp, Yp = traj["X"]
            ok = traj["alive"][0] & traj["alive"][1]
            w = int(ok.sum())
            if w == 0:
                return (0.0, 0.0, 0, traj["width"])
            worst = np.zeros(w)
            for k in range(spec.n_steps + 1):
                t = k * spec.h
                img = Xp[ok, k] + zmap.phi.eval(t, Xp[ok, k])
                defect = np.sqrt(np.sum((img - Yp[ok, k]) ** 2, axis=-1))
                np.maximum(worst, defect, out=worst)
            return (float(worst.sum()), float((worst ** 2).sum()), w,
                    traj["width"] - w)

        parts = run_blocks([mx, my], [x0, y0], spec, block_fn, workers)
        tot = tree_reduce(parts, lambda a, b: (a[0] + b[0], a[1] + b[1],
                                               a[2] + b[2], a[3] + b[3]))
        s, s2, n_ok, n_drop = tot
        mean = s / max(n_ok, 1)
        var = max(s2 / max(n_ok, 1) - mean ** 2, 0.0)
        errs.append(mean)
        ses.append(math.sqrt(var / max(n_ok, 1)))
        drops.append(n_drop)
    hs = [grid.T / int(n) for n in steps_list]
    errs_arr = np.asarray(errs)
    decreasing = bool(np.all(np.diff(errs_arr) < 0)) if len(errs) > 1 else True
    if np.all(errs_arr > 0):
        slope = float(np.polyfit(np.log(hs), np.log(errs_arr), 1)[0])
    else:
        slope = float("nan")      # identity pipeline: defects at machine zero
    return {"h": hs, "error": errs, "se": ses, "excluded": drops,
            "decreasing": decreasing, "slope": slope}


# ---------------------------------------------------------------------------
# occupation functionals (Krylov content)


def k_pq(ns: NormSpec) -> int:
    """Smallest integer strictly greater than log2(2 / (2 - d/p - 2/q))."""
    val = math.log2(2.0 / (2.0 - ns.beta))
    return math.floor(val) + 1


def krylov_estimate(model: SdeModel, x0, spec: SimSpec, f, ns: NormSpec,
                    window=None, f_norm: float | None = None,
                    workers: int | None = None) -> dict:
    """Monte Carlo E int_{t0}^{t1} f(s, X_s) ds against the mixed norm.

    f is a GridFunction (norm computed by quadrature) or a plain evaluator
    (closed-form f_norm required — keeps sharp bumps exact).  Trapezoid
    weights on the simulation grid, window snapped to it.  Escaped paths
    are excluded and counted.
    """
    cls = ns.classify()
    if not cls["krylov_admissible"]:
        raise ValueError("norm spec is not in the admissible occupation range")
    t0, t1 = (0.0, spec.T) if window is None else window
    if not (0.0 <= t0 < t1 <= spec.T + 1e-12):
        raise ValueError("empty or invalid time window")
    h = spec.h
    k0 = int(math.ceil(t0 / h - 1e-9))
    k1 = int(math.floor(t1 / h + 1e-9))
    if k1 <= k0:
        raise ValueError("window shorter than one step")
    weights = np.full(k1 - k0 + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    if isinstance(f, GridFunction):
        f_eval = f.eval
        if f_norm is None:
            f_norm = lp_lq_norm(f, ns, t0, t1)
    else:
        f_eval = f
        if f_norm is None:
            raise ValueError("plain-evaluator f needs an explicit f_norm")

    def block_fn(traj, off):
        Xp = traj["X"][0]
        ok = traj["alive"][0]
        acc = np.zeros(int(ok.sum()))
        for j, k in enumerate(range(k0, k1 + 1)):
            vals = np.asarray(f_eval(k * h, Xp[ok, k]), dtype=float)
            acc += weights[j] * vals.reshape(acc.shape)
        return (float(acc.sum()), float((acc ** 2).sum()), int(ok.sum()),
                int((~ok).sum()))

    parts = run_blocks([model], [np.asarray(x0, dtype=float)], spec, block_fn, workers)
    s, s2, n_ok, n_drop = tree_reduce(
        parts, lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))
    mean = s / max(n_ok, 1)
    var = max(s2 / max(n_ok, 1) - mean ** 2, 0.0)
    se = math.sqrt(var / max(n_ok, 1))
    return {"estimate": mean, "se": se,
            "ci95": (mean - 1.96 * se, mean + 1.96 * se),
            "n_used": n_ok, "n_excluded": n_drop,
            "f_norm": f_norm, "ratio": mean / f_norm,
            "k_pq": k_pq(ns), "window": (k0 * h, k1 * h)}


def interval_bump(center: float, eps: float):
    """f(s, x) = 1_{|x - center| <= eps} / (2 eps) in 1-d, closed-form norms."""

    def ev(t, x):
        return (np.abs(x[..., 0] - center) <= eps) / (2.0 * eps)

    def norm(ns: NormSpec, t0: float, t1: float) -> float:
        return (t1 - t0) ** (1.0 / ns.q) * (2.0 * eps) ** (1.0 / ns.p - 1.0)

    return ev, norm


def bump_family_report(model: SdeModel, x0, spec: SimSpec, ns: NormSpec,
                       widths, center: float = 0.0,
                       workers: int | None = None) -> dict:
    """Occupation/norm ratios for a family of sharpening bumps in one pass.

    The estimate's content is that the ratio stays bounded as the bump
    sharpens; pass criterion is max <= 3 x median over the family.
    """
    widths = list(widths)
    h = spec.h
    weights = np.full(spec.n_steps + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    pairs = [interval_bump(center, eps) for eps in widths]

    def block_fn(traj, off):
        Xp = traj["X"][0]
        ok = traj["alive"][0]
        r = np.abs(Xp[ok, :, 0] - center)       # (w, n_steps+1)
        sums = []
        sqs = []
        for eps in widths:
            acc = ((r <= eps) * weights).sum(axis=1) / (2.0 * eps)
            sums.append(float(acc.sum()))
            sqs.append(float((acc ** 2).sum()))
        return (np.asarray(sums), np.asarray(sqs), int(ok.sum()))

    parts = run_blocks([model], [np.asarray(x0, dtype=float)], spec, block_fn, workers)
    s, s2, n_ok = tree_reduce(parts, lambda a, b: (a[0] + b[0], a[1] + b[1],
                                                   a[2] + b[2]))
    means = s / max(n_ok, 1)
    ses = np.sqrt(np.maximum(s2 / max(n_ok, 1) - means ** 2, 0.0) / max(n_ok, 1))
    norms = np.array([norm_fn(ns, 0.0, spec.T) for _, norm_fn in pairs])
    ratios = means / norms
    med = float(np.median(ratios))
    return {"widths": widths, "estimates": means.tolist(), "se": ses.tolist(),
            "norms": norms.tolist(), "ratios": ratios.tolist(),
            "median_ratio": med, "max_ratio": float(ratios.max()),
            "max_over_median": float(ratios.max() / med),
            "n_used": n_ok, "passed": bool(ratios.max() <= 3.0 * med)}


# ---------------------------------------------------------------------------
# pathwise Ito-identity residual


@dataclass
class ItoFields:
    """Smooth test field and its derivatives for the identity check."""
    u: object                  # (t, X) -> (w,)
    du_dt: object
    grad: object               # -> (w, d)
    hess: object               # -> (w, d, d)


def ito_fields_from_solution(sol) -> ItoFields:
    """Interpolating evaluators from a solved scalar field."""
    g = sol.grid
    u_gf = GridFunction(g, sol.u[..., 0], "scalar")
    shape_v = (g.m + 1,) + (g.n,) * g.d + (g.d,)
    grad_gf = GridFunction(g, sol.grad()[..., 0, :].reshape(shape_v), "vector")
    shape_m = (g.m + 1,) + (g.n,) * g.d + (g.d, g.d)
    hess_gf = GridFunction(g, sol.hess()[..., 0, :, :].reshape(shape_m), "matrix")
    dudt_gf = GridFunction(g, sol.du_dt()[..., 0], "scalar")
    return ItoFields(u=u_gf.eval, du_dt=dudt_gf.eval,
                     grad=grad_gf.eval, hess=hess_gf.eval)


def ito_residual(fields: ItoFields, model: SdeModel, x0, spec: SimSpec,
                 workers: int | None = None) -> dict:
    """Per-path defect of u(T,X_T) = u(0,X_0) + int (d_t u + b.grad u
    + tr(a D^2 u)) dt + int grad u . sigma dW, with the stochastic integral
    on the same left-point Euler grid."""
    h = spec.h

    def block_fn(traj, off):
        Xp = traj["X"][0]
        dW = traj["dW"]
        ok = traj["alive"][0]
        X = Xp[ok]
        w = X.shape[0]
        acc = np.zeros(w)
        for k in range(spec.n_steps):
            t = k * h
            xs = X[:, k]
            b, s, _ = model.step_eval(t, xs, None)
            a = 0.5 * np.einsum("...ij,...kj->...ik", s, s)
            gu = np.asarray(fields.grad(t, xs), dtype=float)
            Hu = np.asarray(fields.hess(t, xs), dtype=float)
            dr = (np.asarray(fields.du_dt(t, xs), dtype=float)
                  + np.einsum("...i,...i->...", b, gu)
                  + np.einsum("...ij,...ji->...", a, Hu))
            acc += dr * h
            acc += np.einsum("...i,...i->...",
                             np.einsum("...ij,...j->...i", s, dW[ok, k]), gu)
        defect = (np.asarray(fields.u(spec.T, X[:, -1]), dtype=float)
                  - np.asarray(fields.u(0.0, X[:, 0]), dtype=float) - acc)
        return (float(defect.sum()), float((defect ** 2).sum()),
                float(np.abs(defect).sum()), int((defect > 0).sum()), w)

    parts = run_blocks([model], [np.asarray(x0, dtype=float)], spec, block_fn, workers)
    tot = tree_reduce(parts, lambda a, b: tuple(x + y for x, y in zip(a, b)))
    s, s2, sa, npos, n = tot
    mean = s / n
    var = max(s2 / n - mean ** 2, 0.0)
    se = math.sqrt(var / n)
    from scipy.stats import binomtest
    sign_p = binomtest(npos, n, 0.5).pvalue if n > 0 else 1.0
    return {"mean": mean, "se": se, "mean_abs": sa / n, "sign_p": float(sign_p),
            "n": n}


def ito_scaling(fields: ItoFields, model: SdeModel, x0, T: float, L: float,
                steps_list, n_paths: int, seed: int,
                workers: int | None = None) -> dict:
    """mean |defect| across step sizes with a log-log slope fit."""
    means = []
    for n_steps in steps_list:
        spec = SimSpec(T=T, n_steps=int(n_steps), n_paths=n_paths, seed=seed, L=L)
        means.append(ito_residual(fields, model, x0, spec, workers)["mean_abs"])
    hs = [T / int(n) for n in steps_list]
    slope = float(np.polyfit(np.log(hs), np.log(means), 1)[0])
    ratios = [means[i + 1] / means[i] for i in range(len(means) - 1)]
    return {"h": hs, "mean_abs": means, "slope": slope, "ratios": ratios}
