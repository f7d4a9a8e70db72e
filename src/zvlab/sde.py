"""Euler-Maruyama path engine and the statistics built on it.

Paths are advanced block-by-block (see rng) so any run is bit-identical
for a fixed (seed, config) regardless of worker count: every block's
partial statistic is a pure function of its inputs and partials are
combined in fixed order.  Paths that leave the doubled box, or turn
non-finite, are frozen at their exit value, flagged, and excluded from
estimators with the count reported.  A statistic of the plain ensemble is a BlockStat, a per-block
partial and a finish step, so that run_stats can feed several statistics
from one pass over the paths.

The module also houses the two checks that ride on simulated paths:
the transform-consistency curve E max_t |Phi_t(X_t) - Y_t| and the
occupation-functional estimate against the mixed L^p_q norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import Evaluator, NormSpec, trapezoid_weights
from .parallel import run_tasks, tree_reduce
from . import rng as _rng

ESCAPE_WARN = 0.01        # estimator-quality threshold, recorded
ESCAPE_ERROR = 0.20       # hard failure: domain too small for the scenario


@dataclass
class SdeModel:
    """Drift/diffusion pair, or one fused stepper(t, X) -> (drift, sigma).

    The one model type of both path engines: the plain ensemble and the
    coupled pair.  The stepper lets evaluators that share work (e.g. the
    transformed SDE, whose drift and diffusion share one map inversion)
    do it once per step.  A stepper with work that depends on t alone
    comes with tables(ts), that work at each of the times ts; the pair
    engine builds it once per run and passes each step's entry to
    step_eval, which hands it to the stepper as stepper(t, X, table).  The
    plain engine passes None.  The pair engine writes over its input after
    each call: an evaluator may return its input but must not keep it.
    """

    d: int
    drift: Evaluator | None = None
    sigma: Evaluator | None = None
    stepper: object = None
    tables: Callable | None = None

    def step_eval(self, t, X, table):
        if self.stepper is None:
            return (np.asarray(self.drift(t, X), dtype=float),
                    np.asarray(self.sigma(t, X), dtype=float))
        if table is None:
            return self.stepper(t, X)
        return self.stepper(t, X, table)


@dataclass(frozen=True)
class SimSpec:
    T: float
    n_steps: int
    n_paths: int
    seed: int
    L: float                 # coefficient box half-width; escape at 2L

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

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
    paths = [np.empty((width, spec.n_steps + 1, d)) for _ in range(n_models)]
    for i in range(n_models):
        paths[i][:, 0] = X[i]
    limit = 2.0 * spec.L
    for k in range(spec.n_steps):
        t = k * spec.h
        for i, model in enumerate(models):
            # every row takes the same step; a frozen row keeps its value, so
            # a path's bits do not depend on which other paths have escaped
            al = alive[i]
            b, s = model.step_eval(t, X[i], None)
            step = X[i] + b * spec.h + np.einsum("...ij,...j->...i", s, dW[:, k])
            X[i] = np.where(al[:, None], step, X[i])
            # a non-finite row fails the test and is frozen as escaped
            al[~(np.abs(X[i]).max(axis=-1) <= limit)] = False
            paths[i][:, k + 1] = X[i]
    return {"X": paths, "dW": dW, "alive": alive, "width": width}


@dataclass(frozen=True)
class BlockStat:
    """A statistic of the plain ensemble, split so that one pass can feed
    several: block(traj) is one path block's partial, finish(partials)
    the result from every block's partial in block order."""

    block: Callable
    finish: Callable


def run_stats(models, x0s, spec: SimSpec, stats) -> list:
    """Advance the plain ensemble of every model, from its x0 and on shared
    Brownian increments, once, and finish every statistic on it, in the
    order given.  Each statistic sees the same trajectories and reduces
    its own partials as a run of it alone would, so the results are
    bit-identical to one pass per statistic."""

    def task(bi, w):
        traj = _advance_block(models, x0s, spec, bi, w)
        return [st.block(traj) for st in stats]

    parts = run_tasks(task, _rng.path_blocks(spec.n_paths))
    return [st.finish([p[i] for p in parts]) for i, st in enumerate(stats)]


def _sum_partials(parts):
    """Tuples of partial sums added field by field in the fixed tree order."""
    return tree_reduce(parts, lambda a, b: tuple(u + v for u, v in zip(a, b)))


def _mean_se(s, s2, n):
    """Sample mean and its standard error from the sum s, the sum of
    squares s2 and the count n of the samples (n = 0 is taken as 1)."""
    n = max(n, 1)
    mean = s / n
    return mean, np.sqrt(np.maximum(s2 / n - mean ** 2, 0.0) / n)


# ---------------------------------------------------------------------------
# plain integration


@dataclass
class PathEnsemble:
    terminal: np.ndarray            # (N, d)
    escaped: np.ndarray             # (N,) bool
    escape_fraction: float
    rng_report: dict = field(default_factory=dict)


def integrate_stat(x0, spec: SimSpec) -> BlockStat:
    """integrate's statistic: terminal points, escapes and the increments'
    sample moments.  The increment mean is over n_paths * n_steps draws
    per axis, so its 4-SE bound is 4 sqrt(h / (n_paths * n_steps))."""
    x0 = np.asarray(x0, dtype=float)
    if spec.n_steps < 100:
        raise ValueError("step too coarse: need n_steps >= 100 (h <= T/100), "
                         f"got {spec.n_steps}")
    if np.abs(x0).max() > 0.5 * spec.L:
        raise ValueError("x0 must lie in the inner half of the box")

    def block(traj):
        dW = traj["dW"]
        return {
            # a copy, so the block's paths are freed before the finish
            "terminal": traj["X"][0][:, -1].copy(),
            "escaped": ~traj["alive"][0],
            "sum_dw": dW.sum(axis=(0, 1)),
            "sum_dw2": (dW ** 2).sum(axis=(0, 1)),
            "count": dW.shape[0] * dW.shape[1],
        }

    def finish(parts):
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
                f"domain too small for scenario: {frac:.1%} of paths escaped; "
                f"first escaped path {int(np.argmax(escaped))}")
        rng_report = {
            "increment_mean": mean,
            "increment_var": var,
            "mean_ok": bool(np.all(np.abs(mean) <= 4 * math.sqrt(spec.h / count))),
            "var_ok": bool(np.all(np.abs(var - spec.h) <= 0.05 * spec.h)),
            "escape_warn": frac > ESCAPE_WARN,
        }
        return PathEnsemble(terminal=terminal, escaped=escaped,
                            escape_fraction=frac, rng_report=rng_report)

    return BlockStat(block, finish)


def integrate(model: SdeModel, x0, spec: SimSpec) -> PathEnsemble:
    """Euler-Maruyama ensemble with escape freezing and RNG sanity stats."""
    return run_stats([model], [x0], spec, [integrate_stat(x0, spec)])[0]


def original_model(coeffs, d: int) -> SdeModel:
    """Model for the raw SDE; the singular part enters uncapped off-grid
    (scenario evaluators define it finitely a.e.)."""
    return SdeModel(d=d, drift=coeffs.total_drift, sigma=coeffs.sigma)


def transformed_model(zmap) -> SdeModel:
    """Model for the transformed SDE driven by (Z, Sigma), for either path
    engine.  One map inversion per step serves both coefficients; in 1-d
    the map's step tables carry what it shares across rows."""

    def stepper(t, Y, table=None):
        return zmap.transformed(t, Y, on_escape="flag", table=table)

    return SdeModel(d=zmap.grid.d, stepper=stepper,
                    tables=zmap.step_tables if zmap.grid.d == 1 else None)


# ---------------------------------------------------------------------------
# transform consistency


def transform_consistency(zmap, x0, steps_list, n_paths: int, seed: int) -> dict:
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

        def block(traj, spec=spec):
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

        def finish(parts):
            s, s2, n_ok, n_drop = _sum_partials(parts)
            return (*_mean_se(s, s2, n_ok), n_drop)

        err, se, n_drop = run_stats([mx, my], [x0, y0], spec,
                                    [BlockStat(block, finish)])[0]
        errs.append(err)
        ses.append(se)
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


def krylov_stat(spec: SimSpec, f, ns: NormSpec, f_norm: float) -> BlockStat:
    """krylov_estimate's statistic: Monte Carlo E int_0^T f(s, X_s) ds
    against f_norm, the mixed norm of the evaluator f in closed form
    (which keeps sharp bumps exact).  Trapezoid weights on the simulation
    grid.  Escaped paths are excluded and counted.
    """
    cls = ns.classify()
    if not cls["krylov_admissible"]:
        raise ValueError("norm spec is not in the admissible occupation range")
    h = spec.h
    weights = trapezoid_weights(spec.n_steps + 1, h)

    def block(traj):
        Xp = traj["X"][0]
        ok = traj["alive"][0]
        acc = np.zeros(int(ok.sum()))
        for k in range(spec.n_steps + 1):
            vals = np.asarray(f(k * h, Xp[ok, k]), dtype=float)
            acc += weights[k] * vals.reshape(acc.shape)
        return (float(acc.sum()), float((acc ** 2).sum()), int(ok.sum()),
                int((~ok).sum()))

    def finish(parts):
        s, s2, n_ok, n_drop = _sum_partials(parts)
        mean, se = _mean_se(s, s2, n_ok)
        return {"estimate": mean, "se": se,
                "ci95": (mean - 1.96 * se, mean + 1.96 * se),
                "n_used": n_ok, "n_excluded": n_drop,
                "f_norm": f_norm, "ratio": mean / f_norm,
                "k_pq": k_pq(ns)}

    return BlockStat(block, finish)


def krylov_estimate(model: SdeModel, x0, spec: SimSpec, f, ns: NormSpec,
                    f_norm: float) -> dict:
    """krylov_stat on its own pass of the plain ensemble."""
    return run_stats([model], [x0], spec, [krylov_stat(spec, f, ns, f_norm)])[0]


def interval_bump(center: float, eps: float):
    """f(s, x) = 1_{|x - center| <= eps} / (2 eps) in 1-d, closed-form norms."""

    def ev(t, x):
        return (np.abs(x[..., 0] - center) <= eps) / (2.0 * eps)

    def norm(ns: NormSpec, t0: float, t1: float) -> float:
        return (t1 - t0) ** (1.0 / ns.q) * (2.0 * eps) ** (1.0 / ns.p - 1.0)

    return ev, norm


def bump_family_stat(spec: SimSpec, ns: NormSpec, widths) -> BlockStat:
    """bump_family_report's statistic: occupation/norm ratios for a family
    of sharpening bumps, all centred at the origin.

    The estimate's content is that the ratio stays bounded as the bump
    sharpens; pass criterion is max <= 3 x median over the family.
    """
    widths = list(widths)
    weights = trapezoid_weights(spec.n_steps + 1, spec.h)
    pairs = [interval_bump(0.0, eps) for eps in widths]

    def block(traj):
        Xp = traj["X"][0]
        ok = traj["alive"][0]
        r = np.abs(Xp[ok, :, 0])                # (w, n_steps+1)
        sums = []
        sqs = []
        for eps in widths:
            acc = ((r <= eps) * weights).sum(axis=1) / (2.0 * eps)
            sums.append(float(acc.sum()))
            sqs.append(float((acc ** 2).sum()))
        return (np.asarray(sums), np.asarray(sqs), int(ok.sum()))

    def finish(parts):
        s, s2, n_ok = _sum_partials(parts)
        means, ses = _mean_se(s, s2, n_ok)
        norms = np.array([norm_fn(ns, 0.0, spec.T) for _, norm_fn in pairs])
        ratios = means / norms
        med = float(np.median(ratios))
        with np.errstate(divide="ignore", invalid="ignore"):   # med = 0 is possible
            max_over_median = float(ratios.max() / med)
        return {"widths": widths, "estimates": means.tolist(), "se": ses.tolist(),
                "norms": norms.tolist(), "ratios": ratios.tolist(),
                "median_ratio": med, "max_ratio": float(ratios.max()),
                "max_over_median": max_over_median,
                "n_used": n_ok, "passed": bool(ratios.max() <= 3.0 * med)}

    return BlockStat(block, finish)


def bump_family_report(model: SdeModel, x0, spec: SimSpec, ns: NormSpec,
                       widths) -> dict:
    """bump_family_stat on its own pass of the plain ensemble."""
    return run_stats([model], [x0], spec,
                     [bump_family_stat(spec, ns, widths)])[0]
