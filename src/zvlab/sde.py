"""Euler-Maruyama path engine and the statistics built on it.

Paths are advanced block-by-block (see rng) so any run is bit-identical
for a fixed (seed, config) regardless of worker count: every block's
partial statistic is a pure function of its inputs and partials are
combined in fixed order.  Paths that leave the doubled box, or turn
non-finite, are frozen at their exit value, flagged, and excluded from
estimators with the count reported.

The engine streams: a block holds its normals, the current state and the
alive masks, never whole paths.  A statistic of the plain ensemble is a
BlockStat, which folds each node of a block into per-row accumulators as
the engine yields it and then gives the block's partial, and a finish
step, so that run_stats can feed several statistics from one pass.

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
ROW_CHUNK = 256           # rows per pass of bump-family's row sums


@dataclass
class SdeModel:
    """Drift/diffusion pair, or one fused stepper(t, X) -> (drift, sigma).

    The one model type of both path engines: the plain ensemble and the
    coupled pair.  The stepper lets evaluators that share work (e.g. the
    transformed SDE, whose drift and diffusion share one map inversion)
    do it once per step.  A stepper with work that depends on t alone
    comes with tables(ts), that work at each of the times ts; both engines
    build it once per run and step grid and pass each step's entry to
    step_eval, which hands it to the stepper as stepper(t, X, table).  The
    pair engine writes over its input after each call: an evaluator may
    return its input but must not keep it.
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
    """One block of paths for every model, on shared Brownian increments,
    as a generator: first the block's normals (width, n_steps, d), then
    (k, X, alive) at each node k = 0..n_steps, with one array of each per
    model.  models pairs each SdeModel with its step tables (or None).  X
    and alive are the engine's own: X[i] is replaced at the next step and
    alive[i] updated in place, so a reader copies what it keeps."""
    d = models[0][0].d
    normals = _rng.block_normals(spec.seed, block_index, spec.n_steps, d, width)
    yield normals
    sqrt_h = math.sqrt(spec.h)
    X = [np.broadcast_to(np.asarray(x0, dtype=float), (width, d)).copy()
         for x0 in x0s]
    alive = [np.ones(width, dtype=bool) for _ in models]
    yield 0, X, alive
    limit = 2.0 * spec.L
    for k in range(spec.n_steps):
        t = k * spec.h
        dw = normals[:, k] * sqrt_h
        for i, (model, tables) in enumerate(models):
            # every row takes the same step; a frozen row keeps its value, so
            # a path's bits do not depend on which other paths have escaped
            al = alive[i]
            b, s = model.step_eval(t, X[i], None if tables is None else tables[k])
            step = X[i] + b * spec.h + np.einsum("...ij,...j->...i", s, dw)
            X[i] = np.where(al[:, None], step, X[i])
            # a non-finite row fails the test and is frozen as escaped
            al[~(np.abs(X[i]).max(axis=-1) <= limit)] = False
        yield k + 1, X, alive


@dataclass(frozen=True)
class BlockStat:
    """A statistic of the plain ensemble, split so that one pass can feed
    several.  block(normals) opens one path block and returns (step,
    part): step(k, X, alive) folds node k, as _advance_block yields it,
    into per-row accumulators, and part(X, alive) is the block's partial
    from them and the last node.  finish(partials) is the result from
    every block's partial in block order."""

    block: Callable
    finish: Callable


def run_stats(models, x0s, spec: SimSpec, stats) -> list:
    """Advance the plain ensemble of every model, from its x0 and on shared
    Brownian increments, once, and finish every statistic on it, in the
    order given.  Each statistic sees the same nodes and reduces its own
    partials as a run of it alone would, so the results are bit-identical
    to one pass per statistic.  A model's step tables are built here, once
    for the step grid, before the tasks fork."""
    ts = [k * spec.h for k in range(spec.n_steps)]
    members = [(m, None if m.tables is None else m.tables(ts)) for m in models]

    def task(bi, w):
        nodes = _advance_block(members, x0s, spec, bi, w)
        normals = next(nodes)
        folds = [st.block(normals) for st in stats]
        del normals                 # freed with the generator, before part()
        for k, X, alive in nodes:
            for step, _ in folds:
                step(k, X, alive)
        return [part(X, alive) for _, part in folds]

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

    def block(normals):
        # the increments' sums from the whole draw; dW ** 2 is taken in
        # place, so the block holds one copy of the draw, not two
        dW = normals * math.sqrt(spec.h)
        sum_dw = dW.sum(axis=(0, 1))
        sum_dw2 = np.square(dW, out=dW).sum(axis=(0, 1))
        width, n_steps = dW.shape[:2]
        del dW
        alive_nodes = np.zeros(width, dtype=np.int64)

        def step(k, X, alive):
            nonlocal alive_nodes
            # an escaped row's count of alive nodes is its exit node
            alive_nodes += alive[0]

        def part(X, alive):
            return {"sum_dw": sum_dw, "sum_dw2": sum_dw2, "count": width * n_steps,
                    "alive_nodes": alive_nodes, "terminal": X[0].copy(),
                    "escaped": ~alive[0]}

        return step, part

    def finish(parts):
        terminal = np.concatenate([p["terminal"] for p in parts])
        escaped = np.concatenate([p["escaped"] for p in parts])
        alive_nodes = np.concatenate([p["alive_nodes"] for p in parts])
        sum_dw = tree_reduce([p["sum_dw"] for p in parts], lambda a, b: a + b)
        sum_dw2 = tree_reduce([p["sum_dw2"] for p in parts], lambda a, b: a + b)
        count = sum(p["count"] for p in parts)
        mean = sum_dw / count
        var = sum_dw2 / count - mean ** 2
        frac = float(escaped.mean())
        if frac > ESCAPE_ERROR:
            first = int(np.argmax(escaped))
            raise RuntimeError(
                f"domain too small for scenario: {frac:.1%} of paths escaped; "
                f"first escaped path {first} at "
                f"t={alive_nodes[first] * spec.h:.6g}")
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

        def block(normals, spec=spec):
            # every row's running max; a row is kept if both paths stay
            worst = np.zeros(normals.shape[0])

            def step(k, X, alive):
                img = X[0] + zmap.phi.eval(k * spec.h, X[0])
                np.maximum(worst, np.sqrt(np.sum((img - X[1]) ** 2, axis=-1)),
                           out=worst)

            def part(X, alive):
                ok = alive[0] & alive[1]
                w = worst[ok]
                return (float(w.sum()), float((w ** 2).sum()), w.size,
                        ok.size - w.size)

            return step, part

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

    def block(normals):
        acc = np.zeros(normals.shape[0])

        def step(k, X, alive):
            nonlocal acc
            # a row that is no longer alive is left out at the end, so f sees
            # the box centre in its place, never a frozen or non-finite value
            x = np.where(alive[0][:, None], X[0], 0.0)
            acc += weights[k] * np.asarray(f(k * h, x), dtype=float).reshape(acc.shape)

        def part(X, alive):
            ok = alive[0]
            a = acc[ok]
            return (float(a.sum()), float((a ** 2).sum()), a.size, ok.size - a.size)

        return step, part

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

    def block(normals):
        width = normals.shape[0]
        r = None                        # |X| at every node, (width, n_steps+1)

        def step(k, X, alive):
            nonlocal r
            if k == 0:                  # after every statistic's block(normals)
                r = np.empty((width, spec.n_steps + 1))
            np.abs(X[0][:, 0], out=r[:, k])

        def part(X, alive):
            # each row's pairwise sum over time does not depend on the other
            # rows, so the kept rows are summed ROW_CHUNK at a time
            ok = alive[0]
            accs = [[] for _ in widths]
            for c in range(0, width, ROW_CHUNK):
                rc = r[c:c + ROW_CHUNK][ok[c:c + ROW_CHUNK]]
                for acc, eps in zip(accs, widths):
                    acc.append(((rc <= eps) * weights).sum(axis=1) / (2.0 * eps))
            accs = [np.concatenate(acc) for acc in accs]
            return (np.asarray([float(a.sum()) for a in accs]),
                    np.asarray([float((a ** 2).sum()) for a in accs]),
                    int(ok.sum()))

        return step, part

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
