"""Euler-Maruyama path engine and the statistics built on it.

Paths are advanced in row ranges (parallel.row_ranges) on their Philox
lanes (see rng), so any run is bit-identical for a fixed (seed, config)
regardless of worker count: a row's results are a pure function of its
own lane, and the parent puts them back in path order and sums each
statistic's rows with one numpy call, as the pair checks do.  One frozen-row
rule serves both engines: a row whose stepped state leaves the doubled box
or is not finite (in_box) is frozen, flagged and counted, only the whole run
decides whether it fails, and no estimator reads it (a coupled run keeps
just its paths alive at the end).  Reading it at its frozen value would err
by about the frozen share too, at most 1 % of a coupled run
(coupling.BOX_EXIT_LIMIT); one rule means a check reads the same rows
whichever engine made them.  Here a frozen row keeps its exit value, NaN
too.  The engines' row kernels (_matvec, _row_dot, _row_norm) live here.

The engine streams: a range holds its normals, the current state, the
alive masks and one block of step tables, never whole paths.  A statistic
of the plain ensemble is a BlockStat, which folds each node of a range
into per-row accumulators as the engine yields it and then gives its
per-row results, and a finish step on the rows of every path, so that
run_stats can feed several statistics from one pass.

Both path engines run through run_ensembles.  An Ensemble is paths on
one seed's Philox lanes at one step count: the plain pass
(plain_ensemble) or a coupled run (coupling.pair_ensembles).  Ensembles
of one seed and dimension share each range's draw whatever their step
counts, and a command's ensembles go to the pool in one call.

The module also houses the two checks that ride on simulated paths:
the transform-consistency curve E max_t |Phi_t(X_t) - Y_t| and the
occupation-functional estimate against the mixed L^p_q norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import Evaluator, NormSpec, trapezoid_weights
from .parallel import pool_size, row_ranges, run_tasks
from .report import CheckRecord, pass_fail
from . import rng as _rng

ESCAPE_WARN = 0.01        # estimator-quality threshold, recorded
INCREMENT_SE = 4          # integrate: increment mean bound, in SEs
INCREMENT_VAR_RTOL = 0.05   # integrate: relative increment variance bound
ESCAPE_ERROR = 0.20       # hard failure: domain too small for the scenario
ROW_CHUNK = 256           # rows per pass of bump-family's row sums
BUMP_MAX_OVER_MEDIAN = 3.0   # bump family: pass bound on max / median ratio
TABLE_BLOCK = 64          # step times per block of tables a path engine holds


@dataclass
class SdeModel:
    """Drift/diffusion pair, or one fused stepper(t, X) -> (drift, sigma).

    The one model type of both path engines: the plain ensemble and the
    coupled pair.  The stepper lets evaluators that share work (e.g. the
    transformed SDE, whose drift and diffusion share one map inversion)
    do it once per step.  A stepper with work that depends on t alone
    comes with tables(ts), that work at each of the times ts; both engines
    build it in their step loop, TABLE_BLOCK step times at a time, and pass
    each step's entry to step_eval, which hands it to the stepper as
    stepper(t, X, table).  Both engines write over its input after each
    call: an evaluator may return its input but must not keep it.
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
        for name in ("T", "L"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    @property
    def h(self) -> float:
        return self.T / self.n_steps


def in_box(X, limit, out=None, work=None):
    """Rows of (N, d) X with max_i |X_i| <= limit; a non-finite row fails.
    out takes the (N,) mask and work, shaped like X, takes |X|."""
    a = np.abs(X, out=work)
    return np.less_equal(a[:, 0] if X.shape[-1] == 1 else a.max(axis=-1), limit,
                         out=out)


def _row_norm(v: np.ndarray, out=None) -> np.ndarray:
    """Euclidean norm of each row of an (N, d) array, into out if given.
    In 1-d it is |v|, which equals sqrt(v**2) bit for bit wherever v**2
    neither underflows nor overflows, and skips the square, the sum and
    the root; otherwise it is np.linalg.norm's sqrt of the summed squares."""
    if v.shape[-1] == 1:
        return np.abs(v[:, 0], out=out)
    return np.sqrt(np.add.reduce(v * v, axis=-1, out=out), out=out)


def _matvec(s: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """s v for each row of an (..., d, d) stack and an (..., d) array,
    broadcast on the leading axes, into out if given.  In 1-d it is the
    one product s[..., 0] * v that einsum's sum would hold."""
    if v.shape[-1] == 1:
        return np.multiply(s[..., 0], v, out=out)
    return np.einsum("...ij,...j->...i", s, v, out=out)


def _row_dot(u: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """<u, v> for each row of two (N, d) arrays, into out if given; in 1-d
    the one product."""
    if u.shape[-1] == 1:
        return np.multiply(u[:, 0], v[:, 0], out=out)
    return np.einsum("...i,...i->...", u, v, out=out)


def _step_tables(model, ts):
    """model's step table at each step time of ts in turn (None without
    tables), from one model.tables call per block of TABLE_BLOCK times as
    the engine's step loop reaches it: a task holds one block, not a run's."""
    for i in range(0, len(ts), TABLE_BLOCK):
        block = ts[i:i + TABLE_BLOCK]
        yield from model.tables(block) if model.tables else [None] * len(block)


def _advance_block(models, x0s, spec, normals, width):
    """The paths of the first width rows of normals (step-major, (n_steps,
    rows, d)) for every SdeModel of models, on shared Brownian increments,
    as a generator of (k, X, alive) at each node k = 0..n_steps, with one
    array of each per model.  X and alive are the engine's own, written in
    place at the next step, so a reader copies what it keeps."""
    d = models[0].d
    sqrt_h = math.sqrt(spec.h)
    X = [np.broadcast_to(np.asarray(x0, dtype=float), (width, d)).copy()
         for x0 in x0s]
    alive = [np.ones(width, dtype=bool) for _ in models]
    yield 0, X, alive
    limit = 2.0 * spec.L
    ts = [k * spec.h for k in range(spec.n_steps)]
    for k, tables in enumerate(zip(*(_step_tables(m, ts) for m in models))):
        dw = normals[k, :width] * sqrt_h
        for i, (model, table) in enumerate(zip(models, tables)):
            # every row takes the same step; a frozen row keeps its value, so
            # a path's bits do not depend on which other paths have escaped
            b, s = model.step_eval(ts[k], X[i], table)
            step = X[i] + b * spec.h + _matvec(s, dw)
            np.copyto(X[i], step, where=alive[i][:, None])
            alive[i] &= in_box(X[i], limit)     # a non-finite row is frozen as escaped
        yield k + 1, X, alive


@dataclass(frozen=True)
class Ensemble:
    """n_paths paths on seed's Philox lanes at n_steps steps in dimension
    d, as run_ensembles runs them: advance(normals) steps one range of
    paths on their normals, step-major (n_steps, rows, d), and returns the
    range's part; finish(parts, draws, procs) is the result from the parts
    in path order, the Philox lanes the ensemble paid for and the processes
    the pool ran on."""

    seed: int
    d: int
    n_steps: int
    n_paths: int
    advance: Callable
    finish: Callable


def run_ensembles(ensembles) -> list:
    """Every ensemble from one pool call, finished in the order given.

    Ensembles with the same seed and dimension form a draw group, whatever
    their step counts.  The pool's processes are shared out among the
    groups, and each group's paths are cut into parallel.row_ranges for its
    share.  A range is one task: it draws its lanes once, for every step
    count of the ensembles that have paths in it, in one pass at the
    largest (rng.lane_normals), each count over the rows its ensembles
    have, and advances those ensembles in the order given.  The lanes,
    with the leading lanes of a block that the draw drops, count in the
    draws of the first of them at the largest count.  A row's bits do not
    depend on the rows beside it, so every result is bit-identical to a run
    made alone, at any worker count."""
    groups = {}               # (seed, d) -> indices of its ensembles
    for i, e in enumerate(ensembles):
        groups.setdefault((e.seed, e.d), []).append(i)
    sizes = [max(ensembles[i].n_paths for i in idx) for idx in groups.values()]
    # the processes the pool has: it forks no more than one per path
    per_group = -(-pool_size(sum(sizes)) // len(groups))
    tasks = [([i for i in idx if ensembles[i].n_paths > a], seed, d, a, b)
             for (seed, d), idx, n in zip(groups, groups.values(), sizes)
             for a, b in row_ranges(n, per_group)]

    def task(have, seed, d, a, b):
        members = [ensembles[i] for i in have]
        stop = {e.n_steps: min(b, e.n_paths)     # the widest at each count
                for e in sorted(members, key=lambda m: m.n_paths)}
        normals = dict(zip(stop, _rng.lane_normals(
            seed, a, list(stop.values()), list(stop), d)))
        return [e.advance(normals[e.n_steps][:, :min(b, e.n_paths) - a])
                for e in members]

    parts = [[] for _ in ensembles]               # in path order
    draws = [0] * len(ensembles)
    for (have, _, _, a, b), out in zip(tasks, run_tasks(task, tasks)):
        draws[max(have, key=lambda i: ensembles[i].n_steps)] += b - a + a % _rng.BLOCK
        for i, part in zip(have, out):
            parts[i].append(part)
    procs = pool_size(len(tasks))
    return [e.finish(p, n, procs) for e, p, n in zip(ensembles, parts, draws)]


@dataclass(frozen=True)
class BlockStat:
    """A statistic of the plain ensemble, split so that one pass can feed
    several.  block(normals) opens one row range and returns (step, rows):
    step(k, X, alive) folds node k, as _advance_block yields it, into
    per-row accumulators, and rows(X, alive) is a tuple of per-row arrays
    from them and the last node, rows first.  finish(*rows) is the result
    from those arrays over every path, in path order."""

    block: Callable
    finish: Callable


def plain_ensemble(models, x0s, spec: SimSpec, stats) -> Ensemble:
    """run_stats' pass as an Ensemble, whose result is the statistics'
    results.  Each task builds its models' step tables itself, block by
    block (_advance_block), so forked tasks inherit the models alone."""

    def advance(normals):
        folds = [st.block(normals) for st in stats]
        for k, X, alive in _advance_block(models, x0s, spec, normals,
                                          normals.shape[1]):
            for step, _ in folds:
                step(k, X, alive)
        return [rows(X, alive) for _, rows in folds]

    def finish(parts, draws, procs):
        return [st.finish(*map(np.concatenate, zip(*(p[i] for p in parts))))
                for i, st in enumerate(stats)]

    return Ensemble(spec.seed, models[0].d, spec.n_steps, spec.n_paths,
                    advance, finish)


def run_stats(models, x0s, spec: SimSpec, stats) -> list:
    """Advance the plain ensemble of every model, from its x0 and on shared
    Brownian increments, once, and finish every statistic on it, in the
    order given.  Each statistic sees the same nodes and rows as a run of
    it alone would, so the results are bit-identical to one pass per
    statistic."""
    return run_ensembles([plain_ensemble(models, x0s, spec, stats)])[0]


def _mean_se(a, keep):
    """Sample mean and its standard error over the rows of a kept by keep,
    from one numpy sum each of the kept rows and of their squares, in path
    order, and the count of kept rows (a count of 0 is taken as 1 in the
    quotients).  Only kept rows are squared, so a dropped row's value
    never overflows."""
    kept = a[keep]
    n_ok = len(kept)
    n = max(n_ok, 1)
    mean = kept.sum(axis=0) / n
    var = np.maximum(np.square(kept).sum(axis=0) / n - mean ** 2, 0.0)
    return mean, np.sqrt(var / n), n_ok


# ---------------------------------------------------------------------------
# plain integration


@dataclass
class PathEnsemble:
    terminal: np.ndarray            # (N, d)
    escaped: np.ndarray             # (N,) bool
    escape_fraction: float
    rng_report: dict
    rows: list


def integrate_stat(x0, spec: SimSpec) -> BlockStat:
    """integrate's statistic: terminal points, escapes and the increments'
    sample moments, with their rows.  The increment mean is over n_paths *
    n_steps draws per axis, so its SE is sqrt(h / (n_paths * n_steps))."""
    x0 = np.asarray(x0, dtype=float)
    if spec.n_steps < 100:
        raise ValueError("step too coarse: need n_steps >= 100 (h <= T/100), "
                         f"got {spec.n_steps}")
    if np.abs(x0).max() > 0.5 * spec.L:
        raise ValueError("x0 must lie in the inner half of the box")

    sqrt_h = math.sqrt(spec.h)

    def block(normals):
        # each row's increment sums, added step by step through one buffer,
        # so a row's bits do not depend on the rows beside it
        sum_dw, sum_dw2, dw = (np.zeros(normals.shape[1:]) for _ in range(3))
        for z in normals:
            sum_dw += np.multiply(z, sqrt_h, out=dw)
            sum_dw2 += np.square(dw, out=dw)
        alive_nodes = np.zeros(normals.shape[1], dtype=np.int64)

        def step(k, X, alive):
            nonlocal alive_nodes
            # an escaped row's count of alive nodes is its exit node
            alive_nodes += alive[0]

        return step, lambda X, alive: (X[0].copy(), ~alive[0], alive_nodes,
                                       sum_dw, sum_dw2)

    def finish(terminal, escaped, alive_nodes, sum_dw, sum_dw2):
        count = spec.n_paths * spec.n_steps
        mean = sum_dw.sum(axis=0) / count
        var = sum_dw2.sum(axis=0) / count - mean ** 2
        frac = float(escaped.mean())
        if frac > ESCAPE_ERROR:
            first = int(np.argmax(escaped))
            raise RuntimeError(
                f"domain too small for scenario: {frac:.1%} of paths escaped; "
                f"first escaped path {first} at "
                f"t={alive_nodes[first] * spec.h:.6g}")
        mean_ok = np.all(np.abs(mean) <= INCREMENT_SE * math.sqrt(spec.h / count))
        var_ok = np.all(np.abs(var - spec.h) <= INCREMENT_VAR_RTOL * spec.h)
        kept = terminal[~escaped, 0]
        rows = [CheckRecord("escape-fraction", frac, pass_fail(frac <= ESCAPE_WARN),
                            ESCAPE_WARN),
                CheckRecord("rng-increment-mean", float(np.max(np.abs(mean))),
                            pass_fail(mean_ok)),
                CheckRecord("rng-increment-var", float(np.mean(var)), pass_fail(var_ok)),
                CheckRecord("terminal-mean", float(kept.mean()), "info"),
                CheckRecord("terminal-var", float(kept.var()), "info")]
        return PathEnsemble(terminal=terminal, escaped=escaped, escape_fraction=frac,
                            rng_report={"increment_mean": mean, "increment_var": var},
                            rows=rows)

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
    y0 = zmap.forward(0.0, x0[None])
    rows = []
    for n_steps in steps_list:
        spec = SimSpec(T=grid.T, n_steps=int(n_steps), n_paths=n_paths,
                       seed=seed, L=grid.L)

        def block(normals, spec=spec):
            # every row's running max; a row is kept if both paths stay
            worst = np.zeros(normals.shape[1])

            def step(k, X, alive):
                img = zmap.forward(k * spec.h, X[0])
                np.maximum(worst, _row_norm(img - X[1]), out=worst)

            return step, lambda X, alive: (worst, alive[0] & alive[1])

        def finish(worst, ok):
            mean, se, n_ok = _mean_se(worst, ok)
            return mean, se, ok.size - n_ok

        rows.append(run_stats([mx, my], [x0, y0], spec, [BlockStat(block, finish)])[0])
    errs, ses, drops = (list(v) for v in zip(*rows))
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
        acc = np.zeros(normals.shape[1])

        def step(k, X, alive):
            nonlocal acc
            # a row that is no longer alive is left out at the end, so f sees
            # the box centre in its place, never a frozen or non-finite value
            x = np.where(alive[0][:, None], X[0], 0.0)
            acc += weights[k] * np.asarray(f(k * h, x), dtype=float).reshape(acc.shape)

        return step, lambda X, alive: (acc, alive[0])

    def finish(acc, ok):
        mean, se, n_ok = _mean_se(acc, ok)
        row = CheckRecord("krylov-ratio", mean / f_norm, "info",
                          ci_low=(mean - 1.96 * se) / f_norm,
                          ci_high=(mean + 1.96 * se) / f_norm)
        return {"estimate": mean, "se": se, "n_used": n_ok,
                "n_excluded": ok.size - n_ok, "f_norm": f_norm,
                "ratio": mean / f_norm, "rows": [row]}

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
    sharpens: the verdict is pass when max <= BUMP_MAX_OVER_MEDIAN x median
    over the family, and inconclusive when the median is not > 0 (most
    bumps saw no path, so there is nothing to compare).
    """
    widths = list(widths)
    if len(widths) > 255:
        raise ValueError(f"at most 255 bump widths, got {len(widths)}")
    weights = trapezoid_weights(spec.n_steps + 1, spec.h)
    pairs = [interval_bump(0.0, eps) for eps in widths]
    # |X| <= eps exactly when fewer than rank + 1 widths w fail |X| <= w
    ranks = [sum(w < eps for w in widths) for eps in widths]

    def block(normals):
        width = normals.shape[1]
        # at each node, how many widths w fail |X| <= w (NaN fails every one)
        codes = np.empty((width, spec.n_steps + 1), dtype=np.uint8)
        r, le = np.empty(width), np.empty(width, dtype=bool)
        code = np.empty(width, dtype=np.uint8)

        def step(k, X, alive):
            np.abs(X[0][:, 0], out=r)
            code.fill(len(widths))
            for w in widths:
                np.subtract(code, np.less_equal(r, w, out=le), out=code)
            codes[:, k] = code

        def rows(X, alive):
            # each row's pairwise sum over time does not depend on the other
            # rows, so the rows are summed ROW_CHUNK at a time
            accs = [[] for _ in widths]
            for c in range(0, width, ROW_CHUNK):
                cc = codes[c:c + ROW_CHUNK]
                for acc, eps, rank in zip(accs, widths, ranks):
                    acc.append(((cc <= rank) * weights).sum(axis=1) / (2.0 * eps))
            return (alive[0], *map(np.concatenate, accs))

        return step, rows

    def finish(ok, *accs):
        means = np.array([_mean_se(a, ok)[0] for a in accs])
        norms = np.array([norm_fn(ns, 0.0, spec.T) for _, norm_fn in pairs])
        ratios = means / norms
        med = float(np.median(ratios))
        with np.errstate(divide="ignore", invalid="ignore"):   # med = 0 is possible
            max_over_median = float(ratios.max() / med)
        verdict = ("inconclusive" if not med > 0
                   else pass_fail(ratios.max() <= BUMP_MAX_OVER_MEDIAN * med))
        return {"ratios": ratios.tolist(), "max_over_median": max_over_median,
                "rows": [CheckRecord("krylov-bump-max-over-median", max_over_median,
                                     verdict, threshold=BUMP_MAX_OVER_MEDIAN)],
                "passed": verdict == "pass"}

    return BlockStat(block, finish)


def bump_family_report(model: SdeModel, x0, spec: SimSpec, ns: NormSpec,
                       widths) -> dict:
    """bump_family_stat on its own pass of the plain ensemble."""
    return run_stats([model], [x0], spec,
                     [bump_family_stat(spec, ns, widths)])[0]
