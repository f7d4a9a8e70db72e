"""Coupling by change of measure and the Harnack-inequality checks.

Two copies of an SDE with one-sided Lipschitz drift and distance-aligned
diffusion bounds are driven by shared noise; the second copy receives a
drift correction that contracts the pair at rate 1/eta(t), paid for by a
Girsanov density R accumulated in the log domain.  Whatever correction
actually enters the discrete update also enters log R, so E R_s = 1 is
an exact identity for the simulated chain, not an h->0 limit.

On top of the coupled ensemble sit the inequality checks: the martingale
property of R, the R^{1+gamma0} moment bound, coalescence trend, and the
power- and log-Harnack inequalities.  The printed power-Harnack constant
of the source derivation is degenerate for every admissible gamma (its
denominator vanishes or goes negative); the corrected constant obtained
by substituting theta(gamma) into the moment bound is used as the pass
criterion, and the degenerate value is recorded alongside for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .parallel import n_workers, run_tasks
from .sde import SdeModel
from . import rng as _rng

MAX_HALVINGS = 8          # step halves at T - 2^{-k} T, k = 1..MAX_HALVINGS
N_SAMPLE_TIMES = 8        # E R_s checked on this many times
COALESCENCE_FRACTIONS = (0.2, 0.1, 0.05)   # plus the stop gap itself
DIST_FLOOR_COEFF = 1e-8   # gluing threshold, scaled by (1 + |x-y|)
BOX_EXIT_LIMIT = 0.01     # hard error above this exit fraction
SE_REL_CAP = 0.10         # power check: max gamma-amplified relative SE
LOG_SE_CAP = 0.05         # log check: max absolute SE in log units
ROUNDOFF_ULPS = 64        # verdict floor, in ulps of the larger operand


@dataclass(frozen=True)
class CouplingConfig:
    """Constants of the coupled run.

    K_T: one-sided distance-growth constant, delta_T: distance-aligned
    diffusion-difference bound, lam_T: ellipticity floor.  They are inputs
    (upper/lower bounds), not fitted values; h5_certificate measures
    whether a model pair actually satisfies them.
    """

    T: float
    m: int                    # base step count; h = T/m, m even
    n_paths: int
    L: float                  # coefficient box half-width; exit at 2L
    K_T: float
    delta_T: float
    lam_T: float
    alpha: float = 1.0
    theta: float = 1.0
    gamma: float | None = None
    n_trunc: float = 1e3
    eps_stop: float | None = None   # stop gap; default 0.02 T

    def __post_init__(self):
        if self.T <= 0 or self.L <= 0:
            raise ValueError("T and L must be positive")
        if self.m < 2 or self.m % 2:
            raise ValueError("m must be even (halved segments need T/(2h) steps)")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if min(self.K_T, self.delta_T, self.lam_T) <= 0:
            raise ValueError("K_T, delta_T, lam_T must be positive")
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (1/2, 1]")
        if not 0.0 < self.theta < 2.0 * self.alpha:
            raise ValueError("theta must lie in (0, 2 alpha)")
        if self.gamma is not None and self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.n_trunc <= 0:
            raise ValueError("n_trunc must be positive")
        gap = self.stop_gap
        if not 0.0 < gap < 0.1 * self.T:
            raise ValueError("eps_stop must lie in (0, T/10)")

    @property
    def stop_gap(self) -> float:
        return 0.02 * self.T if self.eps_stop is None else self.eps_stop


def eta(t, cfg: CouplingConfig):
    """Contraction gain (2a-theta)/K_T (1 - e^{K_T (t-T)}); expm1 keeps the
    K_T -> 0 limit (2a-theta)(T-t) accurate."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= cfg.T):
        raise ValueError("eta is only defined for t < T")
    val = (2.0 * cfg.alpha - cfg.theta) * (-np.expm1(cfg.K_T * (t - cfg.T)) / cfg.K_T)
    return float(val) if val.ndim == 0 else val


def gamma0(cfg: CouplingConfig) -> float:
    """Moment-bound exponent margin lam theta^2 / (8 (2 delta + sqrt(lam) theta) delta)."""
    rl = math.sqrt(cfg.lam_T)
    return cfg.lam_T * cfg.theta ** 2 / (
        8.0 * (2.0 * cfg.delta_T + rl * cfg.theta) * cfg.delta_T)


def gamma_threshold(cfg: CouplingConfig) -> float:
    """Smallest power admitting the Harnack route: (1 + 2 delta/(sqrt(lam) alpha))^2."""
    return (1.0 + 2.0 * cfg.delta_T / (math.sqrt(cfg.lam_T) * cfg.alpha)) ** 2


def theta_for_gamma(cfg: CouplingConfig, gamma: float | None = None) -> float:
    """Gain margin 4 delta/(sqrt(lam)(sqrt(gamma)-1)) making 1/(gamma-1) = gamma0."""
    g = cfg.gamma if gamma is None else gamma
    if g is None:
        raise ValueError("no gamma supplied")
    if g <= gamma_threshold(cfg):
        raise ValueError(
            f"gamma below Harnack threshold: need gamma > {gamma_threshold(cfg):.6g}")
    return 4.0 * cfg.delta_T / (math.sqrt(cfg.lam_T) * (math.sqrt(g) - 1.0))


def _dist_scale(r: float, alpha: float) -> float:
    return max(r ** 2, r ** (2.0 * alpha)) if r > 0 else 0.0


def moment_bound_rhs(cfg: CouplingConfig, r: float) -> float:
    """sup_s E R_s^{1+gamma0} bound, from the config constants and |x-y| = r."""
    rl = math.sqrt(cfg.lam_T)
    num = (4.0 * cfg.delta_T + rl * cfg.theta) * cfg.theta * cfg.K_T * _dist_scale(r, cfg.alpha)
    den = (16.0 * (2.0 * cfg.delta_T + rl * cfg.theta)
           * (2.0 * cfg.alpha - cfg.theta)
           * (-math.expm1(-cfg.K_T * cfg.T)) * cfg.delta_T ** 2)
    return math.exp(num / den)


def power_harnack_exponent(cfg: CouplingConfig, r: float,
                           gamma: float | None = None) -> dict:
    """Cost exponent of (P f)^gamma(y) <= P f^gamma(x) exp{...} at theta(gamma).

    `corrected` is (gamma-1) log moment_bound_rhs at theta(gamma), in closed
    form; `printed` evaluates the source's stated constant, whose denominator
    is never positive for admissible gamma (flagged degenerate).
    """
    g = cfg.gamma if gamma is None else gamma
    th = theta_for_gamma(cfg, g)
    rg = math.sqrt(g)
    rl = math.sqrt(cfg.lam_T)
    decay = -math.expm1(-cfg.K_T * cfg.T)
    scale = cfg.K_T * _dist_scale(r, cfg.alpha) / decay
    corrected = rg * (rg - 1.0) * scale / (
        4.0 * cfg.delta_T * (rl * cfg.alpha * (rg - 1.0) - 2.0 * cfg.delta_T))
    dgt = max(cfg.delta_T, rl * cfg.alpha * (rg - 1.0) / 4.0)
    printed_den = 4.0 * dgt * (rl * cfg.alpha * (rg - 1.0) - 4.0 * dgt) * decay
    if printed_den > 0:
        printed = rg * (rg - 1.0) * cfg.K_T * _dist_scale(r, cfg.alpha) / printed_den
        degenerate = False
    else:
        printed = math.inf if r > 0 else 0.0
        degenerate = True
    return {"corrected": corrected, "printed": printed,
            "printed_degenerate": degenerate, "theta": th, "gamma": g}


# ---------------------------------------------------------------------------
# coupled model pair


# Both copies of a pair are one sde.SdeModel.  perfbench/spans.py still
# patches step_eval through this name, so it stays until that is retargeted.
CoupledSde = SdeModel


def h5_certificate(pair: SdeModel, cfg: CouplingConfig, seed: int = 5,
                   n_pairs: int = 512, t_samples: int = 5) -> dict:
    """Sampled check that (K_T, delta_T, lam_T, alpha) actually bound the pair.

    Max sampled quotients are compared against the configured constants;
    constants feed the inequality formulas directly, so they are measured
    rather than trusted.
    """
    d = pair.d
    lo = np.full(d, -cfg.L)
    hi = np.full(d, cfg.L)
    xs = _rng.uniform_points(seed, 30, n_pairs, lo, hi).reshape(n_pairs, d)
    ys = _rng.uniform_points(seed, 31, n_pairs, lo, hi).reshape(n_pairs, d)
    keep = np.linalg.norm(xs - ys, axis=-1) > 1e-9
    xs, ys = xs[keep], ys[keep]
    worst_one_sided = -math.inf
    worst_aligned = 0.0
    min_eig = math.inf
    stop = cfg.T - cfg.stop_gap
    for t in np.linspace(0.0, stop, t_samples):
        bx, sx, _ = pair.step_eval(t, xs, None)
        by, sy, _ = pair.step_eval(t, ys, None)
        diff = xs - ys
        r = np.linalg.norm(diff, axis=-1)
        ds = sx - sy
        lhs = (2.0 * np.einsum("...i,...i->...", bx - by, diff)
               + np.einsum("...ij,...ij->...", ds, ds))
        scale = np.maximum(r ** 2, r ** (2.0 * cfg.alpha))
        worst_one_sided = max(worst_one_sided, float(np.max(lhs / scale)))
        aligned = np.linalg.norm(
            np.einsum("...ji,...j->...i", ds, diff), axis=-1) / r
        worst_aligned = max(worst_aligned, float(aligned.max()))
        a2 = np.einsum("...ij,...kj->...ik", sx, sx)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(a2)[..., 0].min()))
    return {
        "one_sided": worst_one_sided, "aligned": worst_aligned, "min_eig": min_eig,
        "K_T_ok": worst_one_sided <= cfg.K_T + 1e-9,
        "delta_T_ok": worst_aligned <= cfg.delta_T + 1e-9,
        "lam_T_ok": min_eig >= cfg.lam_T - 1e-9,
        "passed": (worst_one_sided <= cfg.K_T + 1e-9
                   and worst_aligned <= cfg.delta_T + 1e-9
                   and min_eig >= cfg.lam_T - 1e-9),
    }


# ---------------------------------------------------------------------------
# sub-stepped time grid


@dataclass
class CouplingGrid:
    ts: np.ndarray            # (n_steps+1,) node times, ts[-1] = T - stop gap
    dts: np.ndarray           # (n_steps,)
    eta_vals: np.ndarray      # eta at left endpoints
    sample_idx: np.ndarray    # node indices of the E R_s sample times
    eps_idx: np.ndarray       # node indices of the coalescence records
    eps_times: np.ndarray


def build_coupling_grid(cfg: CouplingConfig) -> CouplingGrid:
    """Base step T/m halved at each crossing of T - 2^{-k} T, k <= 8; the
    final step is shortened to land exactly on T - stop gap."""
    T = cfg.T
    stop = T - cfg.stop_gap
    h = T / cfg.m
    tiny = 1e-12 * T
    dts = []
    start = 0.0
    k = 0
    while start < stop - tiny:
        seg_end = min(T * (1.0 - 2.0 ** -(k + 1)), stop) if k < MAX_HALVINGS else stop
        dt = h / 2 ** k
        n_full = int(math.floor((seg_end - start) / dt + 1e-9))
        dts.extend([dt] * n_full)
        rem = seg_end - (start + n_full * dt)
        if rem > tiny:
            dts.append(rem)
        start = seg_end
        k += 1
    dts = np.asarray(dts)
    ts = np.concatenate([[0.0], np.cumsum(dts)])
    ts[-1] = stop
    targets = [stop * j / N_SAMPLE_TIMES for j in range(1, N_SAMPLE_TIMES + 1)]
    sample_idx = np.unique([int(np.argmin(np.abs(ts - tg))) for tg in targets])
    eps_t = [T * (1.0 - f) for f in COALESCENCE_FRACTIONS if T * (1.0 - f) < stop]
    eps_t.append(stop)
    eps_idx = np.asarray([int(np.argmin(np.abs(ts - tg))) for tg in eps_t])
    return CouplingGrid(ts=ts, dts=dts, eta_vals=eta(ts[:-1], cfg),
                        sample_idx=sample_idx, eps_idx=eps_idx,
                        eps_times=ts[eps_idx])


# ---------------------------------------------------------------------------
# pair simulation


@dataclass
class CouplingResult:
    cfg: CouplingConfig
    x: np.ndarray
    y: np.ndarray
    r: float
    sample_times: np.ndarray      # (n_s,)
    A: np.ndarray                 # (N, n_s) int v.dW at sample times
    B: np.ndarray                 # (N, n_s) int |v|^2 dt
    eps_times: np.ndarray
    dist_at_eps: np.ndarray       # (N, n_eps)
    final_X: np.ndarray           # (N, d) at T - stop gap
    final_Y: np.ndarray
    glued: np.ndarray             # (N,) coalesced by the end
    box_exit: np.ndarray          # (N,) frozen before the end
    trunc_events: int
    clip_events: int
    total_events: int
    n_steps: int

    def log_weights(self, idx: int = -1, drop_half_term: bool = False) -> np.ndarray:
        lw = -self.A[:, idx]
        if not drop_half_term:
            lw = lw - 0.5 * self.B[:, idx]
        return lw


def verdict_threshold(lhs: float, rhs: float, slack: float,
                      scale: float = 1.0) -> float:
    """The bound a verdict compares lhs against: rhs plus the statistical
    slack, but never less than ROUNDOFF_ULPS ulps of max(|lhs|, |rhs|, 1),
    times scale when lhs amplifies the rounding of its inputs.  Without the
    floor an identity that holds to the last bit (x = y, constant f) could
    fail on summation order alone."""
    eps = np.finfo(float).eps
    floor = ROUNDOFF_ULPS * scale * eps * max(abs(lhs), abs(rhs), 1.0)
    return rhs + max(slack, floor)


def within(lhs: float, rhs: float, slack: float, scale: float = 1.0) -> bool:
    """lhs <= rhs up to the statistical slack and the roundoff floor."""
    return lhs <= verdict_threshold(lhs, rhs, slack, scale)


def _exp_stats(logw: np.ndarray, vals=None) -> tuple[float, float]:
    """Mean and SE of exp(logw)*vals, max-shifted so the sum cannot overflow."""
    n = logw.size
    m = float(logw.max())
    z = np.exp(logw - m)
    if vals is not None:
        z = z * np.asarray(vals, dtype=float)
    mu = float(z.mean())
    sd = float(z.std(ddof=1)) if n > 1 else 0.0
    return math.exp(m) * mu, math.exp(m) * sd / math.sqrt(n)


def _advance_pair_block(pair, x0, y0, cfg, grid, seed, block_index, width):
    d = pair.d
    n_steps = grid.dts.size
    normals = _rng.block_normals(seed, block_index, n_steps, d, width)
    sqdt = np.sqrt(grid.dts)
    X = np.broadcast_to(x0, (width, d)).astype(float).copy()
    Y = np.broadcast_to(y0, (width, d)).astype(float).copy()
    glued = np.zeros(width, dtype=bool)
    alive = np.ones(width, dtype=bool)
    state_x = state_y = None
    A = np.zeros(width)
    B = np.zeros(width)
    A_rec = np.empty((width, grid.sample_idx.size))
    B_rec = np.empty((width, grid.sample_idx.size))
    dist_rec = np.empty((width, grid.eps_idx.size))
    sample_pos = {int(i): j for j, i in enumerate(grid.sample_idx)}
    eps_pos = {int(i): j for j, i in enumerate(grid.eps_idx)}
    floor = DIST_FLOOR_COEFF * (1.0 + float(np.linalg.norm(x0 - y0)))
    power = 2.0 - 2.0 * cfg.alpha
    limit = 2.0 * cfg.L
    trunc = clip = 0
    for k in range(n_steps):
        t = grid.ts[k]
        dt = grid.dts[k]
        dW = normals[:, k] * sqdt[k]
        bX, sX, state_x = pair.step_eval(t, X, state_x)
        bY, sY, state_y = pair.step_eval(t, Y, state_y)
        sXi = np.linalg.inv(sX)     # only the X copy's inverse enters u
        D = X - Y
        dist = np.linalg.norm(D, axis=-1)
        glued |= dist < floor
        act = alive & ~glued
        with np.errstate(divide="ignore", invalid="ignore"):
            damp = np.minimum(dist ** power, 1.0) * grid.eta_vals[k]
            g = np.where(act[:, None], D / damp[:, None], 0.0)
        u = np.einsum("...ij,...j->...i", sXi, g)
        unorm = np.linalg.norm(u, axis=-1)
        over = unorm > cfg.n_trunc
        if over.any():
            trunc += int((over & act).sum())
            u[over] *= (cfg.n_trunc / unorm[over])[:, None]
        corr = np.einsum("...ij,...j->...i", sY, u)
        step_len = np.linalg.norm(corr, axis=-1) * dt
        overshoot = act & (step_len > dist)
        if overshoot.any():
            clip += int(overshoot.sum())
            scale = dist[overshoot] / step_len[overshoot]
            u[overshoot] *= scale[:, None]
            corr[overshoot] *= scale[:, None]
        u[~act] = 0.0
        corr[~act] = 0.0
        X_new = X + bX * dt + np.einsum("...ij,...j->...i", sX, dW)
        Y_new = Y + (bY + corr) * dt + np.einsum("...ij,...j->...i", sY, dW)
        Y_new = np.where(glued[:, None], X_new, Y_new)
        X = np.where(alive[:, None], X_new, X)
        Y = np.where(alive[:, None], Y_new, Y)
        A += np.einsum("...i,...i->...", u, dW)
        B += np.einsum("...i,...i->...", u, u) * dt
        out = alive & ((np.abs(X).max(axis=-1) > limit)
                       | (np.abs(Y).max(axis=-1) > limit))
        if out.any():
            alive[out] = False
        node = k + 1
        j = sample_pos.get(node)
        if j is not None:
            A_rec[:, j] = A
            B_rec[:, j] = B
        j = eps_pos.get(node)
        if j is not None:
            dist_rec[:, j] = np.linalg.norm(X - Y, axis=-1)
    return {"A": A_rec, "B": B_rec, "dist": dist_rec, "X": X, "Y": Y,
            "glued": glued, "alive": alive, "trunc": trunc, "clip": clip,
            "events": width * n_steps}


def simulate_pair(pair: SdeModel, x, y, cfg: CouplingConfig, seed: int,
                  workers: int | None = None) -> CouplingResult:
    """Coupled ensemble from (x, y); the correction and log R share one
    effective v per step, so the weights are exactly mean-one."""
    x = np.asarray(x, dtype=float).reshape(pair.d)
    y = np.asarray(y, dtype=float).reshape(pair.d)
    if max(np.abs(x).max(), np.abs(y).max()) > 0.5 * cfg.L:
        raise ValueError("start points must lie in the inner half of the box")
    grid = build_coupling_grid(cfg)
    blocks = _rng.path_blocks(cfg.n_paths)
    args = [(pair, x, y, cfg, grid, seed, bi, w) for bi, w in blocks]
    parts = run_tasks(_advance_pair_block, args, workers=workers or n_workers())
    A = np.concatenate([p["A"] for p in parts])
    B = np.concatenate([p["B"] for p in parts])
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise RuntimeError("non-finite Girsanov accumulators")
    box_exit = np.concatenate([~p["alive"] for p in parts])
    frac = float(box_exit.mean())
    if frac > BOX_EXIT_LIMIT:
        raise RuntimeError(
            f"coupling box exit rate {frac:.1%} exceeds {BOX_EXIT_LIMIT:.0%};"
            " enlarge L or move the start points inward")
    return CouplingResult(
        cfg=cfg, x=x, y=y, r=float(np.linalg.norm(x - y)),
        sample_times=grid.ts[grid.sample_idx], A=A, B=B,
        eps_times=grid.eps_times,
        dist_at_eps=np.concatenate([p["dist"] for p in parts]),
        final_X=np.concatenate([p["X"] for p in parts]),
        final_Y=np.concatenate([p["Y"] for p in parts]),
        glued=np.concatenate([p["glued"] for p in parts]),
        box_exit=box_exit,
        trunc_events=sum(p["trunc"] for p in parts),
        clip_events=sum(p["clip"] for p in parts),
        total_events=sum(p["events"] for p in parts),
        n_steps=grid.dts.size)


# ---------------------------------------------------------------------------
# checks on a coupled ensemble


def verify_martingale(res: CouplingResult, drop_half_term: bool = False) -> dict:
    """E R_s = 1 within 3 SE at every sample time.  drop_half_term is the
    negative control: weights without the -1/2 int |v|^2 term must fail."""
    means, ses, offending = [], [], []
    for j, t in enumerate(res.sample_times):
        mu, se = _exp_stats(res.log_weights(j, drop_half_term))
        means.append(mu)
        ses.append(se)
        if not (within(mu, 1.0, 3.0 * se) and within(1.0, mu, 3.0 * se)):
            offending.append(float(t))
    return {"times": res.sample_times.tolist(), "means": means, "ses": ses,
            "offending": offending, "passed": not offending}


def verify_moment_bound(res: CouplingResult) -> dict:
    """sup_s E R_s^{1+gamma0} against the closed-form bound at the config's
    theta; equality holds exactly when x = y."""
    g0 = gamma0(res.cfg)
    lhs_all, se_all = [], []
    for j in range(res.sample_times.size):
        mu, se = _exp_stats((1.0 + g0) * res.log_weights(j))
        lhs_all.append(mu)
        se_all.append(se)
    i = int(np.argmax(lhs_all))
    lhs = lhs_all[i]
    rel = se_all[i] / lhs if lhs > 0 else 0.0
    rhs = moment_bound_rhs(res.cfg, res.r)
    thr = verdict_threshold(lhs, rhs, 3.0 * rel * rhs)
    return {"gamma0": g0, "lhs": lhs, "rel_se": rel, "rhs": rhs,
            "threshold": thr, "lhs_by_time": lhs_all,
            "worst_time": float(res.sample_times[i]), "passed": lhs <= thr}


def coalescence_report(res: CouplingResult) -> dict:
    """Median pair distance at T - eps for shrinking eps; the trend replaces
    the almost-sure coincidence at T, which no finite run can certify."""
    med = np.median(res.dist_at_eps, axis=0)
    eps = res.cfg.T - res.eps_times
    scale = 10.0 * math.sqrt(eta(float(res.eps_times[-1]), res.cfg))
    return {"eps": eps.tolist(), "medians": med.tolist(),
            "decreasing": bool(np.all(np.diff(med) < 0)),
            "final_scale_bound": scale,
            "final_ok": bool(med[-1] <= scale),
            "glued_fraction": float(res.glued.mean())}


def _check_positive(fvals, label):
    if np.min(fvals) <= 0:
        raise ValueError(f"test function {label} must be positive on the sample")


def harnack_power_check(pair: SdeModel, fs, x, y, cfg: CouplingConfig,
                        seed: int, workers: int | None = None) -> dict:
    """(E[R f(Y)])^gamma <= E[f^gamma(X)] exp{corrected cost} per test function.

    theta is re-derived from gamma so the moment-bound route applies; the
    degenerate printed constant is recorded next to the corrected one.
    """
    if cfg.gamma is None:
        raise ValueError("power-Harnack check needs cfg.gamma")
    th = theta_for_gamma(cfg)
    run_cfg = replace(cfg, theta=th)
    res = simulate_pair(pair, x, y, run_cfg, seed, workers)
    expo = power_harnack_exponent(cfg, res.r)
    logR = res.log_weights()
    g = cfg.gamma
    checks = []
    for i, f in enumerate(fs):
        label = getattr(f, "__name__", f"f{i}")
        fY = np.asarray(f(res.final_Y), dtype=float)
        fX = np.asarray(f(res.final_X), dtype=float)
        _check_positive(fY, label)
        _check_positive(fX, label)
        base, base_se = _exp_stats(logR, fY)
        lhs = base ** g
        rel_lhs = g * base_se / base
        fxg = fX ** g
        rhs_mean = float(fxg.mean())
        rel_rhs = float(fxg.std(ddof=1)) / math.sqrt(fxg.size) / rhs_mean
        rhs = rhs_mean * math.exp(expo["corrected"])
        combined = math.hypot(rel_lhs, rel_rhs)
        # lhs = base**g carries g times the relative rounding of base
        thr = verdict_threshold(lhs, rhs, 3.0 * combined * rhs, scale=g)
        if combined > SE_REL_CAP:
            verdict = "inconclusive"
        else:
            verdict = "pass" if lhs <= thr else "fail"
        checks.append({"f": label, "lhs": lhs, "rhs": rhs,
                       "combined_rel_se": combined, "threshold": thr,
                       "verdict": verdict})
    return {"checks": checks, "exponent": expo, "theta": th,
        "glued_fraction": float(res.glued.mean()),
        "trunc_events": res.trunc_events,
        "passed": all(c["verdict"] == "pass" for c in checks),
        "inconclusive": any(c["verdict"] == "inconclusive" for c in checks)}


def log_harnack_check(pair: SdeModel, fs, x, y, cfg: CouplingConfig,
                      kappa1: float, k1_hat: float, seed: int,
                      workers: int | None = None) -> dict:
    """E[R log f(Y)] <= log E[f(X)] + k1_hat |x-y|^2/(kappa1 T) per function,
    with k1_hat calibrated elsewhere and frozen."""
    res = simulate_pair(pair, x, y, cfg, seed, workers)
    logR = res.log_weights()
    quad = k1_hat * res.r ** 2 / (kappa1 * cfg.T)
    checks = []
    for i, f in enumerate(fs):
        label = getattr(f, "__name__", f"f{i}")
        fY = np.asarray(f(res.final_Y), dtype=float)
        fX = np.asarray(f(res.final_X), dtype=float)
        _check_positive(fY, label)
        _check_positive(fX, label)
        lhs, lhs_se = _exp_stats(logR, np.log(fY))
        mx = float(fX.mean())
        mx_se = float(fX.std(ddof=1)) / math.sqrt(fX.size)
        rhs = math.log(mx) + quad
        # both terms are absolute uncertainties in log units; lhs itself may
        # sit near zero, so a relative cap would be meaningless
        combined_abs = math.hypot(lhs_se, mx_se / mx)
        thr = verdict_threshold(lhs, rhs, 3.0 * combined_abs)
        if combined_abs > LOG_SE_CAP:
            verdict = "inconclusive"
        else:
            verdict = "pass" if lhs <= thr else "fail"
        checks.append({"f": label, "lhs": lhs, "rhs": rhs,
                       "abs_se": combined_abs, "threshold": thr,
                       "verdict": verdict})
    return {"checks": checks, "quad_cost": quad, "k1_hat": k1_hat,
        "glued_fraction": float(res.glued.mean()),
        "passed": all(c["verdict"] == "pass" for c in checks),
        "inconclusive": any(c["verdict"] == "inconclusive" for c in checks)}


def calibrate_k1(pair: SdeModel, fs, x, y, cfg: CouplingConfig,
                 kappa1: float, seed: int, safety: float = 2.0,
                 workers: int | None = None) -> dict:
    """Smallest constant making the log-Harnack bound hold on a calibration
    pair, inflated by a safety factor and then frozen for grid runs."""
    res = simulate_pair(pair, x, y, cfg, seed, workers)
    if res.r <= 0:
        raise ValueError("calibration needs x != y")
    logR = res.log_weights()
    needed = []
    for f in fs:
        lhs, _ = _exp_stats(logR, np.log(np.asarray(f(res.final_Y), dtype=float)))
        mx = float(np.asarray(f(res.final_X), dtype=float).mean())
        needed.append((lhs - math.log(mx)) * kappa1 * cfg.T / res.r ** 2)
    k1 = safety * max(max(needed), 0.01)
    return {"k1_hat": k1, "needed": needed, "safety": safety, "r": res.r}
