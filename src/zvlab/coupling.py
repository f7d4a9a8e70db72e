"""Coupling by change of measure and the Harnack-inequality checks.

Two copies of an SDE driven by shared noise; the second copy receives a
drift correction that contracts the pair at rate 1/eta(t), paid for by a
Girsanov density R accumulated in the log domain.  Whatever correction
enters the discrete update also enters log R, so E R_s = 1 is an exact
identity for the simulated chain, not an h->0 limit.

Every check is a function of a CouplingResult: the martingale property of
R, the R^{1+gamma0} moment bound, the coalescence trend, and the power-
and log-Harnack inequalities.  The power check passes on the corrected
constant (theta(gamma) substituted into the moment bound); the source's
printed constant, degenerate for every admissible gamma, is recorded
beside it.  Every statistical verdict comes from one rule, decide(), and
each check builds its own report rows.

A coupled run is an sde.Ensemble (pair_ensembles), so it shares its
Philox draws with the plain pass and the other runs of its seed, in the
one pool call of sde.run_ensembles.  The pair step loop stays its own,
with the plain engine's frozen-row rule (see sde): a row that leaves the
box or turns non-finite is counted as a box exit, and no check reads it.
Reading it at its frozen state would err by about the frozen share too,
which BOX_EXIT_LIMIT caps at 1 %; one rule means a check reads the same
rows whichever engine made them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unused here; perfbench/spans.py patches run_tasks in this module
from .parallel import run_tasks  # noqa: F401
from .report import CheckRecord, all_pass, joint_verdict, pass_fail
from .sde import (Ensemble, SdeModel, _matvec, _row_dot, _row_norm, _step_tables,
                  in_box, run_ensembles)
from . import rng as _rng

MAX_HALVINGS = 8          # step halves at T - 2^{-k} T, k = 1..MAX_HALVINGS
N_SAMPLE_TIMES = 8        # E R_s checked on this many times
COALESCENCE_FRACTIONS = (0.2, 0.1, 0.05)   # plus the stop gap itself
DIST_FLOOR_COEFF = 1e-8   # gluing threshold, scaled by (1 + |x-y|)
BOX_EXIT_LIMIT = 0.01     # hard error above this exit fraction
SE_SLACK = 3.0            # every check's statistical slack, in SEs
SE_REL_CAP = 0.10         # power check: max gamma-amplified relative SE
LOG_SE_CAP = 0.05         # log check: max absolute SE in log units
ROUNDOFF_ULPS = 64        # verdict floor, in ulps of the larger operand
N_TRUNC = 1e3             # cap on the Girsanov integrand's norm |u|
H5_PAIRS = 512            # h5_certificate: sampled start pairs
H5_TIMES = 5              # h5_certificate: sampled times in [0, T - stop gap]
H5_SLACK = 1e-9           # h5_certificate: slack on each configured constant
TRUNC_LIMIT = 0.001       # truncation-fraction: pass bound on truncated events
COALESCENCE_SCALE = 10.0  # final median bound, in units of sqrt(eta(stop))
K1_SAFETY = 2.0           # calibrate_k1: factor on the calibrated constant
STOP_GAP = 0.02           # runs stop at T - STOP_GAP T
SAMPLED_FLOOR = 0.05      # on sampled K_T, delta_T (may be <= 0): any upper bound is valid


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

    def __post_init__(self):
        for name in ("T", "L", "K_T", "delta_T", "lam_T"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.m < 2 or self.m % 2:
            raise ValueError("m must be even (halved segments need T/(2h) "
                             f"steps), got {self.m}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1], got {self.alpha}")
        if not 0.0 < self.theta < 2.0 * self.alpha:
            raise ValueError(f"theta must lie in (0, 2 alpha), got {self.theta}")
        if self.gamma is not None and not (math.isfinite(self.gamma)
                                           and self.gamma > 1.0):
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")

    @property
    def stop_gap(self) -> float:
        return STOP_GAP * self.T


def constant_rows(cfg: CouplingConfig, provenance: str) -> list:
    """The info rows of the run's K_T, delta_T and lam_T: declared
    ("closed-form"), or sampled and floored at SAMPLED_FLOOR ("sampled")."""
    return [CheckRecord(f"coupling-{key}", getattr(cfg, key), "info",
                        provenance=provenance) for key in ("K_T", "delta_T", "lam_T")]


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
    form; `printed_degenerate` flags the source's stated constant, whose
    denominator printed_den is never positive: dgt >= s/4 for s = sqrt(lam)
    alpha (sqrt(gamma) - 1) > 0, so s - 4 dgt <= 0 while dgt and the decay
    are positive.
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
    return {"corrected": corrected, "printed_degenerate": printed_den <= 0, "theta": th}


# ---------------------------------------------------------------------------
# coupled model pair


# Both copies of a pair are one sde.SdeModel.  perfbench/spans.py patches
# step_eval through this name and binds its unused third argument.
CoupledSde = SdeModel


def pair_constants(pair: SdeModel, xs, ys, ts, alpha: float) -> dict:
    """Sampled constants of the model pair (b, sigma) over the point pairs
    (xs, ys) (N, d) at the times ts: the largest K_T, delta_T and drift
    Lipschitz quotient lip_Z, and the smallest lam_T.  K_T bounds
    2<b(x)-b(y), x-y> + ||sigma(x)-sigma(y)||_HS^2 against |x-y|^2 v
    |x-y|^{2 alpha}; delta_T the distance-aligned diffusion difference
    |(sigma(x)-sigma(y))^T (x-y)| / |x-y|; lam_T the smallest eigenvalue
    of sigma sigma^T at xs."""
    diff = xs - ys
    d2 = np.sum(diff ** 2, axis=-1)
    dist = np.sqrt(d2)
    denom = np.maximum(np.maximum(d2, dist ** (2 * alpha)), 1e-300)
    K, delta, lam_T, lip_Z = -np.inf, 0.0, np.inf, 0.0
    for t in map(float, ts):
        zx, sx = pair.step_eval(t, xs, None)
        zy, sy = pair.step_eval(t, ys, None)
        hs2 = np.sum((sx - sy) ** 2, axis=(-2, -1))
        K = max(K, float(((2 * np.sum((zx - zy) * diff, axis=-1) + hs2)
                          / denom).max()))
        aligned = np.sqrt(np.sum(
            (np.einsum("...ji,...j->...i", sx - sy, diff)) ** 2, axis=-1))
        delta = max(delta, float((aligned / np.maximum(dist, 1e-300)).max()))
        lip_Z = max(lip_Z, float((np.sqrt(np.sum((zx - zy) ** 2, axis=-1))
                                  / np.maximum(dist, 1e-300)).max()))
        eig = np.linalg.eigvalsh(np.einsum("...ij,...kj->...ik", sx, sx))
        lam_T = min(lam_T, float(eig.min()))
    return {"K_T": K, "delta_T": delta, "lam_T": lam_T, "lip_Z": lip_Z}


def h5_certificate(pair: SdeModel, cfg: CouplingConfig, seed: int = 5) -> dict:
    """Sampled check that (K_T, delta_T, lam_T, alpha) bound the pair:
    pair_constants on H5_PAIRS start pairs in the box at H5_TIMES times in
    [0, T - stop gap], against the configured constants, which feed the
    inequality formulas and so are measured rather than trusted."""
    d = pair.d
    lo, hi = np.full(d, -cfg.L), np.full(d, cfg.L)
    xs = _rng.uniform_points(seed, 30, H5_PAIRS, lo, hi).reshape(H5_PAIRS, d)
    ys = _rng.uniform_points(seed, 31, H5_PAIRS, lo, hi).reshape(H5_PAIRS, d)
    keep = np.linalg.norm(xs - ys, axis=-1) > 1e-9
    got = pair_constants(pair, xs[keep], ys[keep],
                         np.linspace(0.0, cfg.T - cfg.stop_gap, H5_TIMES),
                         cfg.alpha)
    sides = [decide(got["K_T"], cfg.K_T, H5_SLACK)[0],
             decide(got["delta_T"], cfg.delta_T, H5_SLACK)[0],
             decide(cfg.lam_T, got["lam_T"], H5_SLACK)[0]]
    verdict = joint_verdict(sides)
    rows = [CheckRecord("h5-certificate", float(verdict == "pass"), verdict, 1.0)]
    return {**got, "lam_T_ok": sides[2] == "pass", "rows": rows, "passed": all_pass(rows)}


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
    dts, start, k = [], 0.0, 0
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
    """A coupled run; the per-path arrays hold its K paths alive at the end,
    in path order, and box_exit flags the others."""
    cfg: CouplingConfig
    r: float                      # |x - y| of the start points
    sample_times: np.ndarray      # (n_s,)
    A: np.ndarray                 # (K, n_s) int v.dW at sample times
    B: np.ndarray                 # (K, n_s) int |v|^2 dt
    eps_times: np.ndarray
    dist_at_eps: np.ndarray       # (K, n_eps)
    final_X: np.ndarray           # (K, d) at T - stop gap
    final_Y: np.ndarray
    glued: np.ndarray             # (K,) coalesced by the end
    box_exit: np.ndarray          # (n_paths,) frozen: left the box or turned non-finite
    nonfinite_rows: int           # box_exit rows frozen as non-finite
    trunc_events: int
    clip_events: int
    total_events: int
    n_steps: int
    draws: int                    # Philox lanes the run paid for (see simulate_pairs)
    workers: int                  # processes its batch ran on (1: in-process)

    def counters(self) -> dict:
        """The run's event counts, summed from its task partials, the
        Philox lanes it drew and the worker processes it used; report.json
        carries them as metrics."""
        return {"trunc_events": self.trunc_events,
                "clip_events": self.clip_events,
                "total_events": self.total_events,
                "box_exit_rows": int(self.box_exit.sum()),
                "nonfinite_rows": self.nonfinite_rows,
                "draws": self.draws,
                "workers": self.workers}

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


def decide(lhs: float, rhs: float, slack: float, scale: float = 1.0,
           noise: float = 0.0, cap: float | None = None) -> tuple[str, float]:
    """The one verdict rule: (verdict, threshold) for the claim lhs <= rhs.

    The threshold is verdict_threshold(lhs, rhs, slack, scale).  A nan
    slack (the SE of one sample is nan) gives "inconclusive" whatever lhs
    is, and so, with a cap, does a noise level that is not <= cap;
    otherwise the verdict is "pass" iff lhs <= threshold, else "fail".
    """
    thr = verdict_threshold(lhs, rhs, slack, scale)
    if math.isnan(slack) or (cap is not None and not noise <= cap):
        return "inconclusive", thr
    return ("pass" if lhs <= thr else "fail"), thr


def _exp_stats(logw: np.ndarray, vals=None) -> tuple[float, float]:
    """Mean and SE of exp(logw)*vals, max-shifted so the sum cannot
    overflow; one sample has no SE, nan."""
    n = logw.size
    m = float(logw.max())
    z = np.exp(logw - m)
    if vals is not None:
        z = z * np.asarray(vals, dtype=float)
    sd = float(z.std(ddof=1)) if n > 1 else math.nan
    return math.exp(m) * float(z.mean()), math.exp(m) * sd / math.sqrt(n)


def _sigma_inverse(s: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a (N, d, d) stack, d in {1, 2}: 1/s or the adjugate
    over the determinant; a singular or non-finite row gives a non-finite row,
    so call it under an errstate that ignores divide, over and invalid."""
    if s.shape[-1] == 1:
        return 1.0 / s
    a, b, c, e = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1]
    return np.stack([np.stack([e, -b], axis=-1), np.stack([-c, a], axis=-1)],
                    axis=-2) / (a * e - b * c)[:, None, None]


def _pair_block_steps(pair, x0, y0, cfg, grid, normals):
    """Advance the paths of a run on their normals, step-major (n_steps,
    width, d); normals is only read, so runs may share one draw.  A pair's
    step tables are built here, one sde.TABLE_BLOCK block at a time.

    Every quantity the step computes goes into a buffer allocated once per
    range, D doubling as the drift g and then as the correction corr; only
    the stepper, sigma's inverse, the 2-d row norms and the rare branches
    (truncation, clip, exit) allocate.  X and Y, the halves of the
    stepper's input, are stepped together, X + b dt + s dW with corr
    added into the Y half of b dt's buffer first, into a second buffer
    after the last read of the stepper's output, which may be that input,
    and that buffer is swapped in.  A constant sigma (a stride-0 view, as
    fields.constant_sigma gives) is taken as its one matrix: inverted
    once per step, not per row, and s dW is formed once for both copies.
    A row is idle once glued or frozen.

    A row is frozen when its stepped X or Y fails sde.in_box (out of the
    doubled box, or not finite: a non-finite u, from a singular X sigma
    say, makes Y's step so).  It is flagged in alive and counted at that
    step, a non-finite one with no truncation or clip event, and the part
    names its lowest.  It steps on, idle, and is never read again: the
    run's finish leaves it out of every estimator."""
    n_steps, width, d = normals.shape
    sqdt = np.sqrt(grid.dts)
    state = np.repeat(np.array([x0, y0], dtype=float), width, axis=0)  # X rows, Y rows
    stepped, inc = np.empty_like(state), np.empty_like(state)
    X, Y = state[:width], state[width:]
    dW, D, u = (np.empty((width, d)) for _ in range(3))
    dist, r = np.empty(width), np.empty(width)    # r: damping, |u|, step length
    ok2 = np.empty(2 * width, dtype=bool)
    act, idle, over, overshoot, ok, out = (np.empty(width, dtype=bool)
                                           for _ in range(6))
    glued, alive = np.zeros(width, dtype=bool), np.ones(width, dtype=bool)
    A, B = np.zeros(width), np.zeros(width)
    nonfinite, first = 0, None    # first: the lowest frozen row, when, if non-finite
    A_rec = np.empty((width, grid.sample_idx.size))
    B_rec = np.empty((width, grid.sample_idx.size))
    dist_rec = np.empty((width, grid.eps_idx.size))
    sample_pos = {int(i): j for j, i in enumerate(grid.sample_idx)}
    eps_pos = {int(i): j for j, i in enumerate(grid.eps_idx)}
    floor = DIST_FLOOR_COEFF * (1.0 + float(np.linalg.norm(x0 - y0)))
    power, limit = 2.0 - 2.0 * cfg.alpha, 2.0 * cfg.L
    trunc = clip = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, table in enumerate(_step_tables(pair, grid.ts[:-1])):
            t, dt = grid.ts[k], grid.dts[k]
            np.multiply(normals[k], sqdt[k], out=dW)
            b, s = pair.step_eval(t, state, table)
            # X's and Y's sigma, or the one sigma of every row if it is constant
            sXY = s[None, :1] if s.strides[0] == 0 else s.reshape(2, width, d, d)
            sXi = _sigma_inverse(sXY[0])  # only the X copy's inverse enters u
            np.subtract(X, Y, out=D)
            _row_norm(D, out=dist)
            glued |= np.less(dist, floor, out=act)  # act is set on the next line
            np.greater(alive, glued, out=act)       # alive and not glued
            np.logical_not(act, out=idle)
            if power:
                np.power(dist, power, out=r)
                np.minimum(r, 1.0, out=r)
                np.multiply(r, grid.eta_vals[k], out=r)
                np.divide(D, r[:, None], out=D)
            else:       # alpha = 1: dist ** 0.0 is 1.0 for every dist, NaN included
                np.divide(D, grid.eta_vals[k], out=D)
            _matvec(sXi, D, out=u)
            _row_norm(u, out=r)
            np.greater(r, N_TRUNC, out=over)
            if over.any():
                trunc += int((over & act).sum())
                u[over] *= (N_TRUNC / r[over])[:, None]
            corr = _matvec(sXY[-1], u, out=D)
            np.multiply(_row_norm(corr, out=r), dt, out=r)
            np.greater(r, dist, out=overshoot)
            overshoot &= act
            if overshoot.any():
                clip += int(overshoot.sum())
                scale = dist[overshoot] / r[overshoot]
                u[overshoot] *= scale[:, None]
                corr[overshoot] *= scale[:, None]
            # idle rows' weights stand still; corr needs no mask: Y is X's or unread
            np.copyto(u, 0.0, where=idle[:, None])
            np.multiply(b[:width], dt, out=inc[:width])
            np.add(b[width:], corr, out=inc[width:])
            inc[width:] *= dt
            np.add(state, inc, out=stepped)
            halves = stepped.reshape(2, width, d)
            np.add(halves, _matvec(sXY, dW, out=inc.reshape(2, width, d)[:len(sXY)]),
                   out=halves)
            np.copyto(stepped[width:], stepped[:width], where=glued[:, None])
            in_box(stepped, limit, out=ok2, work=inc)
            np.logical_and(ok2[:width], ok2[width:], out=ok)
            if np.greater(alive, ok, out=out).any():   # alive and not ok
                bad = out & ~np.isfinite(halves).all(axis=(0, 2))
                i = int(np.argmax(out))
                if first is None or i < first[0]:
                    first = (i, grid.ts[k + 1], bool(bad[i]))
                nonfinite += int(bad.sum())
                trunc -= int((over & act & bad).sum())
                clip -= int((overshoot & bad).sum())
            state, stepped = stepped, state
            X, Y = state[:width], state[width:]
            alive &= ok
            A += _row_dot(u, dW, out=r)
            B += np.multiply(_row_dot(u, u, out=r), dt, out=r)
            j = sample_pos.get(k + 1)
            if j is not None:
                A_rec[:, j] = A
                B_rec[:, j] = B
            j = eps_pos.get(k + 1)
            if j is not None:
                _row_norm(np.subtract(X, Y, out=D), out=dist_rec[:, j])
    return {"A": A_rec, "B": B_rec, "dist": dist_rec, "X": X, "Y": Y, "glued": glued,
            "alive": alive, "nonfinite": nonfinite, "first": first, "trunc": trunc,
            "clip": clip, "events": width * n_steps}


def _advance_pair_block(pair, x0, y0, cfg, grid, seed, block_index, width):
    """A run's first width paths of a Philox block, own draw (spans.py wraps it)."""
    start = block_index * _rng.BLOCK
    normals = _rng.lane_normals(seed, start, start + width, grid.dts.size, pair.d)
    return _pair_block_steps(pair, x0, y0, cfg, grid, normals)


def _pair_ensemble(name, pair, x, y, cfg, grid, seed) -> Ensemble:
    """One checked run as an sde.Ensemble, whose result is its
    CouplingResult; it fails if its frozen rows exceed BOX_EXIT_LIMIT."""

    def advance(normals):
        return _pair_block_steps(pair, x, y, cfg, grid, normals)

    def finish(parts, draws, procs):
        alive = np.concatenate([q["alive"] for q in parts])
        frac = float((~alive).mean())
        if frac > BOX_EXIT_LIMIT:
            i = int(np.argmax(~alive))
            # parts are in path order, so path i is the first row a part names
            _, t, nf = next(q["first"] for q in parts if q["first"])
            raise RuntimeError(
                f"{name}: coupling box exit rate {frac:.1%} exceeds "
                f"{BOX_EXIT_LIMIT:.0%}; " + ("non-finite rows count as exits" if nf
                else "enlarge L or move the start points inward") + f"; first "
                f"exited path {i} at t={t:.6g}{' (non-finite)' * nf}")
        cat = {k: np.concatenate([q[k][q["alive"]] for q in parts])
               for k in ("A", "B", "dist", "X", "Y", "glued")}
        return CouplingResult(
            cfg=cfg, r=float(np.linalg.norm(x - y)),
            sample_times=grid.ts[grid.sample_idx], A=cat["A"], B=cat["B"],
            eps_times=grid.eps_times, dist_at_eps=cat["dist"],
            final_X=cat["X"], final_Y=cat["Y"], glued=cat["glued"],
            box_exit=~alive, nonfinite_rows=sum(q["nonfinite"] for q in parts),
            trunc_events=sum(q["trunc"] for q in parts),
            clip_events=sum(q["clip"] for q in parts),
            total_events=sum(q["events"] for q in parts),
            n_steps=grid.dts.size, draws=draws, workers=procs)

    return Ensemble(seed, pair.d, grid.dts.size, cfg.n_paths, advance, finish)


def pair_ensembles(runs) -> list[Ensemble]:
    """The coupled runs, each (pair, x, y, cfg, seed), as sde.Ensembles for
    sde.run_ensembles; every run is checked here, before any is stepped.
    Each task builds a pair's step tables (_pair_block_steps).  Runs
    with the same seed share their draws, and a run with fewer paths
    takes the leading rows it has."""
    out = []
    for i, (pair, x, y, cfg, seed) in enumerate(runs):
        x, y = (np.asarray(v, dtype=float).reshape(pair.d) for v in (x, y))
        name = f"run {i} (seed {seed}, x={x.tolist()}, y={y.tolist()})"
        if max(np.abs(x).max(), np.abs(y).max()) > 0.5 * cfg.L:
            raise ValueError(f"{name}: start points must lie in the inner"
                             f" half of the box, |x|, |y| <= 0.5 L = {0.5 * cfg.L:g}")
        out.append(_pair_ensemble(name, pair, x, y, cfg,
                                  build_coupling_grid(cfg), seed))
    return out


def simulate_pairs(runs) -> list[CouplingResult]:
    """Coupled ensembles of the runs, each (pair, x, y, cfg, seed), from
    one pool call (sde.run_ensembles).  Every run is checked before any is
    stepped, and every result is bit-identical to a run made alone, at any
    worker count."""
    return run_ensembles(pair_ensembles(runs))


def simulate_pair(pair: SdeModel, x, y, cfg: CouplingConfig,
                  seed: int) -> CouplingResult:
    """Coupled ensemble from (x, y); the correction and log R share one
    effective v per step, so the weights are exactly mean-one."""
    return simulate_pairs([(pair, x, y, cfg, seed)])[0]


# ---------------------------------------------------------------------------
# checks on a coupled ensemble


def verify_martingale(res: CouplingResult, drop_half_term: bool = False) -> dict:
    """E R_s = 1 within SE_SLACK SE at every sample time, both sides
    decided; worst_zscore is the largest |E R_s - 1| / SE (0 where the SE
    is 0, nan where it is nan).  drop_half_term is the negative control:
    weights without the -1/2 int |v|^2 term must fail."""
    stats = [_exp_stats(res.log_weights(j, drop_half_term))
             for j in range(res.sample_times.size)]
    verdict = joint_verdict(decide(a, b, SE_SLACK * se)[0] for m, se in stats
                            for a, b in ((m, 1.0), (1.0, m)))
    worst = max(abs(m - 1.0) / se if se != 0 else 0.0 for m, se in stats)
    return {"times": res.sample_times.tolist(), "means": [m for m, _ in stats],
            "ses": [se for _, se in stats], "worst_zscore": worst,
            "verdict": verdict, "passed": verdict == "pass",
            "rows": [CheckRecord("girsanov-worst-zscore", worst, verdict, SE_SLACK)]}


def verify_moment_bound(res: CouplingResult) -> dict:
    """sup_s E R_s^{1+gamma0} against the closed-form bound at the config's
    theta; equality holds exactly when x = y."""
    g0 = gamma0(res.cfg)
    lhs, se = max((_exp_stats((1.0 + g0) * res.log_weights(j))
                   for j in range(res.sample_times.size)), key=lambda s: s[0])
    rhs = moment_bound_rhs(res.cfg, res.r)
    verdict, thr = decide(lhs, rhs, SE_SLACK * (se / lhs if lhs > 0 else 0.0) * rhs)
    return {"gamma0": g0, "lhs": lhs, "rhs": rhs, "threshold": thr,
            "verdict": verdict, "passed": verdict == "pass",
            "rows": [CheckRecord("moment-lhs", lhs, verdict, threshold=thr)]}


def coalescence_report(res: CouplingResult) -> dict:
    """Median pair distance at T - eps for shrinking eps; the trend replaces
    the almost-sure coincidence at T, which no finite run can certify."""
    med = np.median(res.dist_at_eps, axis=0)
    eps = res.cfg.T - res.eps_times
    scale = COALESCENCE_SCALE * math.sqrt(eta(float(res.eps_times[-1]), res.cfg))
    decreasing = bool(np.all(np.diff(med) < 0))
    final = decide(float(med[-1]), scale, 0.0)[0]
    rows = [CheckRecord("coalescence-decreasing", float(decreasing),
                        pass_fail(decreasing), 1.0),
            CheckRecord("coalescence-final-median", float(med[-1]), final, scale)]
    return {"eps": eps.tolist(), "medians": med.tolist(), "decreasing": decreasing,
            "final_ok": final == "pass", "glued_fraction": float(res.glued.mean()),
            "rows": rows}


def truncation_rows(res: CouplingResult) -> list:
    """The share of Girsanov-integrand steps truncated at |u| = N_TRUNC."""
    return [CheckRecord("truncation-fraction", res.trunc_events / res.total_events,
                        pass_fail(res.trunc_events < TRUNC_LIMIT * res.total_events),
                        threshold=TRUNC_LIMIT)]


def _positive_values(i, f, res):
    """(label, f(Y_T), f(X_T)) for test function number i.  Every check
    takes log f or f^gamma, so f must be positive on both samples."""
    label = getattr(f, "__name__", f"f{i}")
    fY = np.asarray(f(res.final_Y), dtype=float)
    fX = np.asarray(f(res.final_X), dtype=float)
    if min(np.min(fY), np.min(fX)) <= 0:
        raise ValueError(f"test function {label} must be positive on the sample")
    return label, fY, fX


def verify_power_harnack(res: CouplingResult, fs) -> dict:
    """(E[R f(Y)])^gamma <= E[f^gamma(X)] exp{corrected cost} per test
    function, on a run at replace(cfg, theta=theta_for_gamma(cfg)), where
    the moment-bound route applies; the degenerate printed constant is
    recorded next to the corrected one."""
    cfg = res.cfg
    if cfg.gamma is None:
        raise ValueError("power-Harnack check needs cfg.gamma")
    expo = power_harnack_exponent(cfg, res.r)
    th = expo["theta"]
    if cfg.theta != th:
        raise ValueError(f"power-Harnack run needs theta = {th!r}, got {cfg.theta!r}")
    logR = res.log_weights()
    g = cfg.gamma
    checks = []
    rows = [CheckRecord("harnack-gamma", g, "info"),
            CheckRecord("harnack-gamma-threshold", gamma_threshold(cfg), "info",
                        provenance="closed-form")]
    for i, f in enumerate(fs):
        label, fY, fX = _positive_values(i, f, res)
        base, base_se = _exp_stats(logR, fY)
        lhs = base ** g
        rel_lhs = g * base_se / base
        fxg = fX ** g
        rhs_mean = float(fxg.mean())
        # one sample has no SE: nan, which decide reads as inconclusive
        rel_rhs = (float(fxg.std(ddof=1)) / math.sqrt(fxg.size) / rhs_mean
                   if fxg.size > 1 else math.nan)
        rhs = rhs_mean * math.exp(expo["corrected"])
        combined = math.hypot(rel_lhs, rel_rhs)
        # lhs = base**g carries g times the relative rounding of base
        verdict, thr = decide(lhs, rhs, SE_SLACK * combined * rhs, scale=g,
                              noise=combined, cap=SE_REL_CAP)
        checks.append({"lhs": lhs, "rhs": rhs, "combined_rel_se": combined,
                       "verdict": verdict})
        rows.append(CheckRecord(f"power-harnack-{label}", lhs, verdict, threshold=thr))
    rows.append(CheckRecord("power-exponent-corrected", expo["corrected"], "info",
                            provenance="closed-form"))
    return {"checks": checks, "exponent": expo, "theta": th, "rows": rows,
            "passed": all_pass(rows)}


def verify_log_harnack(res: CouplingResult, fs, kappa1: float,
                       k1_hat: float) -> dict:
    """E[R log f(Y)] <= log E[f(X)] + k1_hat |x-y|^2/(kappa1 T) per function,
    with k1_hat calibrated elsewhere and frozen; one row per function."""
    logR = res.log_weights()
    quad = k1_hat * res.r ** 2 / (kappa1 * res.cfg.T)
    checks, rows = [], []
    for i, f in enumerate(fs):
        label, fY, fX = _positive_values(i, f, res)
        lhs, lhs_se = _exp_stats(logR, np.log(fY))
        mx = float(fX.mean())
        mx_se = (float(fX.std(ddof=1)) / math.sqrt(fX.size) if fX.size > 1
                 else math.nan)
        rhs = math.log(mx) + quad
        # both terms are absolute uncertainties in log units; lhs itself may
        # sit near zero, so a relative cap would be meaningless
        combined_abs = math.hypot(lhs_se, mx_se / mx)
        verdict, thr = decide(lhs, rhs, SE_SLACK * combined_abs,
                              noise=combined_abs, cap=LOG_SE_CAP)
        checks.append({"lhs": lhs, "rhs": rhs, "verdict": verdict})
        rows.append(CheckRecord(f"log-harnack-{label}", lhs, verdict, threshold=thr))
    return {"checks": checks, "rows": rows, "passed": all_pass(rows)}


def calibrate_k1(res: CouplingResult, fs, kappa1: float) -> dict:
    """Smallest constant making the log-Harnack bound hold on a calibration
    run, inflated by a safety factor and then frozen for grid runs."""
    if res.r <= 0:
        raise ValueError("calibration needs x != y")
    # at k1_hat = 0 each check's rhs is log E[f(X)], so lhs - rhs is the
    # gap the quadratic cost has to cover
    needed = max((c["lhs"] - c["rhs"]) * kappa1 * res.cfg.T / res.r ** 2
                 for c in verify_log_harnack(res, fs, kappa1, 0.0)["checks"])
    k1_hat = K1_SAFETY * max(needed, 0.01)
    return {"k1_hat": k1_hat, "rows": [CheckRecord("log-harnack-k1", k1_hat, "info",
                                                   provenance="fit")]}
