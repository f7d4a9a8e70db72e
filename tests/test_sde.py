"""Path-engine tests: reproducibility, closed-form SDE oracles, and
occupation functionals against exact mixed norms.

Statistical asserts run at fixed seeds, so they are deterministic fixtures:
tolerances are 3-sigma scale but the outcomes never fluctuate between runs.
"""

import math
import tracemalloc

import numpy as np
import pytest

from zvlab import parallel
from zvlab import rng as zrng
from zvlab import sde
from zvlab.coupling import CouplingConfig, simulate_pair
from zvlab.fields import (CoefficientSet, GridSpec, NormSpec,
                          constant_sigma, trapezoid_weights)
from zvlab.sde import (SdeModel, SimSpec, bump_family_report, bump_family_stat,
                       integrate, integrate_stat, interval_bump,
                       krylov_estimate, krylov_stat, original_model, run_stats,
                       transform_consistency, transformed_model)
from zvlab.scenarios import get_scenario
from zvlab.zvonkin import ZvonkinMap, build_zvonkin

SIG1 = constant_sigma(np.array([[1.0]]))


def row_verdicts(ens):
    return {r.check_id: r.verdict for r in ens.rows}


def brownian_model():
    return SdeModel(d=1, drift=lambda t, x: np.zeros_like(x), sigma=SIG1)


def test_path_regeneration_bit_exact():
    # path i lives in lane i % BLOCK of block i // BLOCK; a draw just wide
    # enough to reach that lane regenerates it bit for bit
    seed = 42
    full = zrng.block_normals(seed, 0, 50, 1)
    assert full.shape == (zrng.BLOCK, 50, 1)
    for i in (0, 1, 777, 8191):
        lane = zrng.block_normals(seed, i // zrng.BLOCK, 50, 1, width=i + 1)[i]
        assert np.array_equal(lane, full[i])
    # path 8192 lives in block 1, lane 0, and differs from block 0's lane 0
    lane0 = zrng.block_normals(seed, 1, 50, 1, width=1)[0]
    assert np.array_equal(lane0, zrng.block_normals(seed, 1, 50, 1)[0])
    assert not np.array_equal(lane0, full[0])
    # narrow draws are bit-identical prefixes of the full block draw, and a
    # width beyond BLOCK is capped at it
    assert np.array_equal(zrng.block_normals(seed, 0, 50, 1, width=7), full[:7])
    assert np.array_equal(zrng.block_normals(seed, 0, 50, 1,
                                             width=zrng.BLOCK + 5), full)


@pytest.mark.parametrize("d", [1, 2])
def test_lane_normals_are_block_lanes_step_major(d):
    # a range of paths drawn in chunks, step-major, is the matching slice
    # of the block draws, also where it starts or ends inside a block or a
    # chunk, or crosses a block boundary
    seed, n_steps, B = 42, 3, zrng.BLOCK
    lanes = np.concatenate([zrng.block_normals(seed, b, n_steps, d)
                            for b in range(3)])
    c = zrng.LANE_CHUNK
    for start, stop in [(0, 5), (0, B), (c - 1, c + 1), (100, B + 300),
                        (B - 1, B + 1), (B, 2 * B + 5), (B + 7, 2 * B - 7),
                        (5, 2 * B + 3)]:
        got = zrng.lane_normals(seed, start, stop, n_steps, d)
        assert got.shape == (n_steps, stop - start, d) and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(
            lanes[start:stop].transpose(1, 0, 2)).tobytes(), (start, stop)


@pytest.mark.parametrize("d", [1, 2])
def test_lane_normals_at_several_step_counts_equal_separate_draws(d):
    # one pass at the largest count gives each count's lanes bit for bit as
    # a draw at that count alone, in views of one allocation: counts where
    # neither divides the other, so a chunk of the pass ends inside a lane
    # of each smaller count, and ranges that start inside a block or a
    # chunk or straddle a block boundary
    seed, B, c = 9, zrng.BLOCK, zrng.LANE_CHUNK
    for counts in [(7, 5), (13, 6, 10)]:
        for start, stop in [(0, 5), (c - 1, 3 * c + 2), (B - 40, B + 300),
                            (B + 7, 2 * B - 7)]:
            got = zrng.lane_normals(seed, start, stop, counts, d)
            assert len(got) == len(counts)
            assert all(g.base is got[0].base is not None for g in got)
            for n, g in zip(counts, got):
                ref = zrng.lane_normals(seed, start, stop, n, d)
                assert g.shape == ref.shape and g.tobytes() == ref.tobytes(), (
                    counts, n, start, stop)


@pytest.mark.parametrize("d", [1, 2])
def test_lane_normals_cut_each_count_to_its_own_stop(d):
    # with one stop per count, each count's array holds only its own rows,
    # bit for bit the block_normals lanes at that count, also where the
    # largest count stops before a smaller one
    seed, B, counts = 5, zrng.BLOCK, (7, 5, 3)
    lanes = {n: np.concatenate([zrng.block_normals(seed, b, n, d)
                                for b in range(2)]) for n in counts}
    for start, stops in [(0, (40, 9, 40)), (B - 40, (B + 300, B - 39, B + 2)),
                         (300, (301, 2 * B - 1, 900))]:
        got = zrng.lane_normals(seed, start, stops, counts, d)
        for n, stop, g in zip(counts, stops, got, strict=True):
            ref = np.ascontiguousarray(lanes[n][start:stop].transpose(1, 0, 2))
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes(), (
                n, start, stop)


@pytest.mark.parametrize("d", [1, 2])
def test_lane_tiles_are_block_lanes_as_the_stream_completes_them(d):
    # a task's tiles, drawn in one pass over the stream: each is bit for bit
    # its lanes of block_normals, at each of two counts with their own
    # stops, for a range that starts inside a block and inside a chunk and
    # spans three blocks, in tiles narrower and wider than a block.  A
    # count's tiles come in path order in one buffer, and the smaller
    # count's tile k completes before the larger count's
    seed, B, c = 8, zrng.BLOCK, zrng.LANE_CHUNK
    counts, start = (7, 5), B - 4 * c + 29
    cuts = [start, start + 300, B + 40, 2 * B + 90, 2 * B + 700]
    stops = (2 * B + 700, 2 * B + 95)
    lanes = {n: np.concatenate([zrng.block_normals(seed, b, n, d) for b in range(3)])
             for n in counts}
    seen, bases = [], {}
    for n, lo, z in zrng.lane_tiles(seed, cuts, stops, counts, d):
        hi = min(cuts[cuts.index(lo) + 1], stops[counts.index(n)])
        assert z.flags.c_contiguous and z.tobytes() == np.ascontiguousarray(
            lanes[n][lo:hi].transpose(1, 0, 2)).tobytes(), (n, lo)
        assert bases.setdefault(n, z.base) is z.base
        seen.append((n, lo))
    assert [lo for n, lo in seen if n == 7] == cuts[:-1]
    assert [lo for n, lo in seen if n == 5] == cuts[:-1]     # 2B + 90..2B + 95
    assert all(seen.index((5, lo)) < seen.index((7, lo)) for lo in cuts[:-1])
    assert bases[5] is bases[7]


def test_tile_cuts(monkeypatch):
    # the fewest near-equal tiles of at most the rows given and of normals
    # within PACK_BYTES: a 20,000-path one-process task in three tiles of at
    # most one Philox block, a range of one tile, and a range cut by bytes
    B = zrng.BLOCK
    assert parallel.tile_cuts(0, 20000, 20000 * 800, B) == [0, 6666, 13333, 20000]
    assert parallel.tile_cuts(100, 9100, 9000 * 800, 9000) == [100, 9100]
    monkeypatch.setattr(parallel, "PACK_BYTES", 3000 * 800)
    assert parallel.tile_cuts(100, 9100, 9000 * 800, 9000) == [100, 3100, 6100, 9100]
    assert parallel.tile_cuts(0, 9000, 9000 * 800, B) == [0, 3000, 6000, 9000]


def test_worker_count_invariance(monkeypatch):
    # 9000 paths are three row ranges at 3 workers, so the process pool is
    # actually exercised
    spec = SimSpec(T=1.0, n_steps=100, n_paths=9000, seed=9, L=6.0)
    model = SdeModel(d=1, drift=lambda t, x: -x, sigma=SIG1)
    results = []
    for w in ("1", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        results.append(integrate(model, np.array([0.2]), spec).terminal)
    assert np.array_equal(results[0], results[1])


def path_recorder():
    """A statistic that keeps the whole paths of the first model and its
    final alive mask, read through the engine's per-node hook."""

    def block(normals):
        nodes = []

        def step(k, X, alive):
            nodes.append(X[0].copy())

        return step, lambda X, alive: (np.stack(nodes, axis=1), alive[0].copy())

    return sde.BlockStat(block, lambda paths, alive: (paths, alive))


def test_path_bits_do_not_depend_on_other_escapes():
    # a path that stays in the box is bit-identical whether or not other
    # paths of its range escape: compare with the same paths in a box no
    # path leaves
    model = SdeModel(d=1, drift=lambda t, x: 0.9 * x + 0.37,
                     sigma=constant_sigma(np.array([[1.3]])))
    x0s = [np.array([0.0])]
    runs = [run_stats([model], x0s, SimSpec(T=1.0, n_steps=100, n_paths=4000,
                                            seed=5, L=L), [path_recorder()])[0]
            for L in (1.6, 1e6)]
    kept = runs[0][1]
    assert 100 < np.count_nonzero(~kept) < 2000
    assert runs[1][1].all()
    assert np.array_equal(runs[0][0][kept], runs[1][0][kept])
    # an escaped path is frozen at its first value outside the doubled box
    gone = runs[0][0][~kept, :, 0]
    first = np.argmax(np.abs(gone) > 3.2, axis=1)
    assert np.all(np.abs(gone[:, -1]) > 3.2)
    assert np.all(gone[np.arange(gone.shape[0]), first] == gone[:, -1])


def test_constant_paths_zero_coefficients():
    spec = SimSpec(T=1.0, n_steps=100, n_paths=64, seed=3, L=4.0)
    model = SdeModel(d=1, drift=lambda t, x: np.zeros_like(x),
                     sigma=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)))
    ens = integrate(model, np.array([0.7]), spec)
    assert np.all(ens.terminal == 0.7)
    assert ens.escape_fraction == 0.0


def test_brownian_terminal_variance_and_rng_sanity():
    spec = SimSpec(T=1.0, n_steps=200, n_paths=20_000, seed=11, L=10.0)
    ens = integrate(brownian_model(), np.array([0.0]), spec)
    v = ens.terminal[:, 0].var()
    se = v * math.sqrt(2.0 / (spec.n_paths - 1))
    assert abs(v - 1.0) <= 3 * se
    verdicts = row_verdicts(ens)
    for row in ("escape-fraction", "rng-increment-mean", "rng-increment-var"):
        assert verdicts[row] == "pass"


def test_increment_mean_bound_counts_every_increment(monkeypatch):
    # the increment mean is over n_paths * n_steps draws per axis, so its
    # 4-SE bound is 4 sqrt(h / (n_paths n_steps)).  A bias between that and
    # the sqrt(n_steps) looser 4 sqrt(h / n_paths) must fail the check
    spec = SimSpec(T=1.0, n_steps=200, n_paths=1000, seed=11, L=10.0)
    fair = integrate(brownian_model(), np.array([0.0]), spec)
    assert row_verdicts(fair)["rng-increment-mean"] == "pass"
    draw = zrng.lane_tiles
    monkeypatch.setattr(zrng, "lane_tiles", lambda *a, **k: (
        (n, lo, z + 0.05) for n, lo, z in draw(*a, **k)))
    ens = integrate(brownian_model(), np.array([0.0]), spec)
    mean = abs(ens.rng_report["increment_mean"][0])
    assert (4 * math.sqrt(spec.h / (spec.n_paths * spec.n_steps)) < mean
            <= 4 * math.sqrt(spec.h / spec.n_paths))
    assert row_verdicts(ens)["rng-increment-mean"] == "fail"
    assert row_verdicts(ens)["rng-increment-var"] == "pass"   # a shift leaves the variance


def test_one_pass_feeds_every_statistic(monkeypatch):
    # run_stats steps each row range once for all of its statistics, and
    # each result is bit-identical to a pass of its own (9000 paths: two
    # Philox blocks)
    spec = SimSpec(T=1.0, n_steps=100, n_paths=9000, seed=4, L=8.0)
    model, x0 = brownian_model(), np.array([0.1])
    ns = NormSpec(p=4, q=4, d=1)
    f, norm_fn = interval_bump(0.0, 0.1)
    f_norm = norm_fn(ns, 0.0, 1.0)
    widths = [0.05, 0.1, 0.2]
    ens0 = integrate(model, x0, spec)
    est0 = krylov_estimate(model, x0, spec, f, ns, f_norm=f_norm)
    fam0 = bump_family_report(model, x0, spec, ns, widths)
    # the spy appends in the process that steps the tile, so the tiles
    # run in this one: one task of all 9000 rows at one worker, stepped in
    # two tiles of at most one Philox block.  One pass per tile does not
    # depend on the worker count, and
    # test_run_stats_bits_do_not_depend_on_the_ranges covers that
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    ranges = []
    advance = sde._advance_block
    monkeypatch.setattr(sde, "_advance_block",
                        lambda *a: ranges.append(a[4]) or advance(*a))
    ens, est, fam = run_stats([model], [x0], spec, [
        integrate_stat(x0, spec), krylov_stat(spec, f, ns, f_norm=f_norm),
        bump_family_stat(spec, ns, widths)])
    assert ranges == [4500, 4500]
    assert np.array_equal(ens.terminal, ens0.terminal)
    assert np.array_equal(ens.escaped, ens0.escaped)
    assert ens.escape_fraction == ens0.escape_fraction
    for key in ("increment_mean", "increment_var"):
        assert np.array_equal(ens.rng_report[key], ens0.rng_report[key])
    assert est == est0
    assert fam == fam0


@pytest.mark.parametrize("pack", [None, 2000])
def test_run_stats_bits_do_not_depend_on_the_ranges(monkeypatch, pack):
    # 9000 paths, two Philox blocks, some of them escaped: every statistic
    # is byte-identical at 1, 2 and 3 workers, also with tiles and ranges
    # small enough that one straddles the block boundary.  One worker
    # steps one task in two tiles of 4500, 4500..9000 the second; pack
    # 2000 caps a tile's normals at 2000 rows' worth, so one worker steps
    # five tiles, 7200..9000 the last, and 3 workers six ranges of one
    # tile each, 7500..9000 the last
    if pack is not None:
        monkeypatch.setattr(parallel, "PACK_ROWS", pack)
        monkeypatch.setattr(parallel, "PACK_BYTES", pack * 100 * 8)
    spec = SimSpec(T=1.0, n_steps=100, n_paths=9000, seed=6, L=1.1)
    model = SdeModel(d=1, drift=lambda t, x: 0.8 * np.sin(3.0 * x) - 0.2 * x,
                     sigma=lambda t, x: (1.0 + 0.3 * np.cos(x))[..., None])
    x0, ns = np.array([0.2]), NormSpec(p=4, q=4, d=1)
    f, norm_fn = interval_bump(0.1, 0.2)
    tiles = []
    advance = sde._advance_block
    monkeypatch.setattr(sde, "_advance_block",
                        lambda *a: tiles.append(a[4]) or advance(*a))
    digests = []
    for w in ("1", "2", "3"):
        monkeypatch.setenv("ZVLAB_THREADS", w)
        ens, est, fam, (paths, alive) = run_stats([model], [x0], spec, [
            integrate_stat(x0, spec), krylov_stat(spec, f, ns, norm_fn(ns, 0.0, 1.0)),
            bump_family_stat(spec, ns, [0.05, 0.1, 0.2]), path_recorder()])
        digests.append((ens.terminal.tobytes(), ens.escaped.tobytes(),
                        repr(ens.rng_report), repr(est), repr(fam),
                        paths.tobytes(), alive.tobytes()))
    # the spy sees the tiles stepped in this process: the 1-worker run's
    assert tiles == ([4500] * 2 if pack is None else [1800] * 5)
    assert 0.01 < ens.escape_fraction < 0.2 and est["n_excluded"] > 0
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("workers", ["1", "3"])
def test_plain_statistics_sum_the_rows_whole(monkeypatch, workers):
    # additive-1d's plain pass at seed 1 on 20,000 paths: three Philox
    # blocks, the last one partial.  A statistic is numpy's one sum over
    # the concatenated kept rows, over their count, at any worker count;
    # here a sum per block, the block sums then added, gives other bits
    monkeypatch.setenv("ZVLAB_THREADS", workers)
    sc = get_scenario("additive-1d")
    spec = SimSpec(T=sc.grid.T, n_steps=sc.grid.m, n_paths=20000, seed=1,
                   L=sc.grid.L)
    x0, ns = np.array(sc.x0), NormSpec(p=4.0, q=16.0, d=1)
    f, norm_fn = interval_bump(0.0, 0.05)
    kry = krylov_stat(spec, f, ns, norm_fn(ns, 0.0, spec.T))
    ing = integrate_stat(x0, spec)
    rows = [sde.BlockStat(st.block, lambda *r: r) for st in (kry, ing)]
    est, ens, (acc, ok), (*_, sum_dw, sum_dw2) = run_stats(
        [original_model(sc.coeffs, 1)], [x0], spec, [kry, ing, *rows])
    kept = acc[ok]
    mean = kept.sum() / len(kept)
    assert est["estimate"] == mean
    assert est["se"] == math.sqrt(max(np.square(kept).sum() / len(kept) - mean ** 2,
                                      0.0) / len(kept))
    count = spec.n_paths * spec.n_steps
    assert ens.rng_report["increment_mean"] == sum_dw.sum(axis=0) / count
    assert ens.rng_report["increment_var"] == (sum_dw2.sum(axis=0) / count
                                               - (sum_dw.sum(axis=0) / count) ** 2)
    blocks = [kept[ok[:s].sum():ok[:s + zrng.BLOCK].sum()].sum()
              for s in range(0, spec.n_paths, zrng.BLOCK)]
    assert len(blocks) == 3 and (blocks[0] + blocks[1]) + blocks[2] != kept.sum()


def test_block_memory_stays_near_its_normals(monkeypatch):
    # one range of 8192 paths at 400 steps: the engine keeps the normals
    # (26.2 MB), the state and the alive mask, never whole paths or a copy
    # of the increments.  krylov adds per-row sums; bump-family keeps one
    # uint8 code per row and node
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    spec = SimSpec(T=1.0, n_steps=400, n_paths=8192, seed=3, L=4.0)
    x0, ns = np.array([0.1]), NormSpec(p=4, q=4, d=1)
    f, norm_fn = interval_bump(0.0, 0.05)
    f_norm = norm_fn(ns, 0.0, spec.T)
    normals_bytes = spec.n_paths * spec.n_steps * 8
    for stats, bound in [
            ([krylov_stat(spec, f, ns, f_norm)], 1.25),
            ([integrate_stat(x0, spec), krylov_stat(spec, f, ns, f_norm),
              bump_family_stat(spec, ns, [0.05, 0.1, 0.2])], 1.25)]:
        tracemalloc.start()
        try:
            run_stats([brownian_model()], [x0], spec, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * normals_bytes, (len(stats), peak / normals_bytes)


def test_bump_family_codes_match_the_float_compare():
    # bump-family keeps, per node, how many widths fail |X| <= w; that count
    # against each width's rank gives the bits of the float compare, also
    # for unsorted and repeated widths and for rows that turn NaN
    spec = SimSpec(T=1.0, n_steps=100, n_paths=3000, seed=8, L=2.0)
    model = SdeModel(d=1, drift=lambda t, x: np.where(x > 0.8, np.nan, 0.0),
                     sigma=SIG1)
    widths = [0.2, 0.05, 0.1, 0.05]
    stat = bump_family_stat(spec, NormSpec(p=4, q=4, d=1), widths)
    fam, (paths, alive) = run_stats([model], [np.array([0.1])], spec,
                                    [stat, path_recorder()])
    assert np.isnan(paths).any() and alive.any()
    weights = trapezoid_weights(spec.n_steps + 1, spec.h)
    r = np.abs(paths[..., 0])
    ref = stat.finish(alive, *(((r <= eps) * weights).sum(axis=1) / (2.0 * eps)
                               for eps in widths))
    assert repr(fam) == repr(ref)


def test_ou_terminal_variance_oracle():
    spec = SimSpec(T=1.0, n_steps=400, n_paths=40_000, seed=5, L=10.0)
    model = SdeModel(d=1, drift=lambda t, x: -x,
                     sigma=constant_sigma(np.array([[math.sqrt(2.0)]])))
    ens = integrate(model, np.array([0.0]), spec)
    v = ens.terminal[:, 0].var()
    target = 1.0 - math.exp(-2.0)
    se = v * math.sqrt(2.0 / (spec.n_paths - 1))
    assert abs(v - target) <= 3 * se


def test_escape_freezing_and_error_policy():
    # outward drift pushes everything through the wall -> hard error
    spec = SimSpec(T=1.0, n_steps=100, n_paths=256, seed=2, L=1.0)
    runaway = SdeModel(d=1, drift=lambda t, x: 50.0 * x, sigma=SIG1)
    with pytest.raises(RuntimeError, match="domain too small"):
        integrate(runaway, np.array([0.4]), spec)
    # marginal case: Brownian from 0.5 with the wall at 2 loses ~14% of
    # paths; they freeze at exit, stay finite, and raise the quality flag
    spec2 = SimSpec(T=1.0, n_steps=200, n_paths=512, seed=2, L=1.0)
    ens = integrate(brownian_model(), np.array([0.5]), spec2)
    assert 0.01 < ens.escape_fraction <= 0.20
    assert np.all(np.isfinite(ens.terminal))
    assert np.abs(ens.terminal[ens.escaped]).max() <= 2.0 + 4 * math.sqrt(spec2.h)
    assert row_verdicts(ens)["escape-fraction"] == "fail"


def test_escape_error_names_the_first_escaped_path(monkeypatch):
    # Brownian from 0.1 with the wall at 1.2 loses about 38 % of the paths;
    # the error names the lowest escaped path and the time of its first
    # node outside the box, which a walk of that path alone finds again
    spec = SimSpec(T=1.0, n_steps=100, n_paths=256, seed=3, L=0.6)
    monkeypatch.setattr(sde, "ESCAPE_ERROR", 1.0)
    first = int(np.argmax(integrate(brownian_model(), np.array([0.1]), spec).escaped))
    monkeypatch.undo()
    assert first > 0
    x, k = 0.1, 0
    dw = zrng.block_normals(spec.seed, 0, spec.n_steps, 1)[first, :, 0] * math.sqrt(spec.h)
    while abs(x) <= 2.0 * spec.L:
        x, k = x + dw[k], k + 1
    assert 1 < k < spec.n_steps
    with pytest.raises(RuntimeError,
                       match=f"domain too small.*; first escaped path {first} "
                             f"at t={k * spec.h:.6g}$"):
        integrate(brownian_model(), np.array([0.1]), spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_rows_count_as_escaped():
    # a drift that is NaN on a thin band turns the paths that step into it
    # into NaN rows; the engine freezes them as escaped, so the estimators
    # leave them out and count them, and krylov's f never sees them
    def drift(t, x):
        return np.where(np.abs(x - 0.7) < 1e-3, np.nan, 0.0)

    model = SdeModel(d=1, drift=drift, sigma=SIG1)
    spec = SimSpec(T=1.0, n_steps=200, n_paths=4000, seed=1, L=2.0)
    x0 = np.array([0.0])
    ens = integrate(model, x0, spec)
    ev, norm = interval_bump(0.0, 0.05)

    def inside_only(t, x):
        if not np.all(np.abs(x) <= 2.0 * spec.L):
            raise ValueError("f called on a frozen row")
        return ev(t, x)

    ns = NormSpec(p=4, q=4, d=1)
    rep = krylov_estimate(model, x0, spec, inside_only, ns,
                          f_norm=norm(ns, 0.0, spec.T))
    nan_rows = np.isnan(ens.terminal).any(axis=-1)
    assert nan_rows.sum() == 355
    assert np.all(ens.escaped[nan_rows])
    assert rep["n_excluded"] == ens.escaped.sum() == 356      # one left the box
    assert rep["n_used"] == spec.n_paths - 356
    assert np.isfinite(rep["estimate"])


def test_integrate_preconditions():
    model = brownian_model()
    with pytest.raises(ValueError, match="n_steps"):
        integrate(model, np.array([0.0]),
                  SimSpec(T=1.0, n_steps=50, n_paths=8, seed=1, L=4.0))
    with pytest.raises(ValueError, match="inner half"):
        integrate(model, np.array([3.5]),
                  SimSpec(T=1.0, n_steps=100, n_paths=8, seed=1, L=4.0))
    # a spec with no paths or no steps is refused up front, naming the value
    with pytest.raises(ValueError, match="n_paths must be >= 1, got -5"):
        SimSpec(T=1.0, n_steps=100, n_paths=-5, seed=1, L=4.0)
    with pytest.raises(ValueError, match="n_steps must be >= 1, got 0"):
        SimSpec(T=1.0, n_steps=0, n_paths=8, seed=1, L=4.0)


@pytest.mark.parametrize("name, value", [("T", 0.0), ("T", math.nan), ("T", math.inf),
                                         ("L", -1.0), ("L", math.nan)])
def test_sim_spec_rejects_out_of_range_horizon_and_box(name, value):
    # with L = -1 every row would freeze at step one and the run would fail
    # as "domain too small"; the spec is refused up front instead
    kw = dict(T=1.0, n_steps=100, n_paths=8, seed=1, L=4.0)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, "
                                         f"got {value}$"):
        SimSpec(**{**kw, name: value})


# ---------------------------------------------------------------------------
# transform consistency


def test_transform_consistency_identity_when_no_singular_part():
    grid = GridSpec(d=1, n=101, m=100, L=4.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b1=lambda t, x: -x, kappa1=0.5, kappa2=0.5)
    zm = build_zvonkin(cs, grid)
    rep = transform_consistency(zm, np.array([0.3]), [100, 200], 500, seed=17)
    assert max(rep["error"]) <= 1e-12


@pytest.fixture(scope="module")
def singular_map_small():
    def b0(t, x):
        r = x[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.where(np.abs(r) > 0,
                           0.5 * np.sign(r) * np.abs(r) ** -0.2, 0.0)
        return (mag * (np.abs(r) <= 1.0))[..., None]

    grid = GridSpec(d=1, n=201, m=200, L=2.0, T=1.0)
    cs = CoefficientSet(sigma=SIG1, b0=b0, kappa1=0.5, kappa2=0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        return build_zvonkin(cs, grid)


def test_transform_consistency_singular_decreases(singular_map_small):
    rep = transform_consistency(singular_map_small, np.array([0.2]),
                                [100, 200, 400], 2000, seed=23)
    assert rep["decreasing"], rep
    assert rep["slope"] >= 0.25, rep
    # the doubled box swallows all but a Gaussian-tail sliver of paths
    assert max(rep["excluded"]) <= 0.01 * 2000


def test_transform_consistency_builds_each_step_table_once(monkeypatch,
                                                          singular_map_small):
    # the transformed model's step tables are built by the task, not once
    # per stepper call: at two levels of 9000 paths (two Philox blocks, one
    # task each, stepped in two tiles of 4500 paths), one step_tables call
    # per block of TABLE_BLOCK step times, in order, so each table is built
    # once per tile and a block at a time
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    built = []
    orig = ZvonkinMap.step_tables

    def spy(self, ts):
        built.append(list(ts))
        return orig(self, ts)

    monkeypatch.setattr(ZvonkinMap, "step_tables", spy)
    transform_consistency(singular_map_small, np.array([0.2]), [100, 200],
                          9000, seed=23)
    assert built == [[k * (1.0 / n) for k in range(i, min(i + sde.TABLE_BLOCK, n))]
                     for n in (100, 200) for _ in range(2)
                     for i in range(0, n, sde.TABLE_BLOCK)]


def test_engines_run_on_a_read_only_sigma(singular_map_small):
    # constant_sigma gives a read-only view, not a copy per call: both
    # engines and the transformed stepper only read a model's sigma (a
    # write into it would raise)
    s = SIG1(0.0, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="read-only"):
        s[0] = 2.0
    zm = singular_map_small
    rep = transform_consistency(zm, np.array([0.2]), [25, 50], 300, seed=4)
    assert np.isfinite(rep["error"]).all()
    cfg = CouplingConfig(T=1.0, m=20, n_paths=300, L=2.0, K_T=1.0,
                         delta_T=1.0, lam_T=1.0)
    for pair in (transformed_model(zm), SdeModel(d=1, drift=lambda t, x: -x,
                                                 sigma=SIG1)):
        res = simulate_pair(pair, [0.25], [-0.25], cfg, seed=3)
        assert np.isfinite(res.A).all() and res.box_exit.sum() == 0


# ---------------------------------------------------------------------------
# occupation functionals


def test_krylov_zero_function_and_range_error():
    spec = SimSpec(T=1.0, n_steps=100, n_paths=64, seed=7, L=4.0)

    def zero(t, x):
        return np.zeros(x.shape[0])

    ns = NormSpec(p=4, q=4, d=1)
    rep = krylov_estimate(brownian_model(), np.array([0.0]), spec, zero, ns,
                          f_norm=1.0)
    assert rep["estimate"] == 0.0 and rep["se"] == 0.0
    assert rep["ratio"] == 0.0
    with pytest.raises(ValueError, match="admissible"):
        krylov_estimate(brownian_model(), np.array([0.0]), spec, zero,
                        NormSpec(p=1.05, q=1.05, d=1), f_norm=1.0)


def test_brownian_local_time_oracle():
    # E int_0^1 1_{|W|<=eps}/(2 eps) dt -> E L_1^0 = sqrt(2/pi); the finite
    # band averages E L_1^a over |a|<=eps, pulling the target down ~3%
    spec = SimSpec(T=1.0, n_steps=2000, n_paths=10_000, seed=29, L=8.0)
    ns = NormSpec(p=4, q=4, d=1)
    f, norm_fn = interval_bump(0.0, 0.05)
    rep = krylov_estimate(brownian_model(), np.array([0.0]), spec, f, ns,
                          f_norm=norm_fn(ns, 0.0, 1.0))
    target = math.sqrt(2.0 / math.pi)
    assert abs(rep["estimate"] - target) <= 0.08 * target
    assert rep["f_norm"] == pytest.approx(0.1 ** -0.75)
    assert rep["ratio"] == pytest.approx(rep["estimate"] / rep["f_norm"])


def test_bump_family_ratios_bounded():
    spec = SimSpec(T=1.0, n_steps=1000, n_paths=10_000, seed=31, L=8.0)
    ns = NormSpec(p=4, q=4, d=1)
    widths = [0.05 * 2 ** (j / 2.0) for j in range(5)]
    rep = bump_family_report(brownian_model(), np.array([0.0]), spec, ns, widths)
    assert rep["passed"]
    assert rep["max_over_median"] <= 3.0
    # ratios scale like eps^{1-1/p}: wider bumps give larger ratios
    assert np.all(np.diff(rep["ratios"]) > 0)


def test_transformed_model_stepper_matches_plain_evaluators(singular_map_small):
    zm = singular_map_small
    model = transformed_model(zm)
    y = np.linspace(-1.2, 1.2, 33)[:, None]
    b_step, s_step = model.step_eval(0.3, y, None)
    b_plain, s_plain = zm.transformed(0.3, y)
    assert np.abs(b_step - b_plain).max() <= 1e-8
    assert np.abs(s_step - s_plain).max() <= 1e-8
