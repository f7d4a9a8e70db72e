"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the public functions of each zvlab layer from outside
the package: nothing under src/ is edited.  A name that a module imports
from another is patched in every module that calls it, so the wrapper is
the one actually reached.  Wrappers hand back the wrapped function's
outputs unchanged and draw no random numbers, so a traced job's CSV must
equal an untraced one's (the runner checks this).

A span is [id, parent, name, start, end, thread, run_id, counts].  Spans
stay in memory until the run ends.  A task run by parallel.run_tasks gets
the submitting span as its parent, also when it runs on a pool thread.
Self time is a span's duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# Per-layer metrics of one traced job, with units.  BENCHMARK.json lists
# the same names (a self-test checks it).
CLI_STAGES = ("build-transform", "simulate", "krylov", "couple", "harnack",
              "full-pipeline")
LAYER_METRICS = {
    "fields.interp_space.calls": "count",
    "fields.interp_space.points": "count",
    "fields.interp_space.s": "s",
    "fields.interp_space.clamped": "count",
    "zvonkin.invert.calls": "count",
    "zvonkin.invert.points": "count",
    "zvonkin.invert.s": "s",
    "zvonkin.invert.iters_mean": "count",
    "zvonkin.invert.iters_max": "count",
    "zvonkin.invert.escaped_points": "count",
    "zvonkin.grad_phi_at.s": "s",
    "zvonkin.build.s": "s",
    "zvonkin.ladder_rungs": "count",
    "zvonkin.lipschitz_sup.s": "s",
    "zvonkin.certificates.s": "s",
    "coupling.step_eval.calls": "count",
    "coupling.step_eval.rows": "count",
    "coupling.step_eval.s": "s",
    "coupling.step_eval.useful_frac": "ratio",
    "coupling.block.s": "s",
    "coupling.simulate_pair.calls": "count",
    "coupling.path_steps": "count",
    "coupling.trunc_events": "count",
    "coupling.box_exit_frac": "ratio",
    "parallel.tasks": "count",
    "parallel.task.busy_s": "s",
    "parallel.task.wait_s": "s",
    "parallel.utilization": "ratio",
    "rng.block_normals.calls": "count",
    "rng.block_normals.s": "s",
    "rng.block_normals.mb_computed": "MB",
    "pde.solve_phi_system.calls": "count",
    "pde.solve_phi_system.s": "s",
    "pde.bicgstab.calls": "count",
    "pde.bicgstab.iters": "count",
    "pde.bicgstab.s": "s",
    "sde.step_eval.calls": "count",
    "sde.step_eval.rows": "count",
    "sde.step_eval.s": "s",
    "sde.block.s": "s",
    "sde.path_steps": "count",
    "cli.main.s": "s",
    **{f"cli.stage.{name}.s": "s" for name in CLI_STAGES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans of one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.local = threading.local()    # current span, and the pair box
        self._ids = itertools.count(1)

    def current(self) -> int:
        return getattr(self.local, "span", 0)

    def call(self, name, fn, args, kwargs, counts=None, parent=None):
        """fn(*args, **kwargs) as a span; counts(out, *args, **kwargs) gives
        the span's counters."""
        sid = next(self._ids)
        prev = self.current()
        self.local.span = sid
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.local.span = prev
        self.spans.append([sid, prev if parent is None else parent, name, t0,
                           t1, threading.get_ident(), self.run_id,
                           counts(out, *args, **kwargs) if counts else None])
        return out


def _rows(x, d) -> int:
    return int(np.size(x)) // d


def _patches(rec: Recorder) -> list:
    """(owner, attribute, replacement) for every wrapped name."""
    import scipy.sparse.linalg as sla
    from zvlab import cli, coupling, fields, parallel, pde, rng, sde, zvonkin

    out = []

    def original(owners, attr):
        orig = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} is not "
                                   f"{owners[0].__name__}.{attr}")
        return orig

    def patch(owners, attr, name, counts=None):
        orig = original(owners, attr)

        @wraps(orig)
        def wrapper(*args, **kwargs):
            return rec.call(name, orig, args, kwargs, counts)

        out.extend((owner, attr, wrapper) for owner in owners)

    patch([rng], "block_normals", "rng.block_normals",
          lambda o, *a, **k: {"mb": o.nbytes / 1e6})
    patch([fields], "interp_space", "fields.interp_space",
          lambda o, grid, vals, x: {"points": _rows(x, grid.d), "clamped": o[1]})

    def invert_counts(o, zm, t, y, *a, **k):
        x = np.atleast_2d(o[0])
        return {"points": _rows(y, zm.grid.d), "iters": o[1],
                "escaped": int(np.count_nonzero(
                    np.abs(x).max(axis=-1) > 2.0 * zm.grid.L))}

    patch([zvonkin.ZvonkinMap], "invert", "zvonkin.invert", invert_counts)
    patch([zvonkin.ZvonkinMap], "grad_phi_at", "zvonkin.grad_phi_at")
    patch([zvonkin, cli], "build_zvonkin", "zvonkin.build",
          lambda o, *a, **k: {"rungs": len(o.trace)})
    patch([zvonkin], "interp_lipschitz_sup", "zvonkin.lipschitz_sup")
    for attr in ("bilipschitz_certificate", "roundtrip_certificate",
                 "ellipticity_certificate", "transformed_constants"):
        patch([zvonkin, cli], attr, "zvonkin.certificates")
    patch([pde, zvonkin, cli], "solve_phi_system", "pde.solve_phi_system")
    patch([sde.SdeModel], "step_eval", "sde.step_eval",
          lambda o, model, t, X, state: {"rows": len(X)})
    patch([sde], "_advance_block", "sde.block",
          lambda o, models, x0s, spec, bi, width:
          {"path_steps": width * spec.n_steps * len(models)})

    # useful rows are those inside the doubled box, counted only for the
    # pair engine's blocks (h5_certificate also evaluates the pair)
    def pair_step_counts(o, pair, t, X, state):
        box = getattr(rec.local, "box", None)
        inside = None if box is None else int(np.count_nonzero(
            np.abs(X).max(axis=-1) <= box))
        return {"rows": len(X), "inside": inside}

    patch([coupling.CoupledSde], "step_eval", "coupling.step_eval",
          pair_step_counts)
    patch([coupling, cli], "simulate_pair", "coupling.simulate_pair")
    patch([cli], "main", "cli.main")

    # a pair block's step evaluations count rows against its doubled box
    orig_block = coupling._advance_pair_block

    @wraps(orig_block)
    def pair_block(pair, x0, y0, cfg, grid, seed, block_index, width):
        prev = getattr(rec.local, "box", None)
        rec.local.box = 2.0 * cfg.L
        try:
            return rec.call(
                "coupling.block", orig_block,
                (pair, x0, y0, cfg, grid, seed, block_index, width), {},
                lambda o, *a: {"path_steps": o["events"], "trunc": o["trunc"],
                               "exits": int(np.count_nonzero(~o["alive"])),
                               "width": width})
        finally:
            rec.local.box = prev

    out.append((coupling, "_advance_pair_block", pair_block))

    # tasks carry their submitting span and the time they waited to start
    pools = (parallel, sde, coupling)
    orig_run_tasks = original(pools, "run_tasks")

    @wraps(orig_run_tasks)
    def run_tasks(fn, args_list, workers=None):
        w = workers if workers is not None else parallel.n_workers()
        eff = 1 if w <= 1 or len(args_list) <= 1 else min(w, len(args_list))

        def submit(fn, args_list, workers):
            parent = rec.current()
            t_submit = time.perf_counter()

            def task(*a):
                wait = time.perf_counter() - t_submit
                return rec.call("parallel.task", fn, a, {},
                                lambda *_: {"wait": wait}, parent=parent)

            return orig_run_tasks(task, args_list, workers=workers)

        return rec.call("parallel.run_tasks", submit,
                        (fn, args_list, workers), {},
                        lambda *_, **__: {"workers": eff})

    out.extend((owner, "run_tasks", run_tasks) for owner in pools)

    # the 2-d solve imports bicgstab at call time; a callback counts its
    # iterations
    orig_bicgstab = sla.bicgstab

    @wraps(orig_bicgstab)
    def bicgstab(A, b, *args, callback=None, **kwargs):
        iters = [0]

        def count(xk):
            iters[0] += 1
            if callback is not None:
                callback(xk)

        return rec.call("pde.bicgstab", orig_bicgstab, (A, b) + args,
                        dict(kwargs, callback=count),
                        lambda *_, **__: {"iters": iters[0]})

    out.append((sla, "bicgstab", bicgstab))
    return out


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    patches = _patches(rec)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _covered(intervals, t0, t1) -> float:
    """Length of [t0, t1] covered by the union of intervals."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        kids[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _covered(kids.get(s[0], ()), s[3], s[4])
            for s in spans}


def layer_metrics(spans, stage_s: dict, overhead_s: float) -> dict:
    """Every LAYER_METRICS value for one traced job."""
    selft = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(int)
    iters_max = 0
    useful_rows = box_rows = 0
    capacity = 0.0
    for s in spans:
        name, counts = s[2], s[7] or {}
        calls[name] += 1
        self_s[name] += selft[s[0]]
        total_s[name] += s[4] - s[3]
        for key, val in counts.items():
            if val is not None:
                sums[f"{name}:{key}"] += val
        if name == "zvonkin.invert":
            iters_max = max(iters_max, counts["iters"])
        elif name == "coupling.step_eval" and counts["inside"] is not None:
            useful_rows += counts["inside"]
            box_rows += counts["rows"]
        elif name == "parallel.run_tasks":
            capacity += (s[4] - s[3]) * counts["workers"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "fields.interp_space.calls": calls["fields.interp_space"],
        "fields.interp_space.points": sums["fields.interp_space:points"],
        "fields.interp_space.s": self_s["fields.interp_space"],
        "fields.interp_space.clamped": sums["fields.interp_space:clamped"],
        "zvonkin.invert.calls": calls["zvonkin.invert"],
        "zvonkin.invert.points": sums["zvonkin.invert:points"],
        "zvonkin.invert.s": self_s["zvonkin.invert"],
        "zvonkin.invert.iters_mean": ratio(sums["zvonkin.invert:iters"],
                                           calls["zvonkin.invert"]),
        "zvonkin.invert.iters_max": iters_max,
        "zvonkin.invert.escaped_points": sums["zvonkin.invert:escaped"],
        "zvonkin.grad_phi_at.s": self_s["zvonkin.grad_phi_at"],
        "zvonkin.build.s": self_s["zvonkin.build"],
        "zvonkin.ladder_rungs": sums["zvonkin.build:rungs"],
        "zvonkin.lipschitz_sup.s": self_s["zvonkin.lipschitz_sup"],
        "zvonkin.certificates.s": self_s["zvonkin.certificates"],
        "coupling.step_eval.calls": calls["coupling.step_eval"],
        "coupling.step_eval.rows": sums["coupling.step_eval:rows"],
        "coupling.step_eval.s": self_s["coupling.step_eval"],
        "coupling.step_eval.useful_frac": ratio(useful_rows, box_rows),
        "coupling.block.s": self_s["coupling.block"],
        "coupling.simulate_pair.calls": calls["coupling.simulate_pair"],
        "coupling.path_steps": sums["coupling.block:path_steps"],
        "coupling.trunc_events": sums["coupling.block:trunc"],
        "coupling.box_exit_frac": ratio(sums["coupling.block:exits"],
                                        sums["coupling.block:width"]),
        "parallel.tasks": calls["parallel.task"],
        "parallel.task.busy_s": total_s["parallel.task"],
        "parallel.task.wait_s": sums["parallel.task:wait"],
        "parallel.utilization": ratio(total_s["parallel.task"], capacity),
        "rng.block_normals.calls": calls["rng.block_normals"],
        "rng.block_normals.s": self_s["rng.block_normals"],
        "rng.block_normals.mb_computed": sums["rng.block_normals:mb"],
        "pde.solve_phi_system.calls": calls["pde.solve_phi_system"],
        "pde.solve_phi_system.s": self_s["pde.solve_phi_system"],
        "pde.bicgstab.calls": calls["pde.bicgstab"],
        "pde.bicgstab.iters": sums["pde.bicgstab:iters"],
        "pde.bicgstab.s": self_s["pde.bicgstab"],
        "sde.step_eval.calls": calls["sde.step_eval"],
        "sde.step_eval.rows": sums["sde.step_eval:rows"],
        "sde.step_eval.s": self_s["sde.step_eval"],
        "sde.block.s": self_s["sde.block"],
        "sde.path_steps": sums["sde.block:path_steps"],
        "cli.main.s": self_s["cli.main"],
        **{f"cli.stage.{name}.s": float(stage_s.get(name, 0.0))
           for name in CLI_STAGES},
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": m[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def write_spans(spans, path: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("run_id", "span", "parent", "name", "start_s", "end_s",
                    "thread"))
        for s in spans:
            w.writerow((s[6], s[0], s[1], s[2], repr(s[3]), repr(s[4]), s[5]))
