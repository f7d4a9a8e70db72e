"""Deterministic worker pool.

How work is cut into tasks may depend on the worker count, but no
number does.  Both path engines cut a command's paths by one rule,
row_ranges: near-equal contiguous row ranges, a multiple of the pool's
processes and none over PACK_ROWS, each drawn step-major by
rng.lane_normals.  A row's bits do not depend on the rows beside it (the
2-d map inverse stops each row on its own update), so a task returns
per-row results and the parent puts them back in path order.  The plain
engine then sums each Philox block's rows and adds the block sums with a
fixed pairwise tree; the pair engine's counters are integer sums.  So a
run with ZVLAB_THREADS=1 and ZVLAB_THREADS=8 produces byte-identical
numbers.

ZVLAB_THREADS counts forked worker processes.  The engines' per-step
numpy passes each hold the GIL, so threads cannot overlap them; forked
children can.  run_tasks stores (fn, args_list) in a module global before
it forks, so the children inherit every closure and model and only task
indices go out and task results come back.  The tasks run in the calling
process instead when there is one worker or one task, when the caller is
itself a pool task, when another Python thread is alive (forking it is
unsafe), and where fork is missing (Windows) or not the safe default
(macOS).
"""

from __future__ import annotations

import os
import sys
import threading

_JOB = None    # (fn, args_list) of the pool call in flight; children inherit it
PACK_ROWS = 16384         # most paths one task advances
_CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"


def n_workers() -> int:
    env = os.environ.get("ZVLAB_THREADS")
    if env:
        try:
            k = int(env)
        except ValueError:
            raise SystemExit(f"ZVLAB_THREADS must be an integer, got {env!r}")
        if k < 1:
            raise SystemExit("ZVLAB_THREADS must be >= 1")
        return k
    # the CPUs this process may run on, where the platform reports them
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _may_fork() -> bool:
    """False inside a pool task, beside another live Python thread, and
    where fork is missing or unsafe."""
    return _JOB is None and threading.active_count() == 1 and _CAN_FORK


def pool_size(n_tasks: int) -> int:
    """Processes run_tasks forks for n_tasks tasks at ZVLAB_THREADS; 1
    means the tasks run in the calling process."""
    return max(1, min(n_workers(), n_tasks)) if _may_fork() else 1


def row_ranges(n: int, procs: int) -> list[tuple[int, int]]:
    """Paths 0..n-1 cut into contiguous (start, stop) ranges of near-equal
    size: procs * ceil(ceil(n / PACK_ROWS) / procs) of them, at most n."""
    least = -(-n // PACK_ROWS)
    k = min(n, procs * -(-least // procs))
    cuts = [n * j // k for j in range(k + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_one(i: int):
    fn, args_list = _JOB
    return fn(*args_list[i])


def run_tasks(fn, args_list, workers: int | None = None) -> list:
    """Apply fn to each args tuple; results returned in task order.  An
    exception raised by a task is raised here with its type and message."""
    global _JOB
    w = min(workers if workers is not None else n_workers(), len(args_list))
    if w <= 1 or not _may_fork():
        return [fn(*a) for a in args_list]
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    _JOB = (fn, args_list)
    try:
        with ProcessPoolExecutor(
                max_workers=w,
                mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_one, range(len(args_list))))
    finally:
        _JOB = None


def tree_reduce(items, combine):
    """Pairwise reduction in fixed order; independent of how items were produced."""
    items = list(items)
    if not items:
        raise ValueError("tree_reduce of empty sequence")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(combine(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
