"""Deterministic worker pool.

How work is cut into tasks may depend on the worker count, but no
number does.  sde.run_ensembles makes each draw group's paths one task
in one process, and otherwise cuts them into row_ranges: near-equal
contiguous ranges, a multiple of the pool's processes and none over
PACK_ROWS.  A task steps its paths in tile_cuts: tiles within PACK_BYTES
of normals, and in one process within a Philox block.  A row's bits do
not depend on the rows beside it (the 2-d map inverse stops each row on
its own update), so a task returns per-row results, and the parent puts
them back in path order and reduces a run's rows whole: one numpy sum
over them, or integer counters.  So a run with ZVLAB_THREADS=1 and
ZVLAB_THREADS=8 produces byte-identical numbers.

ZVLAB_THREADS counts forked worker processes.  The engines' per-step
numpy passes each hold the GIL, so threads cannot overlap them; forked
children can.  run_tasks stores (fn, args_list) in a module global and
forks the workers itself, so they inherit every closure and model; task
indices go out on one pipe, and each worker's results come back pickled
once on its own.  No thread is started, so results land in the main
malloc arena and no thread is alive at the next fork.  The tasks run in
the calling process instead when there is one worker or one task, when
the caller is itself a pool task, when another Python thread is alive
(forking it is unsafe), and where fork is missing (Windows) or not the
safe default (macOS).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
import traceback

_JOB = None    # (fn, args_list) of the pool call in flight; children inherit it
PACK_ROWS = 16384         # most paths one task advances
PACK_BYTES = 128 << 20    # most bytes of normals one tile of a task holds
_CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"


def n_workers() -> int:
    env = os.environ.get("ZVLAB_THREADS")
    if env:
        try:
            k = int(env)
        except ValueError:
            raise SystemExit(f"ZVLAB_THREADS must be an integer, got {env!r}")
        if k < 1:
            raise SystemExit(f"ZVLAB_THREADS must be >= 1, got {env!r}")
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


def tile_cuts(a: int, b: int, nbytes: int, most: int) -> list[int]:
    """The cuts a = c_0 < ... < c_k = b of the fewest near-equal tiles of
    paths a..b-1, whose normals take nbytes, of at most most paths and
    about PACK_BYTES."""
    k = min(b - a, max(-(-(b - a) // most), -(-nbytes // PACK_BYTES)))
    return [a + (b - a) * j // k for j in range(k + 1)]


def _serve(todo, out: int, *inherited):
    """A forked worker, to its exit: run the task indices read from todo,
    then send [(index, True, result), ...] through out in one pickle, or
    [(index, False, (error, traceback))] for the first task that fails."""
    fn, args_list = _JOB
    done, i = [], -1
    try:
        for f in inherited:
            f.close()
        while b := todo.read(4):
            i = int.from_bytes(b, "little")
            done.append((i, True, fn(*args_list[i])))
        data = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:       # a task failed, or a result does not pickle
        data = pickle.dumps([(i, False, (exc, traceback.format_exc()))])
    todo.close()        # once every worker has, the parent's queue writes fail
    with open(out, "wb") as f:
        f.write(data)
    os._exit(0)


def run_tasks(fn, args_list, workers: int | None = None) -> list:
    """Apply fn to each args tuple; results returned in task order.  Of the
    tasks that fail, the lowest index is raised here with its type and
    message, as in one process, and the worker's traceback as its cause.
    A worker that exits without sending raises RuntimeError.  No worker
    outlives the call."""
    global _JOB
    w = min(workers if workers is not None else n_workers(), len(args_list))
    if w <= 1 or not _may_fork():
        return [fn(*a) for a in args_list]
    _JOB = (fn, args_list)
    r, q = os.pipe()
    todo, queue = open(r, "rb", buffering=0), open(q, "wb", buffering=0)
    kids = {}                             # pid -> its result pipe, until reaped
    try:
        for _ in range(w):
            r, out = os.pipe()
            pipe = open(r, "rb")
            pid = os.fork()
            if pid == 0:                  # the worker; it never returns
                try:
                    _serve(todo, out, queue, pipe, *kids.values())
                finally:
                    os._exit(1)
            os.close(out)
            kids[pid] = pipe
        todo.close()
        idx = b"".join(i.to_bytes(4, "little") for i in range(len(args_list)))
        with queue, contextlib.suppress(BrokenPipeError):  # all have stopped
            for c in range(0, len(idx), 512):   # so each write is atomic
                queue.write(idx[c:c + 512])
        done, failed = {}, {}
        for k, (pid, pipe) in enumerate(list(kids.items())):
            try:
                sent = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):   # none or part of it
                sent = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            kids.pop(pid).close()
            if sent is None:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"pool worker {k} (pid {pid}) ended by "
                                   f"{how} before sending its results")
            for i, ok, value in sent:
                (done if ok else failed)[i] = value
        if failed:
            exc, tb = failed[min(failed)]
            raise exc from RuntimeError(f"in a pool worker:\n{tb}")
        return [done[i] for i in range(len(args_list))]
    finally:
        _JOB = None
        for pid, pipe in kids.items():    # left running by an error or an interrupt
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        todo.close()
        queue.close()
