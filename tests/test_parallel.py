"""The fork-per-call pool in zvlab.parallel: results in task order, the
lowest-index error re-raised with its type and message, no worker left
behind on any way out, no thread started, the in-process fallbacks, and
no fork warning on the Python versions that warn about forking threads."""

import ctypes
import gc
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from zvlab import parallel
from zvlab.parallel import run_tasks

SRC = Path(__file__).resolve().parents[1] / "src"


def block_like(i, n):
    # a partial of the kind the engines return: arrays and ints
    return {"pid": os.getpid(), "X": np.arange(n, dtype=float) * i,
            "alive": np.arange(n) % (i + 2) == 0, "events": i * n}


def pids(results):
    return {r["pid"] for r in results}


def test_pool_matches_in_process_in_task_order(monkeypatch):
    args = [(i, 5 + i) for i in range(5)]
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    serial = run_tasks(block_like, args)
    assert pids(serial) == {os.getpid()}
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    pooled = run_tasks(block_like, args)
    assert os.getpid() not in pids(pooled)
    assert len(pids(pooled)) <= 2
    for a, b in zip(serial, pooled, strict=True):
        assert a.keys() == b.keys()
        assert np.array_equal(a["X"], b["X"])
        assert np.array_equal(a["alive"], b["alive"])
        assert a["events"] == b["events"]
    assert parallel._JOB is None


def singular(i):
    if i == 2:
        raise np.linalg.LinAlgError(f"singular sigma row in task {i}")
    return i


def test_child_error_reraises_with_type_and_message(monkeypatch):
    monkeypatch.setenv("ZVLAB_THREADS", "3")
    with pytest.raises(np.linalg.LinAlgError) as err:
        run_tasks(singular, [(i,) for i in range(4)])
    assert str(err.value) == "singular sigma row in task 2"
    assert parallel._JOB is None
    assert run_tasks(singular, [(0,), (1,)]) == [0, 1]     # the pool still works


CALLER = os.getpid()


@pytest.fixture
def no_leftovers():
    # the pool forks, and after the call only the calling thread is alive
    # and no child remains
    assert parallel._may_fork()
    yield
    assert threading.active_count() == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def two_failures(i):
    # the lower-index failure comes last in time, so a pool that raised
    # the first failure it saw would raise the other one
    if i == 1:
        time.sleep(0.3)
        raise np.linalg.LinAlgError(f"singular sigma row in task {i}")
    if i == 4:
        raise ValueError(f"bad input in task {i}")
    return i


@pytest.mark.parametrize("workers", [2, 3])
def test_lowest_index_failure_raises_as_in_one_process(workers, no_leftovers):
    args = [(i,) for i in range(6)]
    with pytest.raises(np.linalg.LinAlgError) as alone:
        run_tasks(two_failures, args, workers=1)
    with pytest.raises(np.linalg.LinAlgError) as pooled:
        run_tasks(two_failures, args, workers=workers)
    assert str(pooled.value) == str(alone.value) == "singular sigma row in task 1"
    # the worker's traceback travels as the cause
    assert "in two_failures" in str(pooled.value.__cause__)
    assert "LinAlgError: singular sigma row in task 1" in str(pooled.value.__cause__)
    assert parallel._JOB is None


def dies(i, how):
    assert os.getpid() != CALLER, "a task that ends its process ran in pytest's"
    if i == 2:
        if how == "exit":
            os._exit(7)
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("how, says", [("exit", "exit status 7"),
                                       ("kill", f"signal {int(signal.SIGKILL)}")])
def test_worker_that_dies_raises_runtime_error(workers, how, says, no_leftovers):
    with pytest.raises(RuntimeError, match=rf"pool worker \d \(pid \d+\) ended "
                                           rf"by {says} before sending"):
        run_tasks(dies, [(i, how) for i in range(6)], workers=workers)
    assert run_tasks(dies, [(0, how), (1, how)], workers=workers) == [0, 1]


def sleeps(i):
    time.sleep(60)


@pytest.mark.parametrize("workers", [2, 3])
def test_interrupt_in_the_parent_kills_the_workers(workers, monkeypatch,
                                                  no_leftovers):
    # Ctrl-C while the parent waits for results, with every worker busy
    def interrupted(pipe):
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel.pickle, "load", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_tasks(sleeps, [(i,) for i in range(4)], workers=workers)
    assert time.perf_counter() - t0 < 30
    assert parallel._JOB is None


def test_pool_starts_no_thread(monkeypatch, no_leftovers):
    def refuse(self):
        raise RuntimeError("the pool started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = run_tasks(block_like, [(i, 4) for i in range(4)], workers=2)
    assert [r["events"] for r in out] == [i * 4 for i in range(4)]
    assert os.getpid() not in pids(out)


def sixteen_mb(i):
    return np.full(2 ** 21, float(i))


def rss_after_trim(trim):
    gc.collect()
    trim(0)
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or not os.path.exists("/proc/self/statm"),
                    reason="malloc_trim and /proc/self/statm are glibc and Linux")
def test_pool_results_leave_no_retained_memory(no_leftovers):
    # results are unpickled in the calling thread, so the memory they held
    # goes back to the main arena, which malloc_trim returns to the system
    trim = ctypes.CDLL("libc.so.6").malloc_trim
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    before = rss_after_trim(trim)
    for _ in range(3):
        out = run_tasks(sixteen_mb, [(i,) for i in range(4)], workers=2)
        assert [r[0] for r in out] == [0.0, 1.0, 2.0, 3.0]
        del out
    assert rss_after_trim(trim) - before < 5


def nested(i):
    inner = run_tasks(lambda j: os.getpid(), [(j,) for j in range(3)])
    return os.getpid(), inner


def test_nested_call_runs_in_the_task_process(monkeypatch):
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    for pid, inner in run_tasks(nested, [(0,), (1,)]):
        assert pid != os.getpid()
        assert inner == [pid] * 3


def test_live_thread_keeps_tasks_in_process(monkeypatch):
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        assert parallel.pool_size(4) == 1
        assert pids(run_tasks(block_like, [(i, 3) for i in range(4)])) == {os.getpid()}
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert parallel.pool_size(4) == 2


def test_one_task_or_one_worker_runs_in_process(monkeypatch):
    monkeypatch.setenv("ZVLAB_THREADS", "2")
    assert parallel.pool_size(1) == 1
    assert pids(run_tasks(block_like, [(0, 3)])) == {os.getpid()}
    monkeypatch.setenv("ZVLAB_THREADS", "1")
    assert parallel.pool_size(3) == 1
    assert pids(run_tasks(block_like, [(i, 3) for i in range(3)])) == {os.getpid()}


def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a larger machine gets one worker
    monkeypatch.delenv("ZVLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert parallel.n_workers() == 1


def test_cli_import_leaves_the_pool_modules_unloaded():
    # multiprocessing and the executor cost about 15 ms at import, and the
    # pool forks without them.  scipy costs more than half of the import;
    # the PDE solves load it
    probe = ("import sys, zvlab.cli; from zvlab.parallel import run_tasks; "
             "assert run_tasks(abs, [(-1,), (-2,)], workers=2) == [1, 2]; "
             "print(sorted(m for m in sys.modules "
             "if m in ('multiprocessing', 'concurrent.futures.process') "
             "or m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# parallel.py imports only the standard library, so a newer interpreter
# without numpy can load it by path.  From 3.12 on, forking a process in
# which another thread is alive warns with a DeprecationWarning.  The
# check shows every such warning: under -W error the C-level fork warning
# is raised and then cleared inside os.fork, so nothing would show
FORK_CHECK = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("zvlab_parallel", sys.argv[1])
parallel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parallel)

def task(i):
    return i * i, os.getpid()

for call in range(3):
    out = parallel.run_tasks(task, [(i,) for i in range(5)])
    assert [v for v, _ in out] == [i * i for i in range(5)], out
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) <= 2, pids
print("ok")
"""


def _starts(exe):
    try:
        return subprocess.run([exe, "-c", "pass"], capture_output=True,
                              timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


@pytest.mark.parametrize("name", ["python3.12", "python3.13"])
def test_fork_does_not_warn_on_newer_pythons(name):
    exe = shutil.which(name)
    if exe is None or not _starts(exe):
        pytest.skip(f"no working {name}")
    env = dict(os.environ, ZVLAB_THREADS="2")
    env.pop("PYTHONPATH", None)
    try:
        done = subprocess.run(
            [exe, "-W", "always::DeprecationWarning", "-c", FORK_CHECK,
             str(SRC / "zvlab" / "parallel.py")],
            env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name} running the fork check timed out after 120 s")
    # the cause first, so that a truncated tail of the message still names it
    why = (f"exit code {done.returncode}; last 20 lines of stderr:\n"
           + "\n".join(done.stderr.splitlines()[-20:]))
    assert done.returncode == 0, why
    assert done.stdout.strip() == "ok", f"{why}\nstdout: {done.stdout!r}"
    assert "Warning" not in done.stderr, why
