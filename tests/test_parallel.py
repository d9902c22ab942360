"""parallel.run_chunks: results in chunk order on the static interleaved
schedule, chunk failures re-raised in the caller, and no child process
left behind, whether the call returns or raises.  No test starts more
than 8 processes."""
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

import ffspec
from ffspec.lemmas import SweepBudgetError
from ffspec.parallel import WorkerError, run_chunks
from ffspec.spectral import InternalCheckError

PARENT = os.getpid()


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child of this process, alive or zombie,
    and fails instead of hanging past 60 s."""
    def hung(signum, frame):
        raise TimeoutError("run_chunks did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(a):
    return a * a, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_results_in_chunk_order(workers, n):
    out = run_chunks(tagged, list(range(n)), workers)
    assert [sq for sq, _ in out] == [a * a for a in range(n)]
    w = min(workers, n)
    pids = [pid for _, pid in out]
    if w == 1:
        assert set(pids) == {PARENT}
        return
    # w children, none of them the caller; child k ran chunks k, k + w, ...
    assert len(set(pids)) == w and PARENT not in pids
    assert all(pids[i] == pids[i % w] for i in range(n))


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_raises(workers):
    with pytest.raises(ValueError, match="^worker count must be positive$"):
        run_chunks(tagged, [0, 1], workers)


def test_worker_count_must_be_an_integer():
    with pytest.raises(TypeError):
        run_chunks(tagged, [0, 1], 2.0)


def test_large_results_cross_the_pipe():
    # far more than a pipe buffer from each child
    out = run_chunks(lambda a: bytes([a]) * (1 << 20), list(range(4)), 2)
    assert out == [bytes([a]) * (1 << 20) for a in range(4)]


def fail_at(which, exc):
    def fn(a):
        if a == which:
            raise exc
        return a
    return fn


@pytest.mark.parametrize("exc", [
    ValueError("bad chunk 3"),
    InternalCheckError("routes disagree at chunk 3"),
    SweepBudgetError("search ran out of budget at chunk 3"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_exception_reaches_caller(exc, workers):
    with pytest.raises(type(exc), match=str(exc)):
        run_chunks(fail_at(3, exc), list(range(5)), workers)


def test_unpicklable_result_raises():
    with pytest.raises(WorkerError, match="cannot pickle its results"):
        run_chunks(lambda a: (lambda: a), [0, 1, 2], 2)


def test_unpicklable_exception_raises():
    with pytest.raises(WorkerError, match="cannot pickle its ValueError"):
        run_chunks(fail_at(1, ValueError(lambda: 0)), [0, 1, 2], 2)


class TwoArgError(Exception):
    # pickles, but unpickling calls TwoArgError("x") and fails
    def __init__(self, a, b):
        super().__init__(a)


def test_exception_that_cannot_be_unpickled_raises():
    with pytest.raises(WorkerError, match="cannot be unpickled"):
        run_chunks(fail_at(1, TwoArgError("x", "y")), [0, 1, 2], 2)


def die(code):
    # exit with the given status, or SIGKILL itself when code is None
    def fn(a):
        if a == 2 and os.getpid() != PARENT:
            if code is None:
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(code)
        return a
    return fn


@pytest.mark.parametrize("code,status", [(1, "exited with status 1"),
                                         (0, "exited with status 0"),
                                         (None, "killed by signal 9")])
def test_dead_child_raises(code, status):
    with pytest.raises(WorkerError, match=status):
        run_chunks(die(code), list(range(4)), 2)


def test_failure_kills_the_other_children():
    # child 0 fails at once; child 1 would sleep for a minute
    def fn(a):
        if a == 0:
            raise ValueError("first chunk failed")
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="first chunk failed"):
        run_chunks(fn, [0, 1], 2)
    assert time.perf_counter() - t0 < 30


# two workers that print their pids, then run 200 chunks of 50 ms each
ORPHANED_RUN = """
import os, time
from ffspec.parallel import run_chunks

def chunk(a):
    if a < 2:
        os.write(1, b"%d\\n" % os.getpid())     # one write: no interleaving
    time.sleep(0.05)
    return a

run_chunks(chunk, list(range(400)), 2)
"""


def test_workers_exit_when_the_parent_is_killed():
    # SIGKILL runs no finally in the parent, so its workers must see for
    # themselves that it is gone.  Each worker holds the run's stdout,
    # which reads EOF only once every worker has exited
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ffspec.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", ORPHANED_RUN],
                            stdout=subprocess.PIPE, env=env)
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        assert len(set(pids)) == 2 and proc.pid not in pids
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        ready, _, _ = select.select([proc.stdout], [], [], 2.0)
        assert ready, "a worker outlived its killed parent by 2 s"
        assert proc.stdout.read() == b""
    finally:
        for pid in [proc.pid, *pids]:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
