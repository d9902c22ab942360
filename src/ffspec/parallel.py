"""Deterministic work partitioning for exhaustive runs.

Work is split into a fixed chunk list that does not depend on the
worker count; workers only decide how chunks are scheduled.  Results
are collected in chunk order, so any fold over them is reproducible
byte for byte across 1, 4 or 8 workers.

run_chunks forks its workers itself, on a static interleaved schedule:
with w = min(workers, chunks) > 1, child k runs chunks k, k + w,
k + 2w, ... in order and writes all its results, pickled once, to its
own pipe.  The parent stays idle: it reads each pipe, reaps each child
and puts the shares back in chunk order, so no chunk's scratch memory
sits on top of the parent's tables.  One worker or one chunk runs in
the calling process.

An exception raised by a chunk reaches the parent with its type and
message; its traceback stays in the child, and the same chunks at one
worker raise it in the calling process.  A child that dies without a
result (a signal, os._exit) and a result or exception that cannot be
pickled raise WorkerError.  Whether the call returns or raises, no
child outlives it: the parent kills and reaps every child it still
holds.  A parent that dies without unwinding (SIGKILL, say) reaps
nothing, so before each chunk a child checks that the process that
forked it is still its parent, and exits at once if not; it installs
no signal handler.
"""
from __future__ import annotations

import operator
import os
import pickle
import signal
import sys
from contextlib import suppress


class WorkerError(RuntimeError):
    """A worker process returned no usable result: it died, or what it
    had to send back could not be pickled."""


def resolve_workers(requested: int | None = None) -> int:
    """Explicit argument, else FFSPEC_THREADS, else 1; capped at
    os.cpu_count(), so no count can fork more processes than cores.
    Library workers= arguments skip this: uncapped, but at least 1."""
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be positive")
        val = requested
    else:
        env = os.environ.get("FFSPEC_THREADS")
        if not env:
            return 1
        try:
            val = int(env)
        except ValueError:
            raise ValueError(f"FFSPEC_THREADS must be an integer, got {env!r}") from None
        if val < 1:
            raise ValueError("FFSPEC_THREADS must be positive")
    return min(val, os.cpu_count() or 1)


def run_chunks(fn, chunk_args: list, workers: int) -> list:
    """Apply fn to every chunk argument, results in chunk order."""
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError("worker count must be positive")
    w = min(workers, len(chunk_args))
    if w <= 1:
        return [fn(a) for a in chunk_args]
    # a child must not write the parent's buffered output a second time
    sys.stdout.flush()
    sys.stderr.flush()
    parent, pids, pipes, reaped = os.getpid(), [], [], 0
    try:
        for k in range(w):
            r, wr = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, chunk_args[k::w], wr, parent)
            finally:
                os.close(wr)
            pids.append(pid)
        out = [None] * len(chunk_args)
        for k, (pid, r) in enumerate(zip(pids, pipes)):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            out[k::w] = _share(pid, status, data)
        return out
    finally:
        for pid in pids[reaped:]:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)


def _child(fn, share: list, wr: int, parent: int):
    """Run one worker's share of the chunks in a forked child, write
    (True, results) or (False, exception) to the pipe and exit; never
    returns into the caller's stack.  Exits at once, before a chunk,
    once parent is no longer its parent: no one would read the pipe."""
    code = 1
    try:
        try:
            results = []
            for a in share:
                if os.getppid() != parent:
                    os._exit(1)
                results.append(fn(a))
            payload = (True, results)
        except BaseException as exc:
            # KeyboardInterrupt too: the parent re-raises it, and nothing
            # may unwind from here into the caller's stack
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "results" if payload[0] else type(payload[1]).__name__
            data = pickle.dumps((False, WorkerError(
                f"worker process {os.getpid()} cannot pickle its {what}: {exc}")))
        with open(wr, "wb", closefd=False) as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _share(pid: int, status: int, data: bytes) -> list:
    """One child's results, from its wait status and what it wrote."""
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        raise WorkerError(f"worker process {pid} {how} without returning "
                          "its chunks")
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise WorkerError(f"worker process {pid} sent a result that cannot be "
                          f"unpickled: {exc!r}") from None
    if not ok:
        raise value
    return value
