"""Deterministic work partitioning for exhaustive runs.

Work is split into a fixed chunk list that does not depend on the
worker count; workers only decide how chunks are scheduled.  Results
are collected in chunk order, so any fold over them is reproducible
byte for byte across 1, 4 or 8 workers.
"""
from __future__ import annotations

import multiprocessing
import os


def resolve_workers(requested: int | None = None) -> int:
    """Explicit argument, else FFSPEC_THREADS, else 1; capped at
    os.cpu_count(), so no count can fork more processes than cores.
    Library workers= arguments skip this and stay uncapped."""
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
    if workers <= 1 or len(chunk_args) <= 1:
        return [fn(a) for a in chunk_args]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(chunk_args))) as pool:
        return list(pool.imap(fn, chunk_args, chunksize=1))
