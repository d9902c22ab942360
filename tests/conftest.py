import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def traced_peak():
    """Peak bytes allocated while fn(*args) runs, above what was live
    before.  numpy reports its buffers to tracemalloc, so the figure is
    deterministic; warm any cached table first."""
    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak


@pytest.fixture
def fork_count(monkeypatch):
    """Wrap os.fork; returns a function giving the number of forks made
    since the fixture was set up."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return lambda: len(forks)


@pytest.fixture
def affine_perms():
    """affine_perms(p, d), d <= 2: (maps, p^d) point permutations of every
    affine map x -> Mx + t, M outer and t inner, so row m * p^d + t sends
    point i to add_table[Mi, t]; composed from the linear maps
    (tables.linear_permutation_array) and add_table."""
    from ffspec.tables import add_table, linear_permutation_array

    def perms(p, d):
        linear = linear_permutation_array(p, d)
        n = linear.shape[1]
        return add_table(p, d)[linear[:, None, :],
                               np.arange(n)[:, None]].reshape(-1, n)
    return perms
