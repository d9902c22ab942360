"""Directions, direction sets and line/plane concentration.

A direction is named by its id, its position in tables.direction_reps,
the one builder of the direction list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import PointSet
from .space import Space
from .tables import (direction_reps, line_sups, orthogonal_direction_bits,
                     pair_directions, plane_counts)

# direction multiplicities -------------------------------------------------


@dataclass(frozen=True)
class DirectionStats:
    """Ids of the directions determined by a set, in increasing order,
    with the unordered-pair multiplicity of each id."""

    space: Space
    determined: tuple
    multiplicity: dict = field(compare=False)

    @property
    def count(self) -> int:
        return len(self.determined)


def _direction_counts(p: int, d: int, rows) -> np.ndarray:
    """Per index row, the unordered pairs whose difference spans each
    direction id: rows of shape (..., m) give shape (..., n_dirs)."""
    ids = pair_directions(p, d, rows)
    lead, n = ids.shape[:-1], math.prod(ids.shape[:-1])
    n_dirs = len(direction_reps(p, d))
    # one bincount for all rows: row r counts into [r*n_dirs, (r+1)*n_dirs)
    ids = ids.reshape(n, ids.shape[-1]) + n_dirs * np.arange(n)[:, None]
    return np.bincount(ids.ravel(), minlength=n * n_dirs).reshape(*lead, n_dirs)


def _plane_direction_counts(p: int, d: int, dirs: np.ndarray) -> np.ndarray:
    """Per normal direction id, the determined directions lying in the
    plane through 0 with that normal, by popcount of one bit per
    direction: pair_directions (..., C(m, 2)) give (..., n_dirs)."""
    det = np.bitwise_or.reduce(np.uint64(1) << dirs.astype(np.uint64), -1)
    return np.bitwise_count(det[..., None] & orthogonal_direction_bits(p, d))


def direction_stats(E: PointSet) -> DirectionStats:
    if E.size < 2:
        raise ValueError("need at least two points to determine a direction")
    space = E.space
    counts = _direction_counts(space.p, space.d, E.indices())
    det = tuple(np.flatnonzero(counts).tolist())
    return DirectionStats(space, det, {k: int(counts[k]) for k in det})


# concentration ------------------------------------------------------------


def line_sup(E: PointSet) -> int:
    """max |E ∩ line| over all affine lines (any supported d)."""
    return int(line_sups(E.space.p, E.space.d, E.indices()))


def plane_sup(E: PointSet) -> int:
    """max |E ∩ plane| over all affine planes; d = 3 only."""
    space = E.space
    if space.d != 3:
        raise ValueError("plane concentration needs d = 3")
    idx = np.array(E.indices(), dtype=np.int64)
    return int(plane_counts(space.p, 3, idx).max())
