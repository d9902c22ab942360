"""Direction sets, line/plane concentration and a sumset growth check."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import PointSet
from .space import Direction, Space, Subspace
from .tables import (add_table, difference, dir_of_index,
                     direction_orthogonality, direction_reps, line_sups,
                     plane_counts)

# direction multiplicities -------------------------------------------------


@dataclass(frozen=True)
class DirectionStats:
    """Directions determined by a set, with unordered-pair multiplicities."""

    space: Space
    determined: tuple
    multiplicity: dict = field(compare=False)

    @property
    def count(self) -> int:
        return len(self.determined)


def _direction_counts(p: int, d: int, rows) -> np.ndarray:
    """Per index row, the unordered pairs whose difference spans each
    direction id: rows of shape (..., m) give shape (..., n_dirs)."""
    rows = np.asarray(rows, dtype=np.int64)
    lead, n = rows.shape[:-1], math.prod(rows.shape[:-1])
    n_dirs = len(direction_reps(p, d))
    ii, jj = np.triu_indices(rows.shape[-1], 1)
    ids = dir_of_index(p, d)[difference(p, d, rows[..., ii], rows[..., jj])]
    # one bincount for all rows: row r counts into [r*n_dirs, (r+1)*n_dirs)
    ids = ids.reshape(n, len(ii)) + n_dirs * np.arange(n)[:, None]
    return np.bincount(ids.ravel(), minlength=n * n_dirs).reshape(*lead, n_dirs)


def _plane_direction_counts(p: int, d: int, counts: np.ndarray) -> np.ndarray:
    """Per normal direction id, the determined directions (counts > 0)
    lying in the plane through 0 with that normal; counts of shape
    (..., n_dirs) give the same shape."""
    # the orthogonality table is symmetric
    return (counts > 0).astype(np.int64) @ direction_orthogonality(p, d)


def direction_stats(E: PointSet) -> DirectionStats:
    if E.size < 2:
        raise ValueError("need at least two points to determine a direction")
    space = E.space
    counts = _direction_counts(space.p, space.d, E.indices())
    det = np.flatnonzero(counts)
    reps = direction_reps(space.p, space.d)
    dirs = tuple(Direction(space, space.point_at(int(reps[k]))) for k in det)
    return DirectionStats(space, dirs,
                          {dr: int(counts[k]) for dr, k in zip(dirs, det)})


def plane_direction_count(E: PointSet, P: Subspace) -> int:
    """Number of determined directions lying inside a 2-dim subspace."""
    if P.dim != 2:
        raise ValueError("P must be a 2-dimensional subspace")
    stats = direction_stats(E)
    return sum(1 for dr in stats.determined if P.contains(dr.rep))


# concentration ------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    line_sup: int
    plane_sup: int | None
    plane_direction_counts: dict | None = field(default=None, compare=False)


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


def concentration(E: PointSet) -> ConcentrationReport:
    """Line supremum, plus plane supremum and per-plane direction counts at d = 3."""
    space = E.space
    if space.d not in (2, 3):
        raise ValueError("concentration is defined for d in {2, 3}")
    ls = line_sup(E)
    if space.d == 2:
        return ConcentrationReport(ls, None, None)
    ps = plane_sup(E)
    per_plane = None
    if E.size >= 2:
        per = _plane_direction_counts(
            space.p, space.d, _direction_counts(space.p, space.d, E.indices()))
        per_plane = {int(r): int(c)
                     for r, c in zip(direction_reps(space.p, space.d), per)}
    return ConcentrationReport(ls, ps, per_plane)


def no_k_collinear(E: PointSet, k: int) -> bool:
    """True iff no affine line carries k or more points of E."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return line_sup(E) < k


# sumsets ------------------------------------------------------------------


def sumset(A: PointSet, B: PointSet) -> PointSet:
    if A.space != B.space:
        raise ValueError("mismatched spaces")
    space = A.space
    sums = add_table(space.p, space.d)[np.ix_(A.indices(), B.indices())]
    return PointSet.from_indices(space, np.unique(sums).tolist())


def sumset_cd_check(A: PointSet, B: PointSet) -> bool:
    """Cauchy-Davenport bound |A+B| >= min(p, |A|+|B|-1) for subsets of F_p."""
    if A.space.d != 1 or B.space.d != 1:
        raise ValueError("sumset growth check expects subsets of F_p")
    if A.size == 0 or B.size == 0:
        return True
    p = A.space.p
    return sumset(A, B).size >= min(p, A.size + B.size - 1)
