"""The space F_p^d and its value types: points, directions, subspaces.

Points are indexed 0 .. p^d - 1 with coordinate 0 in the least
significant base-p digit, so index = sum(coords[i] * p**i).  Point is
the single-point value type; operations on sets of points work on
these indices and read the cached tables in tables.py.  All arithmetic
is exact integer arithmetic mod p.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Space:
    """The vector space F_p^d, for p in {3, 5, 7} and d in {1, 2, 3}.

    Library entry points construct a Space before they build a lookup
    table, so this check also bounds every table size.
    """

    p: int
    d: int

    def __post_init__(self):
        if self.p not in (3, 5, 7):
            raise ValueError(f"p must be the prime 3, 5 or 7, got {self.p}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")

    @property
    def order(self) -> int:
        return self.p ** self.d

    def point(self, coords) -> "Point":
        return Point(self, tuple(c % self.p for c in coords))

    def point_at(self, index: int) -> "Point":
        if not 0 <= index < self.order:
            raise ValueError(f"point index {index} out of range for {self}")
        return Point(self, index_to_coords(index, self.p, self.d))

    def zero(self) -> "Point":
        return Point(self, (0,) * self.d)

    def iter_points(self):
        for idx in range(self.order):
            yield self.point_at(idx)

    def __str__(self):
        return f"F_{self.p}^{self.d}"


@lru_cache(maxsize=None)
def index_to_coords(index: int, p: int, d: int) -> tuple:
    coords = []
    for _ in range(d):
        coords.append(index % p)
        index //= p
    return tuple(coords)


def coords_to_index(coords, p: int) -> int:
    idx = 0
    for c in reversed(coords):
        idx = idx * p + (c % p)
    return idx


@dataclass(frozen=True)
class Point:
    """A point of a Space, stored as a coordinate tuple."""

    space: Space
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.space.d:
            raise ValueError("coordinate count does not match dimension")
        if any(not 0 <= c < self.space.p for c in self.coords):
            raise ValueError("coordinates must be reduced mod p")

    @property
    def index(self) -> int:
        return coords_to_index(self.coords, self.space.p)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "Point") -> "Point":
        _require_same_space(self, other)
        p = self.space.p
        return Point(self.space, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        _require_same_space(self, other)
        p = self.space.p
        return Point(self.space, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Point":
        p = self.space.p
        return Point(self.space, tuple((-a) % p for a in self.coords))

    def scale(self, c: int) -> "Point":
        p = self.space.p
        return Point(self.space, tuple((c * a) % p for a in self.coords))


def _require_same_space(x, y):
    if x.space != y.space:
        raise ValueError(f"mismatched spaces: {x.space} vs {y.space}")


def dot(x: Point, y: Point) -> int:
    """Standard bilinear form x . y mod p."""
    _require_same_space(x, y)
    return sum(a * b for a, b in zip(x.coords, y.coords)) % x.space.p


@dataclass(frozen=True)
class Direction:
    """A 1-dimensional subspace, stored by its canonical representative.

    The representative scales the vector so that its lowest-index
    nonzero coordinate equals 1.
    """

    space: Space
    rep: Point

    @classmethod
    def through(cls, v: Point) -> "Direction":
        if v.is_zero():
            raise ValueError("the zero vector spans no direction")
        p = v.space.p
        lead = next(c for c in v.coords if c != 0)
        inv = pow(lead, p - 2, p)
        return cls(v.space, v.scale(inv))

    @property
    def index(self) -> int:
        return self.rep.index

    def points(self):
        """All p points of the subspace, including 0."""
        return [self.rep.scale(c) for c in range(self.space.p)]

    def nonzero_points(self):
        return [self.rep.scale(c) for c in range(1, self.space.p)]


def all_directions(space: Space):
    """The (p^d - 1)/(p - 1) directions, sorted by representative index.

    Canonical representatives are generated directly: the first nonzero
    coordinate is pinned to 1 and later coordinates range freely.
    """
    p, d = space.p, space.d
    reps = []
    for lead in range(d):
        for tail in itertools.product(range(p), repeat=d - 1 - lead):
            coords = (0,) * lead + (1,) + tail
            reps.append(Point(space, coords))
    reps.sort(key=lambda pt: pt.index)
    return [Direction(space, r) for r in reps]


def direction_count(space: Space) -> int:
    return (space.order - 1) // (space.p - 1)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an independent basis."""

    space: Space
    basis: tuple

    def __post_init__(self):
        if _rank([b.coords for b in self.basis], self.space.p) != len(self.basis):
            raise ValueError("dependent basis rejected")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self):
        """All p^dim points of the subspace."""
        p = self.space.p
        out = []
        for coeffs in itertools.product(range(p), repeat=self.dim):
            acc = self.space.zero()
            for c, b in zip(coeffs, self.basis):
                acc = acc + b.scale(c)
            out.append(acc)
        return out

    def contains(self, x: Point) -> bool:
        _require_same_space(self.basis[0] if self.basis else self.space.zero(), x)
        rows = [b.coords for b in self.basis]
        return _rank(rows + [x.coords], self.space.p) == len(self.basis)

    def orthogonal(self) -> "Subspace":
        return orthogonal(self)


def span(points) -> Subspace:
    """Subspace spanned by the given points (independent subset extracted)."""
    pts = list(points)
    if not pts:
        raise ValueError("span of an empty family is not represented")
    space = pts[0].space
    basis = []
    for x in pts:
        rows = [b.coords for b in basis]
        if _rank(rows + [x.coords], space.p) > len(basis):
            basis.append(x)
    return Subspace(space, tuple(basis))


def orthogonal(sub: Subspace) -> Subspace:
    """The orthogonal complement under the standard bilinear form."""
    space = sub.space
    null_rows = _null_space([b.coords for b in sub.basis], space.p, space.d)
    basis = tuple(Point(space, tuple(r)) for r in null_rows)
    return Subspace(space, basis)


def hyperplane_translates(space: Space, xi: Point):
    """The p sets {x : x . xi = c} for c = 0 .. p-1, as PointSets."""
    from .sets import PointSet
    from .tables import coords_matrix

    if xi.is_zero():
        raise ValueError("xi must be nonzero")
    _require_same_space(space.zero(), xi)
    dots = coords_matrix(space.p, space.d) @ np.array(xi.coords) % space.p
    return [PointSet.from_indices(space, np.flatnonzero(dots == c).tolist())
            for c in range(space.p)]


def _row_reduce(rows, p: int):
    """Reduced row echelon form over F_p, by Gauss-Jordan elimination.

    Returns (reduced rows, pivot columns); the rank is the number of
    pivots and the nonzero rows come first.
    """
    m = [[v % p for v in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def _rank(rows, p: int) -> int:
    return len(_row_reduce(rows, p)[1])


def _inverse(mat, p: int) -> list:
    """Inverse of a square matrix over F_p, from [mat | I] reduced."""
    n = len(mat)
    aug = [list(row) + [int(i == k) for k in range(n)]
           for i, row in enumerate(mat)]
    m, pivots = _row_reduce(aug, p)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in m]


def _null_space(rows, p: int, ncols: int):
    """Basis of {x : rows @ x = 0} over F_p."""
    m, pivots = _row_reduce(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-m[r][fc]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# canonical forms under point symmetries


def canonical_form(E, group: str = "translations"):
    """Minimal image of a PointSet under a symmetry group.

    group="translations": minimum over all p^d translates.
    group="affine": minimum over the full affine group (d <= 2 only);
    the group is enumerated outright, (p^2-1)(p^2-p)p^2 maps for d=2.
    Minimality means the smallest bitmask, i.e. lexicographic on sorted
    point indices.
    """
    space = E.space
    from .sets import PointSet
    from .tables import add_table, min_images

    if group == "translations":
        perms = add_table(space.p, space.d)
    elif group == "affine":
        if space.d > 2:
            raise ValueError("affine canonical form is only supported for d <= 2")
        perms = affine_permutation_array(space.p, space.d)
    else:
        raise ValueError(f"unknown group {group!r}")
    rep = min_images(perms, [E.indices()])[0]
    return PointSet.from_indices(space, rep.tolist())


@lru_cache(maxsize=None)
def gl_matrices(p: int, d: int):
    """All invertible d x d matrices over F_p (rows are images of basis vectors)."""
    if d == 1:
        return tuple(((a,),) for a in range(1, p))
    if d != 2:
        raise ValueError("gl_matrices is only provided for d <= 2")
    mats = []
    for a, b, c, e in itertools.product(range(p), repeat=4):
        if (a * e - b * c) % p != 0:
            mats.append(((a, b), (c, e)))
    return tuple(mats)


@lru_cache(maxsize=None)
def affine_permutation_array(p: int, d: int) -> np.ndarray:
    """(maps, p^d) int16, read-only: row g is the point-index permutation
    of the map x -> Mx + t, d <= 2; entry [g, i] is the image of point i.

    Maps run over gl_matrices(p, d) and, for each matrix, over t in
    index order.  Size (p^2-1)(p^2-p)p^2 for d=2.
    """
    from .tables import add_table, coords_matrix

    n = Space(p, d).order
    mats = np.array(gl_matrices(p, d), dtype=np.int64)
    # image index of x under each linear map: sum_j x_j * row_j
    lin = (coords_matrix(p, d) @ mats % p) @ p ** np.arange(d)     # (maps, n)
    perms = add_table(p, d)[lin[:, None, :], np.arange(n)[:, None]]
    perms = perms.reshape(-1, n)
    perms.flags.writeable = False
    return perms
