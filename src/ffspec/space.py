"""The space F_p^d and its value types: points, directions, subspaces.

Points are indexed 0 .. p^d - 1 with coordinate 0 in the least
significant base-p digit, so index = sum(coords[i] * p**i).  Point is
the single-point value type; operations on sets of points work on
these indices and read the cached tables in tables.py.  All arithmetic
is exact integer arithmetic mod p.

This module owns the one F_p elimination routine (_row_reduce) and
what is built on single points with it: spans, orthogonal complements
and quotient_basis, the complement basis from which tables.line_table
lays out cosets.  It imports no other module of the package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


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


def quotient_basis(space: Space, delta: Direction) -> list:
    """Deterministic complement basis for the quotient by a direction.

    Takes the d-1 standard basis vectors of lowest index that stay
    independent from delta, in increasing index order.  tables.line_table
    lays out the cosets of span(delta) with it.
    """
    chosen = []
    for i in range(space.d):
        e = tuple(int(i == j) for j in range(space.d))
        rows = [delta.rep.coords] + chosen + [e]
        if _rank(rows, space.p) == len(rows):
            chosen.append(e)
        if len(chosen) == space.d - 1:
            break
    return [space.point(c) for c in chosen]


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
