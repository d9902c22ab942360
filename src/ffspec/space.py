"""The space F_p^d and its value types: points and directions.

Points are indexed 0 .. p^d - 1 with coordinate 0 in the least
significant base-p digit, so index = sum(coords[i] * p**i).  Point is
the single-point value type; operations on sets of points work on
these indices and read the cached tables in tables.py.  All arithmetic
is exact integer arithmetic mod p.

This module owns the one F_p elimination routine (_rank) and
quotient_basis, built on it: the complement basis from which
tables.line_table lays out cosets.  It imports no other module of the
package.
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

    def __add__(self, other: "Point") -> "Point":
        _require_same_space(self, other)
        p = self.space.p
        return Point(self.space, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def scale(self, c: int) -> "Point":
        p = self.space.p
        return Point(self.space, tuple((c * a) % p for a in self.coords))


def _require_same_space(x, y):
    if x.space != y.space:
        raise ValueError(f"mismatched spaces: {x.space} vs {y.space}")


@dataclass(frozen=True)
class Direction:
    """A 1-dimensional subspace, stored by its canonical representative.

    The representative scales the vector so that its lowest-index
    nonzero coordinate equals 1.
    """

    space: Space
    rep: Point

    @property
    def index(self) -> int:
        return self.rep.index


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


def _rank(rows, p: int) -> int:
    """Rank over F_p, by forward elimination: each pivot row clears its
    column from the rows below it, and the rank is the pivot count."""
    m = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank
