"""The space F_p^d and its value types: points and directions.

Points are indexed 0 .. p^d - 1 with coordinate 0 in the least
significant base-p digit, so index = sum(coords[i] * p**i).  Point is
the single-point value type; operations on sets of points work on
these indices and read the cached tables in tables.py.  All arithmetic
is exact integer arithmetic mod p.

The direction list is built by index arithmetic in tables.direction_reps
and viewed as Direction objects through geometry.all_directions.  This
module imports no other module of the package.
"""
from __future__ import annotations

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
