"""Subsets of F_p^d as bitmasks, integer functions on F_p^d and file I/O.

A PointSet stores its space and a bit vector of length p^d packed into
a Python int; bit i is point index i.  The on-disk format is ASCII:

    # optional comment lines
    p 7
    d 3
    0 0 0
    1 2 3

Body lines hold d space-separated integers in [0, p).  Duplicate points
are an error, an empty body is a valid empty set.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .space import Space, coords_to_index
from .tables import coords_matrix


class SetFormatError(ValueError):
    """Raised for malformed set files."""


@dataclass(frozen=True)
class PointSet:
    space: Space
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.space.order:
            raise ValueError("mask has bits outside the space")

    @classmethod
    def from_indices(cls, space: Space, indices) -> "PointSet":
        mask = 0
        for i in map(operator.index, indices):
            if not 0 <= i < space.order:
                raise ValueError(f"point index {i} out of range")
            mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def from_coords(cls, space: Space, coord_rows) -> "PointSet":
        """The set of the given coordinate rows, each reduced mod p."""
        indices = []
        for row in coord_rows:
            if len(row) != space.d:
                raise ValueError("coordinate count does not match dimension")
            indices.append(coords_to_index(row, space.p))
        return cls.from_indices(space, indices)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def coord_rows(self) -> list:
        """Coordinate rows in index order; the JSON witness format."""
        return coords_matrix(self.space.p, self.space.d)[self.indices()].tolist()


@dataclass(frozen=True)
class QuotientFunction:
    """A nonnegative integer function on a space, one value per point
    index: indicator gives the 0/1 function of a set, and
    fourier.convolve its exact sums of products.
    """

    space: Space
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.space.order:
            raise ValueError("value table does not match space order")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative integers")


def indicator(E: PointSet) -> QuotientFunction:
    """The 0/1 function of a set, on its own space."""
    vals = [0] * E.space.order
    for i in E.indices():
        vals[i] = 1
    return QuotientFunction(E.space, tuple(vals))


# ---------------------------------------------------------------------------
# file I/O


def read_set(path) -> PointSet:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    p = d = None
    rows = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if p is None:
            if parts[0] != "p" or len(parts) != 2:
                raise SetFormatError(f"line {lineno}: expected 'p <int>' header")
            try:
                p = int(parts[1])
            except ValueError:
                raise SetFormatError(f"line {lineno}: bad p value {parts[1]!r}") from None
            continue
        if d is None:
            if parts[0] != "d" or len(parts) != 2:
                raise SetFormatError(f"line {lineno}: expected 'd <int>' header")
            try:
                d = int(parts[1])
            except ValueError:
                raise SetFormatError(f"line {lineno}: bad d value {parts[1]!r}") from None
            continue
        if len(parts) != d:
            raise SetFormatError(f"line {lineno}: expected {d} coordinates")
        try:
            coords = [int(v) for v in parts]
        except ValueError:
            raise SetFormatError(f"line {lineno}: non-integer coordinate") from None
        if any(not 0 <= c < p for c in coords):
            raise SetFormatError(f"line {lineno}: coordinate out of range [0, {p})")
        rows.append((lineno, tuple(coords)))
    if p is None or d is None:
        raise SetFormatError("missing 'p'/'d' header lines")
    try:
        space = Space(p, d)
    except ValueError as exc:
        raise SetFormatError(str(exc)) from None
    seen = {}
    for lineno, coords in rows:
        if coords in seen:
            raise SetFormatError(
                f"line {lineno}: duplicate point {coords} (first at line {seen[coords]})")
        seen[coords] = lineno
    return PointSet.from_coords(space, [c for _, c in rows])


def write_set(E: PointSet, path) -> None:
    space = E.space
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"p {space.p}\n")
        fh.write(f"d {space.d}\n")
        for row in E.coord_rows():
            fh.write(" ".join(str(c) for c in row) + "\n")
