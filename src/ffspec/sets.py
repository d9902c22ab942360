"""Subsets of F_p^d as point indices, integer functions on F_p^d and
file I/O.

A PointSet stores its space and its point indices, one sorted tuple of
distinct ints, and its constructor is the one builder.  bit_rows packs
boolean rows into Python-int bitmasks, the searches' adjacency and
translate rows; the clique stage is keyed by zero directions
(tables.direction_points), never by a set.  The on-disk format is ASCII:

    # optional comment lines
    p 7
    d 3
    0 0 0
    1 2 3

Body lines hold d space-separated integers in [0, p).  No integer of
the file holds a "_" digit separator.  Duplicate points are an error,
an empty body is a valid empty set.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .space import Space, coords_to_index
from .tables import coords_matrix


class SetFormatError(ValueError):
    """Raised for malformed set files."""


def bit_rows(bits) -> list:
    """Python-int bitmasks of boolean rows: bits of shape (..., k) give
    nested lists of the leading shape, and bit j of entry [...] is set
    where bits[..., j] is.  One np.packbits pass; each packed row comes
    out as one bytes object and becomes one int.from_bytes."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    w = packed.shape[-1]
    if w == 0:
        return np.zeros(packed.shape[:-1], dtype=int).tolist()
    rows = np.ascontiguousarray(packed).reshape(-1, w).view(f"V{w}")
    rows = rows.ravel().tolist()
    out = list(map(int.from_bytes, rows, repeat("little")))
    for k in reversed(packed.shape[1:-1]):
        out = [out[i:i + k] for i in range(0, len(out), k)]
    return out


@dataclass(frozen=True)
class PointSet:
    """A set of points of a space, held as its point indices: built from
    any iterable of integers (numpy ones included), stored as one sorted
    tuple in which repeats count once."""

    space: Space
    points: tuple

    def __post_init__(self):
        points = tuple(sorted(set(map(operator.index, self.points))))
        if points and (points[0] < 0 or points[-1] >= self.space.order):
            bad = points[0] if points[0] < 0 else points[-1]
            raise ValueError(f"point index {bad} out of range")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_coords(cls, space: Space, coord_rows) -> "PointSet":
        """The set of the given coordinate rows, each reduced mod p."""
        indices = []
        for row in coord_rows:
            if len(row) != space.d:
                raise ValueError("coordinate count does not match dimension")
            indices.append(coords_to_index(row, space.p))
        return cls(space, indices)

    @property
    def size(self) -> int:
        return len(self.points)

    def indices(self) -> list:
        return list(self.points)

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


def _ints(tokens: list):
    """The integers that set file tokens spell, or None; int() alone
    would also read PEP 515 digit separators, 0_7 as 7."""
    try:
        return None if "_" in "".join(tokens) else [int(t) for t in tokens]
    except ValueError:
        return None


def read_set(path) -> PointSet:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()       # at \n, \r\n and \r alone
    p = d = None
    rows = []
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise SetFormatError(f"line {lineno}: non-ASCII byte") from None
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if d is None:
            key = "p" if p is None else "d"
            if parts[0] != key or len(parts) != 2:
                raise SetFormatError(f"line {lineno}: expected '{key} <int>' header")
            value = _ints(parts[1:])
            if value is None:
                raise SetFormatError(f"line {lineno}: bad {key} value {parts[1]!r}")
            p, d = (value[0], None) if p is None else (p, value[0])
            try:    # the space is checked before any body line
                space = None if d is None else Space(p, d)
            except ValueError as exc:
                raise SetFormatError(str(exc)) from None
            continue
        if len(parts) != d:
            raise SetFormatError(f"line {lineno}: expected {d} coordinates")
        coords = _ints(parts)
        if coords is None:
            raise SetFormatError(f"line {lineno}: non-integer coordinate")
        if any(not 0 <= c < p for c in coords):
            raise SetFormatError(f"line {lineno}: coordinate out of range [0, {p})")
        rows.append((lineno, tuple(coords)))
    if d is None:
        raise SetFormatError("missing 'p'/'d' header lines")
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
