"""Subsets of F_p^d as bitmasks, plus quotient counts and file I/O.

This module owns everything that builds a PointSet from the index
tables: translates, projections and canonical forms.  project_along
and quotient_cell_index read the coset layout of tables.line_table
(through line_of) and invert no matrix.

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

from dataclasses import dataclass

import numpy as np

from .space import Point, Space, _require_same_space
from .tables import (add_table, affine_permutation_array, coords_matrix,
                     dir_of_index, line_of, min_images)


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
        for i in indices:
            if not 0 <= i < space.order:
                raise ValueError(f"point index {i} out of range")
            mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def from_points(cls, space: Space, points) -> "PointSet":
        for pt in points:
            _require_same_space(space.zero(), pt)
        return cls.from_indices(space, [pt.index for pt in points])

    @classmethod
    def from_coords(cls, space: Space, coord_rows) -> "PointSet":
        return cls.from_points(space, [space.point(r) for r in coord_rows])

    @classmethod
    def empty(cls, space: Space) -> "PointSet":
        return cls(space, 0)

    @classmethod
    def full(cls, space: Space) -> "PointSet":
        return cls(space, (1 << space.order) - 1)

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

    def points(self) -> list:
        return [self.space.point_at(i) for i in self.indices()]

    def coord_rows(self) -> list:
        """Coordinate rows in index order; the JSON witness format."""
        return coords_matrix(self.space.p, self.space.d)[self.indices()].tolist()

    def contains(self, x: Point) -> bool:
        _require_same_space(self.space.zero(), x)
        return bool(self.mask >> x.index & 1)

    def complement(self) -> "PointSet":
        return PointSet(self.space, self.mask ^ ((1 << self.space.order) - 1))

    def __or__(self, other: "PointSet") -> "PointSet":
        _require_same_space(self.space.zero(), other.space.zero())
        return PointSet(self.space, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        _require_same_space(self.space.zero(), other.space.zero())
        return PointSet(self.space, self.mask & other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        _require_same_space(self.space.zero(), other.space.zero())
        return PointSet(self.space, self.mask & ~other.mask)

    def __iter__(self):
        return iter(self.points())


def translate(E: PointSet, x: Point) -> PointSet:
    _require_same_space(E.space.zero(), x)
    space = E.space
    row = add_table(space.p, space.d)[x.index, E.indices()]
    return PointSet.from_indices(space, row.tolist())


@dataclass(frozen=True)
class QuotientFunction:
    """An integer-valued function on a space, one value per point index.

    project_along produces these with values in [0, p]; exact
    convolution may produce larger values.
    """

    space: Space
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.space.order:
            raise ValueError("value table does not match space order")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be nonnegative integers")

    @property
    def total(self) -> int:
        return sum(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def _cells(space: Space, delta, indices) -> np.ndarray:
    """Quotient-space index of the coset of span(delta) through each
    point index: its line_of id, less the p^(d-1) lines of each
    direction before delta's."""
    _require_same_space(space.zero(), delta.rep)
    p, d = space.p, space.d
    k = int(dir_of_index(p, d)[delta.rep.index])
    return line_of(p, d)[k, indices] - k * p ** (d - 1)


def quotient_cell_index(space: Space, delta, x: Point) -> int:
    """Index of the coset of span(delta) containing x, in the quotient space."""
    return int(_cells(space, delta, [x.index])[0])


def project_along(E: PointSet, delta) -> QuotientFunction:
    """Coset counts |E ∩ (c + span(delta))| laid out on the quotient space."""
    space = E.space
    if space.d < 2:
        raise ValueError("projection needs d >= 2")
    quot = Space(space.p, space.d - 1)
    values = np.bincount(_cells(space, delta, E.indices()), minlength=quot.order)
    p = space.p
    out = QuotientFunction(quot, tuple(int(v) for v in values))
    assert all(v <= p for v in out.values)
    return out


def indicator(E: PointSet) -> QuotientFunction:
    """The 0/1 function of a set, on its own space."""
    vals = [0] * E.space.order
    for i in E.indices():
        vals[i] = 1
    return QuotientFunction(E.space, tuple(vals))


def canonical_form(E: PointSet, group: str = "translations") -> PointSet:
    """Minimal image of a PointSet under a symmetry group.

    group="translations": minimum over all p^d translates.
    group="affine": minimum over the full affine group (d <= 2 only);
    the group is enumerated outright, (p^2-1)(p^2-p)p^2 maps for d=2.
    Minimality means the smallest bitmask, i.e. lexicographic on sorted
    point indices.
    """
    space = E.space
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
