"""Exact and floating Fourier analysis on F_p^d.

Conventions: for a set E (or integer function f),

    fhat(xi) = p^(-d) * sum_x f(x) exp(-2 pi i (x . xi) / p)
    f(x)     = sum_xi fhat(xi) exp(+2 pi i (x . xi) / p)
    sum_x |f(x)|^2 = p^d * sum_xi |fhat(xi)|^2

Exact zero testing never touches floats: a character sum is stored as
the p residue-class counts c_j = #{x in E : x . xi = j}, and the value
sum_j c_j zeta^j vanishes over the cyclotomic integers iff all counts
are equal (the minimal polynomial of zeta over Q is 1 + x + ... +
x^(p-1)).  zero_set reads these counts for every canonical direction
at once from tables.plane_words, the one equidistribution count, as
packed words: a direction is a zero exactly when its word is the one
with all p counts equal to |E| / p.  character_sum keeps its own count
for a single xi, as the independent side of that check.  Floating
values exist for diagnostics only.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .sets import PointSet, QuotientFunction
from .space import Point, Space, _require_same_space
from .tables import (coords_matrix, direction_masks, plane_words,
                     uniform_word)


@dataclass(frozen=True)
class CharacterSum:
    """Exact value of sum_{x in E} zeta^(x . xi), zeta = exp(-2 pi i / p).

    Stored as residue-class counts; counts[j] = #{x : x . xi = j}.
    """

    p: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("need one count per residue class")

    def is_zero(self) -> bool:
        return len(set(self.counts)) == 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def value(self) -> complex:
        """Floating approximation of the raw sum (diagnostic only)."""
        return sum(c * cmath.exp(-2j * cmath.pi * j / self.p)
                   for j, c in enumerate(self.counts))


@dataclass(frozen=True)
class EquidistProfile:
    """Counts |E ∩ {x : x . xi = c}| for c = 0 .. p-1."""

    xi: Point
    counts: tuple

    def is_constant(self) -> bool:
        return len(set(self.counts)) == 1


def _residue_counts(E: PointSet, xi: Point) -> tuple:
    _require_same_space(E.space.zero(), xi)
    p, d = E.space.p, E.space.d
    dots = coords_matrix(p, d)[E.indices()] @ np.array(xi.coords) % p
    return tuple(int(c) for c in np.bincount(dots, minlength=p))


def character_sum(E: PointSet, xi: Point) -> CharacterSum:
    return CharacterSum(E.space.p, _residue_counts(E, xi))


def equidist_profile(E: PointSet, xi: Point) -> EquidistProfile:
    if xi.is_zero():
        raise ValueError("xi must be nonzero")
    return EquidistProfile(xi, _residue_counts(E, xi))


def zero_directions(p: int, d: int, rows) -> np.ndarray:
    """(n_dirs, ...) bool over index rows of shape (..., m): the
    transform of the row's set vanishes along canonical direction k.

    The p plane counts along a direction must all equal m / p, so the
    packed word must be uniform_word(p, m // p).  An empty row vanishes
    everywhere.  The counts of a row sum to m, so a row of size prime to
    p never matches and vanishes nowhere.
    """
    m = np.shape(rows)[-1]
    zero = plane_words(p, d, rows) == uniform_word(p, m // p)
    return zero.transpose(-1, *range(zero.ndim - 1))


def zero_set(E: PointSet) -> PointSet:
    """All nonzero xi with fhat_E(xi) = 0, exactly.

    Computed once per canonical direction and expanded to scalar
    multiples: x . (c xi) runs over the same hyperplane partition, so
    the transform vanishes at xi iff it vanishes at every c xi, c != 0.
    """
    p, d = E.space.p, E.space.d
    zero = zero_directions(p, d, np.array(E.indices(), dtype=np.int64))
    return PointSet(E.space, sum(compress(direction_masks(p, d), zero)))


def zero_set_contains(E: PointSet, xi: Point) -> bool:
    return character_sum(E, xi).is_zero()


# ---------------------------------------------------------------------------
# floating side


def _value_array(f) -> np.ndarray:
    if isinstance(f, PointSet):
        arr = np.zeros(f.space.order)
        arr[f.indices()] = 1.0
        return arr
    if isinstance(f, QuotientFunction):
        return np.array(f.values, dtype=float)
    raise TypeError("expected a PointSet or QuotientFunction")


def float_dft(f) -> np.ndarray:
    """Normalized transform as a flat complex array over xi index.

    Index layout matches point indexing (coordinate 0 least
    significant), via an axis-per-coordinate FFT.
    """
    space = f.space
    p, d = space.p, space.d
    grid = _value_array(f).reshape((p,) * d, order="F")
    out = np.fft.fftn(grid) / space.order
    return np.asarray(out.reshape(-1, order="F"))


def float_inverse(fhat: np.ndarray, space: Space) -> np.ndarray:
    """Reconstruction sum_xi fhat(xi) e^(+2 pi i x.xi/p); no extra factor."""
    p, d = space.p, space.d
    grid = np.asarray(fhat).reshape((p,) * d, order="F")
    out = np.fft.ifftn(grid) * space.order
    return np.asarray(out.reshape(-1, order="F"))


def plancherel_check(f) -> float:
    """Relative defect |sum|f|^2 - p^d sum|fhat|^2| / max(1, sum|f|^2)."""
    space = f.space
    vals = _value_array(f)
    lhs = float(np.sum(vals * vals))
    fhat = float_dft(f)
    rhs = space.order * float(np.sum(np.abs(fhat) ** 2))
    return abs(lhs - rhs) / max(1.0, lhs)


def convolve(f: QuotientFunction, g: QuotientFunction) -> QuotientFunction:
    """Exact integer cyclic convolution (f*g)(x) = sum_y f(y) g(x-y)."""
    if f.space != g.space:
        raise ValueError("mismatched spaces")
    space = f.space
    p, d = space.p, space.d
    fa = np.array(f.values, dtype=np.int64).reshape((p,) * d, order="F")
    ga = np.array(g.values, dtype=np.int64).reshape((p,) * d, order="F")
    out = np.zeros_like(fa)
    # direct sum over the support of f; exact integer arithmetic
    for yidx in np.argwhere(fa):
        y = tuple(int(v) for v in yidx)
        out += fa[y] * np.roll(ga, shift=y, axis=tuple(range(d)))
    flat = out.reshape(-1, order="F")
    return QuotientFunction(space, tuple(int(v) for v in flat))
