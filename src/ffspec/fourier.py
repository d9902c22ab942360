"""Exact and floating Fourier analysis on F_p^d.

Conventions: for a set E (or integer function f),

    fhat(xi) = p^(-d) * sum_x f(x) exp(-2 pi i (x . xi) / p)
    f(x)     = sum_xi fhat(xi) exp(+2 pi i (x . xi) / p)
    sum_x |f(x)|^2 = p^d * sum_xi |fhat(xi)|^2

Exact zero testing never touches floats: a character sum is stored as
the p residue-class counts c_j = #{x in E : x . xi = j}, and the value
sum_j c_j zeta^j vanishes over the cyclotomic integers iff all counts
are equal (the minimal polynomial of zeta over Q is 1 + x + ... +
x^(p-1)).  tables.plane_words packs these counts for every canonical
direction at once, and zero_keys is the one zero test: bit k of a key
is set when word k has all p counts equal to |E| / p.  zero_set, the
spectral pair criterion and the sweeps read these keys.  Floating
values exist for diagnostics only.
"""
from __future__ import annotations

import numpy as np

from .sets import PointSet, QuotientFunction
from .tables import direction_points, plane_words, uniform_word


def zero_keys(p: int, words: np.ndarray, m: int) -> np.ndarray:
    """Direction keys of sets of size m from their packed plane words
    (tables.plane_words, subset_words): shape (..., n_dirs) gives (...),
    and bit k is set when the transform vanishes along direction k.

    The p plane counts along a direction must all equal m / p, so the
    word must be uniform_word(p, m // p).  An empty row vanishes
    everywhere.  The counts of a row sum to m, so a row of size prime to
    p never matches and vanishes nowhere.  Keys are the narrowest
    little-endian uints of n_dirs bits: u1 at d <= 2, and u2, u4 and u8
    at F_3^3, F_5^3 and F_7^3 (13, 31 and 57 directions).
    """
    zero = np.packbits(words == uniform_word(p, m // p), axis=-1,
                       bitorder="little")
    return zero.view(f"<u{zero.shape[-1]}")[..., 0]


def zero_set(E: PointSet) -> PointSet:
    """All nonzero xi with fhat_E(xi) = 0, exactly.

    Computed once per canonical direction and expanded to scalar
    multiples (tables.direction_points): x . (c xi) runs over the same
    hyperplane partition, so the transform vanishes at xi iff it
    vanishes at every c xi, c != 0.
    """
    p, d = E.space.p, E.space.d
    key = zero_keys(p, plane_words(p, d, E.indices()), E.size)
    return PointSet(E.space, direction_points(p, d, int(key)).tolist())


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
