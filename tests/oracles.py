"""Independent brute-force oracles used to derive and pin expected
values.  Everything here works on plain coordinate tuples with its own
arithmetic, so agreement with the package is a genuine cross-check, not
a tautology.  Slow is fine; clear is mandatory.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np


def all_points(p: int, d: int) -> list:
    return [tuple(reversed(t)) for t in itertools.product(range(p), repeat=d)]
    # reversed so coordinate 0 varies fastest (little-endian order)


def point_index(p: int, coords) -> int:
    return sum(c * p ** i for i, c in enumerate(coords))


def canon_dir(p: int, vec) -> tuple:
    """Scale so the first nonzero coordinate is 1."""
    for c in vec:
        if c % p:
            inv = pow(c, p - 2, p)
            return tuple((inv * v) % p for v in vec)
    raise ValueError("zero vector has no direction")


def direction_set(p: int, pts) -> set:
    out = set()
    for x, y in itertools.combinations(pts, 2):
        out.add(canon_dir(p, tuple((a - b) % p for a, b in zip(x, y))))
    return out


def line_points(p: int, base, vec) -> frozenset:
    return frozenset(
        tuple((b + t * v) % p for b, v in zip(base, vec)) for t in range(p)
    )


@functools.lru_cache(maxsize=None)
def all_lines(p: int, d: int) -> frozenset:
    dirs = {canon_dir(p, v) for v in all_points(p, d) if any(v)}
    return frozenset(line_points(p, base, v)
                     for v in dirs for base in all_points(p, d))


def line_sup(p: int, d: int, pts) -> int:
    pts = set(pts)
    if len(pts) <= 1:
        return len(pts)
    return max(len(pts & ln) for ln in all_lines(p, d))


def plane_sup_3d(p: int, pts) -> int:
    """Max points of E on an affine plane of F_p^3, by normal sweep."""
    pts = list(pts)
    best = 0
    for nrm in all_points(p, 3):
        if not any(nrm):
            continue
        counts = [0] * p
        for x in pts:
            counts[sum(a * b for a, b in zip(x, nrm)) % p] += 1
        best = max(best, max(counts))
    return best


def char_sum(p: int, pts, xi) -> complex:
    """Raw sum (no normalization): zero iff the normalized one is."""
    return sum(
        cmath.exp(-2j * cmath.pi * (sum(a * b for a, b in zip(x, xi)) % p) / p)
        for x in pts
    )


def zero_set(p: int, d: int, pts) -> set:
    out = set()
    for xi in all_points(p, d):
        if any(xi) and abs(char_sum(p, pts, xi)) < 1e-9:
            out.add(xi)
    return out


def is_spectral_pair(p: int, d: int, E, A) -> bool:
    if len(set(A)) != len(set(E)):
        return False
    for a1, a2 in itertools.combinations(A, 2):
        diff = tuple((x - y) % p for x, y in zip(a1, a2))
        if abs(char_sum(p, E, diff)) >= 1e-9:
            return False
    return True


def spectral_exists(p: int, d: int, E) -> bool:
    """Brute force over candidate spectra anchored at 0 (the pair
    criterion only sees differences, so anchoring loses nothing)."""
    E = list(E)
    n = len(E)
    if n == 0:
        return False
    zero = tuple([0] * d)
    others = [x for x in all_points(p, d) if x != zero]
    for rest in itertools.combinations(others, n - 1):
        if is_spectral_pair(p, d, E, (zero,) + rest):
            return True
    return False


def tiles(p: int, d: int, E) -> bool:
    """Brute force over anchored complements, with the one sound
    restriction that translates in A - {0} cannot overlap E itself."""
    E = list(set(E))
    n = p ** d
    if not E or n % len(E):
        return False
    k = n // len(E)
    emask = 0
    for x in E:
        emask |= 1 << point_index(p, x)
    if k == 1:
        return emask == (1 << n) - 1
    shifts = {}
    for a in all_points(p, d):
        m = 0
        for x in E:
            m |= 1 << point_index(p, tuple((u + v) % p for u, v in zip(x, a)))
        shifts[a] = m
    ok = [a for a in all_points(p, d)
          if any(a) and not shifts[a] & emask]
    full = (1 << n) - 1
    for rest in itertools.combinations(ok, k - 1):
        cover = emask
        good = True
        for a in rest:
            m = shifts[a]
            if cover & m:
                good = False
                break
            cover |= m
        if good and cover == full:
            return True
    return False


def is_tiling_pair(p: int, d: int, E, A) -> bool:
    """The translates E + a, a in A, cover every point exactly once."""
    sums = sorted(tuple((x + y) % p for x, y in zip(e, a))
                  for e in E for a in A)
    return sums == sorted(all_points(p, d))


def affine_maps_2d(p: int) -> list:
    """All invertible affine maps of F_p^2 as (matrix, shift)."""
    out = []
    for a, b, c, e in itertools.product(range(p), repeat=4):
        if (a * e - b * c) % p == 0:
            continue
        for tx, ty in itertools.product(range(p), repeat=2):
            out.append(((a, b, c, e), (tx, ty)))
    return out


def apply_affine(p: int, mapping, pt) -> tuple:
    (a, b, c, e), (tx, ty) = mapping
    x, y = pt
    return ((a * x + b * y + tx) % p, (c * x + e * y + ty) % p)


def affine_class_count(p: int, size: int) -> int:
    """Canonicalize every size-subset of F_p^2 by minimal image."""
    maps = affine_maps_2d(p)
    perms = np.array(
        [[point_index(p, apply_affine(p, g, pt)) for pt in all_points(p, 2)]
         for g in maps], dtype=np.int32)
    reps = set()
    for combo in itertools.combinations(range(p * p), size):
        images = np.sort(perms[:, combo], axis=1)
        flat = min(map(tuple, images))
        reps.add(flat)
    return len(reps)


def translation_class_count(p: int, d: int, size: int) -> int:
    pts = all_points(p, d)
    n = p ** d
    reps = set()
    for combo in itertools.combinations(range(n), size):
        sel = [pts[i] for i in combo]
        best = None
        for t in pts:
            img = tuple(sorted(
                point_index(p, tuple((a - b) % p for a, b in zip(x, t)))
                for x in sel))
            if best is None or img < best:
                best = img
        reps.add(best)
    return len(reps)


def filling_count(values: int, length: int, total: int) -> int:
    """Coefficient of x^total in (1 + x + ... + x^(values-1))^length."""
    poly = [1]
    base = [1] * values
    for _ in range(length):
        out = [0] * (len(poly) + values - 1)
        for i, pc in enumerate(poly):
            for j, bc in enumerate(base):
                out[i + j] += pc * bc
        poly = out
    return poly[total] if total < len(poly) else 0


def sumset(p: int, A, B) -> set:
    return {(a + b) % p for a in A for b in B}


def projection_counts(p: int, d: int, pts, delta) -> dict:
    """Counts of E on cosets of span(delta), keyed by coefficients over
    the lowest-index standard basis vectors independent from delta."""
    basis = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        trial = basis + [e, delta]
        mat = [list(v) for v in trial]
        if _rank(mat, p) == len(trial):
            basis.append(e)
        if len(basis) == d - 1:
            break
    cells: dict = {}
    for x in pts:
        for coeffs in itertools.product(range(p), repeat=d - 1):
            for t in range(p):
                cand = [0] * d
                for cf, bv in zip(coeffs, basis):
                    for j in range(d):
                        cand[j] = (cand[j] + cf * bv[j]) % p
                for j in range(d):
                    cand[j] = (cand[j] + t * delta[j]) % p
                if tuple(cand) == tuple(x):
                    cells[coeffs] = cells.get(coeffs, 0) + 1
                    break
            else:
                continue
            break
    return cells


def _rank(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank
