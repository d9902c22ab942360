"""Cached numpy lookup tables for a space: the one index arithmetic.

Point is the single-point value type; every set-level operation works
on integer point indices and reads the tables here.  Sums come from
add_table, differences from add_table and the negation row of
scale_tables (difference), directions from dir_of_index.

plane_words is the one equidistribution count: how many points of an
index row lie on each hyperplane x . rep = c, for every canonical
direction rep at once.  The p counts of one direction are packed as
bytes of one little-endian word (byte c counts the plane x . rep = c),
gathered from plane_word_table and summed over the row.  A plane of
F_p^d holds at most p^(d-1) <= 49 points, so no byte carries into the
next.  In F_7^2 the planes are lines, so the words also count the
points of a row on every line; lm1, lm2 and proj21 read them (proj21
adds the words of its three support rows), and no table here is
indexed by point pairs.  The zero set of a Fourier transform,
slab-p3 and the plane_concentration and slab_parity pruning rules read
the words directly, through uniform_word and bytes_at_least;
plane_counts is their byte view, which geometry.plane_sup reads.
line_sups is the per-line half: the most points of an index row on one
affine line, which line concentration reads.
min_images is the one class key: the smallest-bitmask image of each
index row under a permutation table, add_table for translation classes
and affine_permutation_array for affine ones.  All arrays are integer
or boolean dtypes; nothing here rounds.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .space import Space, all_directions


@lru_cache(maxsize=None)
def coords_matrix(p: int, d: int) -> np.ndarray:
    """(p^d, d) int16 array, row i = coordinates of point index i."""
    n = p ** d
    out = np.zeros((n, d), dtype=np.int16)
    idx = np.arange(n)
    for k in range(d):
        out[:, k] = idx % p
        idx //= p
    return out


@lru_cache(maxsize=None)
def direction_reps(p: int, d: int) -> np.ndarray:
    """Point indices of the canonical direction representatives, sorted."""
    space = Space(p, d)
    return np.array([dr.index for dr in all_directions(space)], dtype=np.int64)


@lru_cache(maxsize=None)
def plane_word_table(p: int, d: int) -> np.ndarray:
    """(p^d, n_dirs) read-only packed plane indicators: byte c of entry
    [x, k] is 1 when x . rep_k = c mod p, every other byte 0.

    Words are little-endian <u4 for p = 3 and <u8 for p = 5, 7, so byte
    c is bits 8c .. 8c + 7 on any host.
    """
    coords = coords_matrix(p, d).astype(np.int64)
    dots = (coords @ coords[direction_reps(p, d)].T) % p    # (p^d, n_dirs)
    dtype = np.dtype("<u4" if p == 3 else "<u8")
    out = np.left_shift(1, 8 * dots).astype(dtype)
    out.flags.writeable = False
    return out


def plane_words(p: int, d: int, rows) -> np.ndarray:
    """Packed plane counts of index rows: shape (..., m) gives (..., n_dirs).

    Byte c of word [..., k] counts the points x of the row with
    x . rep_k = c.  Gathered with the point axis first and summed over
    it.  Not cached; the rows are the caller's.
    """
    table = plane_word_table(p, d)
    rows = np.asarray(rows, dtype=np.intp)
    # transpose, not np.moveaxis: a one-row call is a few microseconds
    points_first = rows.transpose(-1, *range(rows.ndim - 1))
    return table[points_first].sum(axis=0, dtype=table.dtype)


def uniform_word(p: int, c: int) -> int:
    """The packed word whose p plane counts all equal c."""
    return c * ((1 << 8 * p) - 1) // 255


def bytes_at_least(p: int, words: np.ndarray, k: int) -> np.ndarray:
    """How many of the p plane counts in each packed word are >= k,
    for 1 <= k <= 128.

    A count b <= 49 has b + 128 - k >= 128 exactly when b >= k, and the
    sum stays below 256, so bit 7 of every byte holds the answer and no
    carry crosses a byte.
    """
    high = (words + uniform_word(p, 128 - k)) & uniform_word(p, 0x80)
    return np.bitwise_count(high)


def plane_counts(p: int, d: int, rows) -> np.ndarray:
    """Points of each index row on each hyperplane x . rep = c: the byte
    view of plane_words.

    rows holds point indices, shape (..., m).  The result has shape
    (n_dirs, ..., p), dtype uint8: entry [k, ..., c] counts the points x
    of the row with x . rep_k = c.
    """
    words = plane_words(p, d, rows)
    counts = words[..., None].view(np.uint8)[..., :p]   # (..., n_dirs, p)
    return counts.transpose(-2, *range(counts.ndim - 2), -1)


def line_sups(p: int, d: int, rows) -> np.ndarray:
    """Most points of each index row on one affine line.

    rows holds point indices, shape (..., m); the result has shape (...).
    Per direction the row's line ids are sorted, so r + 1 points share a
    line exactly when s[..., r:] == s[..., :-r] holds somewhere.  Not
    cached; the rows are the caller's.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.shape[-1]
    s = np.sort(line_of(p, d)[:, rows], axis=-1)      # (n_dirs, ..., m)
    sup = np.full(rows.shape[:-1], min(m, 1), dtype=np.int64)
    for r in range(1, min(m, p)):
        hit = (s[..., r:] == s[..., :-r]).any(axis=(0, -1))
        if not hit.any():
            break                     # no run of r + 1, so none longer
        sup += hit
    return sup


@lru_cache(maxsize=None)
def direction_masks(p: int, d: int) -> tuple:
    """Per canonical direction, the bitmask of its p - 1 nonzero points."""
    ids = dir_of_index(p, d)
    return tuple(sum(1 << int(i) for i in np.flatnonzero(ids == k))
                 for k in range(len(direction_reps(p, d))))


@lru_cache(maxsize=None)
def add_table(p: int, d: int) -> np.ndarray:
    """(p^d, p^d) int16 table: entry [i, j] is the index of point i + point j."""
    coords = coords_matrix(p, d)
    out = np.zeros((p ** d, p ** d), dtype=np.int16)
    for k in range(d):
        col = coords[:, k]
        out += (col[:, None] + col[None, :]) % p * np.int16(p ** k)
    return out


def min_images(perms, rows) -> np.ndarray:
    """Smallest-bitmask image of each index row under the rows of a
    permutation table, as sorted point indices.

    Row g of perms maps point i to perms[g, i]: add_table gives the
    translations, affine_permutation_array the affine maps.  rows holds
    point indices, shape (n, m); so does the result.  The smallest
    bitmask has the smallest largest index, then the smallest next one,
    and so on, so each image is sorted descending and the candidates are
    narrowed one position at a time.  Not cached.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    # (maps, n, m): every image of every row, descending
    images = np.sort(perms[:, rows], axis=-1)[..., ::-1]
    best = np.ones(images.shape[:2], dtype=bool)
    for k in range(rows.shape[1]):
        col = np.where(best, images[..., k], perms.shape[1])
        best &= col == col.min(axis=0)
    return images[best.argmax(axis=0), np.arange(n), ::-1]


# bounded: at n = 343 one entry holds 0.9 MB
@lru_cache(maxsize=32)
def pair_indices(n: int) -> tuple:
    """np.triu_indices(n, 1), read-only: the index pairs i < j of an
    n-point row."""
    ii, jj = np.triu_indices(n, k=1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def difference(p: int, d: int, a, b) -> np.ndarray:
    """Index of point a - point b, elementwise over broadcast index arrays."""
    return add_table(p, d)[a, scale_tables(p, d)[p - 1][b]]


@lru_cache(maxsize=None)
def scale_tables(p: int, d: int) -> np.ndarray:
    """(p, p^d) table: row c is the index of c*x for each point index x."""
    coords = coords_matrix(p, d).astype(np.int64)
    powers = p ** np.arange(d)
    out = np.zeros((p, p ** d), dtype=np.int32)
    for c in range(p):
        out[c] = ((coords * c) % p) @ powers
    return out


@lru_cache(maxsize=None)
def line_table(p: int, d: int) -> np.ndarray:
    """(n_lines, p) point indices of every affine line, duplicate-free.

    Lines are grouped by canonical direction; within a direction the
    base points run over the quotient transversal in index order.
    """
    from .sets import quotient_basis

    space = Space(p, d)
    powers = p ** np.arange(d)
    # every combination of quotient basis coefficients, in index order
    quot = coords_matrix(p, d - 1).astype(np.int64)
    blocks = []
    for dr in all_directions(space):
        bmat = np.array([b.coords for b in quotient_basis(space, dr)],
                        dtype=np.int64).reshape(d - 1, d)
        steps = np.arange(p)[:, None] * np.array(dr.rep.coords, dtype=np.int64)
        # (base points, p, d): base point b plus t * rep, t = 0..p-1
        blocks.append(((quot @ bmat)[:, None, :] + steps) % p @ powers)
    return np.concatenate(blocks).astype(np.int32)


@lru_cache(maxsize=None)
def line_of(p: int, d: int) -> np.ndarray:
    """(n_dirs, p^d) int16: entry [k, x] is the line_table row of the
    line through point x in canonical direction k."""
    lines = line_table(p, d)
    lid = np.arange(len(lines))[:, None]
    out = np.empty((len(direction_reps(p, d)), p ** d), dtype=np.int16)
    # line ids are contiguous per direction: p^(d-1) lines each
    out[lid // p ** (d - 1), lines] = lid
    return out


@lru_cache(maxsize=None)
def dir_of_index(p: int, d: int) -> np.ndarray:
    """(p^d,) int16: canonical direction id of each nonzero point; -1 at 0."""
    out = np.full(p ** d, -1, dtype=np.int16)
    scl = scale_tables(p, d)
    for k, rep in enumerate(direction_reps(p, d)):
        out[scl[1:, rep]] = k
    return out


@lru_cache(maxsize=None)
def direction_orthogonality(p: int, d: int) -> np.ndarray:
    """(n_dirs, n_dirs) bool: rep_i . rep_j = 0."""
    coords = coords_matrix(p, d).astype(np.int64)
    reps = coords[direction_reps(p, d)]
    return ((reps @ reps.T) % p) == 0


@lru_cache(maxsize=None)
def combination_array(m: int, r: int) -> np.ndarray:
    """(C(m, r), r) int8 array of r-subsets of range(m), lexicographic.

    Built one column at a time.  Column k holds values up to
    hi = m - r + k, so a prefix ending in c is followed by c + 1 .. hi,
    in order, which keeps the rows lexicographic.  Every such run ends
    at hi, so the new column is a running sum of steps of 1 that restart
    at c + 1 where each prefix's run begins.  Temporaries above int8 are
    int32 and hold one entry per prefix.
    """
    out = np.zeros((1 if r <= m else 0, 0), dtype=np.int8)
    last = np.full(len(out), -1, dtype=np.int8)
    for k in range(r):
        hi = m - r + k
        counts = hi - last                   # run length of each prefix
        starts = np.cumsum(counts, dtype=np.int32) - counts
        step = np.ones(counts.sum(), dtype=np.int8)
        step[starts] = last + 1 - hi
        step[starts[:1]] = last[:1] + 1
        last = np.cumsum(step, dtype=np.int8)
        grown = np.empty((len(last), k + 1), dtype=np.int8)
        for j in range(k):
            grown[:, j] = np.repeat(out[:, j], counts)
        grown[:, k] = last
        out = grown
    return out
