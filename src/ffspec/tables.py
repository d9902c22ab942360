"""Cached numpy lookup tables for a space: the one index arithmetic.

Points are integer indices (see space.py); every operation on them
reads the tables here, and coords_matrix gives their coordinates.  Sums come from
add_table, differences from add_table and the negation row of
scale_tables (difference), the direction of a point from dir_of_index,
and the line and direction of a pair of points from pair_lines.  A set
of directions is a direction key, an int with bit k for direction k;
fourier.zero_keys builds keys from plane_words, direction_points
expands one to its points for zero_set and the shared clique stage.

plane_words is the one equidistribution count: how many points of an
index row lie on each hyperplane x . rep = c, for every canonical
direction rep at once.  The p counts of one direction are packed as
bytes of one little-endian word (byte c counts the plane x . rep = c),
gathered from plane_word_table and summed over the row.  Its scratch
is one WORD_BLOCK = 4,096-row gather, whatever the caller passes.  A
plane of F_p^d holds at most p^(d-1) <= 49 points, so no byte carries
into the next.  In F_7^2 the planes are lines, so the words also
count the points of a row on every line; lm1, lm2 and proj21 read them
(proj21 adds the words of its three support rows).  fourier.zero_keys,
slab-p3 and the plane_concentration pruning rule read the words
directly, through uniform_word and bytes_at_least; plane_counts is
their byte view, which geometry.plane_sup reads.
combination_words caches the words of every r-subset of a point list,
in combination_array order.  subset_words reads any range of rows of
the sets anchor + S, S over the r-subsets of a point list, each as a
base word plus one such table row, and subset_rows gives the sets at
chosen rows; lm1, lm2, slab-p3 and the fuglede sweeps (3-3, 3-2 and
5-2) read their sets so.
line_of names every affine line: the line through x in direction k has
id k * p^d plus its least point index, so two points share an id
exactly when they lie on one line of one direction.  pair_lines is the
one table indexed by point pairs: entry x * p^d + y is the id of the
line through x and y.  pair_line_ids is the one pair kernel, one gather
from it per row set: line_sups (the most points of a row on one affine
line) sorts its ids, and pair_directions divides them by p^d for the
direction counts and the spectral pair criterion (pruning_rule divides
the ids it already holds for the plane directions).

A symmetry group is named by its linear maps alone:
linear_permutation_array holds the invertible linear maps of a line or
a plane, and the affine map x -> Mx + t is the linear row followed by
column t of add_table, so no table of affine maps is built.

This module owns every cached index table, the permutation tables
included; sets builds PointSets on top of it, and it imports only
space.  All arrays are integer or boolean dtypes; nothing here rounds.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .space import Space


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only; every cached table goes out so, since all
    later callers in the process, and forked workers, share it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def coords_matrix(p: int, d: int) -> np.ndarray:
    """(p^d, d) int16 array, row i = coordinates of point index i.

    It cannot check Space(p, d) first, as the other (p, d) builders do:
    linear_permutation_array reads coords_matrix(p, d^2) as its list of
    d x d matrices."""
    n = p ** d
    out = np.zeros((n, d), dtype=np.int16)
    idx = np.arange(n)
    for k in range(d):
        out[:, k] = idx % p
        idx //= p
    return read_only(out)


@lru_cache(maxsize=None)
def direction_reps(p: int, d: int) -> np.ndarray:
    """Point indices of the canonical direction representatives, sorted:
    the nonzero points whose lowest-index nonzero coordinate is 1."""
    Space(p, d)
    coords = coords_matrix(p, d)
    lead = coords[np.arange(p ** d), (coords != 0).argmax(axis=1)]
    return read_only(np.flatnonzero(lead == 1).astype(np.int64))


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
    return read_only(np.left_shift(1, 8 * dots).astype(dtype))


WORD_BLOCK = 1 << 12


def plane_words(p: int, d: int, rows) -> np.ndarray:
    """Packed plane counts of index rows: shape (..., m) gives (..., n_dirs).

    Byte c of word [..., k] counts the points x of the row with
    x . rep_k = c.  Gathered with the point axis first and summed over
    it, WORD_BLOCK rows at a time.  Not cached; the rows are the caller's.
    """
    table = plane_word_table(p, d)
    rows = np.asarray(rows)
    if rows.size > rows.shape[-1] * WORD_BLOCK:      # over WORD_BLOCK rows
        flat = rows.reshape(-1, rows.shape[-1])
        out = np.empty((len(flat), table.shape[1]), dtype=table.dtype)
        for a in range(0, len(flat), WORD_BLOCK):
            out[a:a + WORD_BLOCK] = plane_words(p, d, flat[a:a + WORD_BLOCK])
        return out.reshape(*rows.shape[:-1], -1)
    rows = rows.astype(np.intp, copy=False)
    # transpose, not np.moveaxis: a one-row call is a few microseconds
    points_first = rows.transpose(-1, *range(rows.ndim - 1))
    return table[points_first].sum(axis=0, dtype=table.dtype)


@lru_cache(maxsize=None)
def combination_words(p: int, d: int, points: tuple, r: int) -> np.ndarray:
    """(C(m, r), n_dirs) read-only, m = len(points): the packed plane
    words of every r-subset of the point list, plane_words(p, d,
    points[combination_array(m, r)]), rows in combination_array order.

    Built one subset size s at a time.  The s-subsets that begin with
    points[i] are points[i] followed by each (s - 1)-subset of
    points[i + 1:], and those are the last C(m - 1 - i, s - 1) rows of
    the level below, in order.  So each level is one add per row, with
    no gather, and its only scratch is the level below: C(m, r - 1)
    rows, fewer than WORD_BLOCK for every table the sweeps read.
    """
    table = plane_word_table(p, d)
    m = len(points)
    words = np.zeros((1, table.shape[1]), dtype=table.dtype)  # the empty set
    for s in range(1, r + 1):
        below = words
        words = np.empty((math.comb(m, s), table.shape[1]), dtype=table.dtype)
        lo = 0
        for i in range(m - s + 1):
            run = math.comb(m - 1 - i, s - 1)
            np.add(below[len(below) - run:], table[points[i]],
                   out=words[lo:lo + run])
            lo += run
    return read_only(words)


@lru_cache(maxsize=None)
def _subset_runs(p: int, d: int, anchor: tuple, points: tuple,
                 r: int) -> tuple:
    """(starts, heads, at, bases, tails) of subset_words.  S is a lead of
    r - t points, t = min(r, 3), then a t-subset of the points after the
    lead, which ends at position j (-1 if empty): one of the last
    C(m - 1 - j, t) rows of tails = combination_words(p, d, points, t).
    So each lead with a tail owns a run: row g of run k, starts[k] <= g
    < starts[k + 1], is heads[k] (anchor + lead, whose word is bases[k])
    plus tail row at[k] + g.
    """
    t, m = min(r, 3), len(points)
    leads = combination_array(m, r - t)
    ends = leads[:, -1] + 1 if r > t else np.zeros(len(leads), np.intp)
    sizes = np.array([math.comb(m - j, t) for j in range(m + 1)])[ends]
    heads = np.hstack([np.tile(np.array(anchor, dtype=np.intp),
                               (len(leads), 1)),
                       np.array(points, dtype=np.intp)[leads]])[sizes > 0]
    sizes = sizes[sizes > 0]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    tails = combination_words(p, d, points, t)
    at = len(tails) - sizes - starts[:-1]
    return tuple(map(read_only, (starts, heads, at, plane_words(p, d, heads),
                                 tails)))


def subset_words(p: int, d: int, anchor, points, r: int, lo: int,
                 hi: int) -> np.ndarray:
    """plane_words of rows [lo, hi) of the sets anchor + S, S over the
    r-subsets of the point list in combination_array order; hi is
    clipped to C(len(points), r), as a slice is.  A row's word is its
    run's base word plus one row of a cached table (_subset_runs): one
    add per run that meets the range.  Not cached.
    """
    starts, _, at, bases, tails = _subset_runs(p, d, tuple(anchor),
                                               tuple(points), r)
    lo, hi = min(lo, hi, starts[-1]), min(hi, starts[-1])
    out = np.empty((hi - lo, tails.shape[1]), dtype=tails.dtype)
    k = int(np.searchsorted(starts, lo, "right")) - 1
    while k < len(bases) and starts[k] < hi:
        x, y = max(lo, starts[k]), min(hi, starts[k + 1])
        np.add(tails[at[k] + x:at[k] + y], bases[k], out=out[x - lo:y - lo])
        k += 1
    return out


def subset_rows(p: int, d: int, anchor, points, r: int,
                positions) -> np.ndarray:
    """The sets at the given row positions of subset_words, as index
    rows sorted along each row."""
    starts, heads, at, _, _ = _subset_runs(p, d, tuple(anchor),
                                           tuple(points), r)
    pos = np.asarray(positions, dtype=np.intp)
    k = np.searchsorted(starts, pos, "right") - 1
    h = heads.shape[1]
    tail = combination_array(len(points), len(anchor) + r - h)[at[k] + pos]
    rows = np.empty((len(pos), h + tail.shape[1]), dtype=np.intp)
    rows[:, :h], rows[:, h:] = heads[k], np.array(points, dtype=np.intp)[tail]
    rows.sort(axis=1)
    return rows


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


def pair_line_ids(p: int, d: int, rows) -> np.ndarray:
    """pair_lines id of every unordered pair of each index row, in
    pair_indices order: (..., m) gives (..., C(m, 2)) int16, one gather.
    Not cached."""
    rows = np.asarray(rows, dtype=np.intp)
    ii, jj = pair_indices(rows.shape[-1])
    # int16 indices gather at half the speed of intp ones
    return pair_lines(p, d)[(rows * p ** d)[..., ii] + rows[..., jj]]


def pair_directions(p: int, d: int, rows) -> np.ndarray:
    """Direction id of every unordered pair of each index row, in
    pair_indices order: (..., m) gives (..., C(m, 2)) int16, the pair's
    line id (pair_line_ids) divided by p^d.  Not cached."""
    return pair_line_ids(p, d, rows) // p ** d


def line_sups(p: int, d: int, rows) -> np.ndarray:
    """Most points of each index row on one affine line.

    rows holds point indices, shape (..., m); the result has shape (...).
    pair_line_ids names each pair's line, and t points share a line
    exactly when C(t, 2) sorted line ids are equal: s[..., r:] ==
    s[..., :-r] somewhere, for r = C(t, 2) - 1.  Not cached.
    """
    rows = np.asarray(rows)
    m = rows.shape[-1]
    s = np.sort(pair_line_ids(p, d, rows), axis=-1)
    sup = np.full(rows.shape[:-1], min(m, 2), dtype=np.int64)
    for t in range(3, min(m, p) + 1):
        r = t * (t - 1) // 2 - 1
        hit = (s[..., r:] == s[..., :-r]).any(axis=-1)
        if not hit.any():
            break                     # no t points on a line, so no more
        sup += hit
    return sup


@lru_cache(maxsize=None)
def orthogonal_direction_bits(p: int, d: int) -> np.ndarray:
    """(n_dirs,) uint64: bit j of entry k is set when rep_j . rep_k = 0,
    for n_dirs <= 64 (every d = 3 space here)."""
    reps = coords_matrix(p, d)[direction_reps(p, d)].astype(np.int64)
    orth = ((reps @ reps.T) % p == 0).astype(np.uint64)
    return read_only((orth << np.arange(len(orth), dtype=np.uint64))
                     .sum(1, np.uint64))


@lru_cache(maxsize=None)
def add_table(p: int, d: int) -> np.ndarray:
    """(p^d, p^d) int16 table: entry [i, j] is the index of point i + point j."""
    n = Space(p, d).order
    coords = coords_matrix(p, d)
    out = np.zeros((n, n), dtype=np.int16)
    # one (n, n) temporary, updated in place: the three temporaries of
    # an expression per coordinate raised a falsify run's peak RSS by
    # 0.2 MiB at (7, 3)
    term = np.empty_like(out)
    for k in range(d):
        col = coords[:, k]
        np.add(col[:, None], col[None, :], out=term)
        term %= p
        term *= np.int16(p ** k)
        out += term
    return read_only(out)


@lru_cache(maxsize=None)
def linear_permutation_array(p: int, d: int) -> np.ndarray:
    """(maps, p^d) int16, read-only: row m is the point-index permutation
    of the invertible linear map x -> Mx, d <= 2; entry [m, i] is the
    image of point i.  The affine map x -> Mx + t sends point i to
    add_table(p, d)[row[i], t], so no table of affine maps is kept.

    Row j of M is the image of basis vector j, and the matrices run in
    lexicographic order of their entries read row by row, which is the
    index order of coords_matrix(p, d^2) with the columns reversed.
    (p^2-1)(p^2-p) maps for d=2: 480 rows, 24 KB, at p = 5.
    """
    Space(p, d)
    if d > 2:
        raise ValueError("linear_permutation_array is only provided for d <= 2")
    mats = coords_matrix(p, d * d)[:, ::-1].reshape(-1, d, d).astype(np.int64)
    det = mats[:, 0, 0] if d == 1 else (mats[:, 0, 0] * mats[:, 1, 1]
                                        - mats[:, 0, 1] * mats[:, 1, 0])
    mats = mats[det % p != 0]
    # image index of x under each linear map: sum_j x_j * row_j
    lin = (coords_matrix(p, d) @ mats % p) @ p ** np.arange(d)     # (maps, n)
    return read_only(lin.astype(np.int16))


# bounded: at n = 343 one entry holds 0.9 MB
@lru_cache(maxsize=32)
def pair_indices(n: int) -> tuple:
    """np.triu_indices(n, 1), read-only: the index pairs i < j of an
    n-point row."""
    return tuple(map(read_only, np.triu_indices(n, k=1)))


def difference(p: int, d: int, a, b) -> np.ndarray:
    """Index of point a - point b, elementwise over broadcast index arrays."""
    flat = np.asarray(a, dtype=np.intp) * p ** d + scale_tables(p, d)[p - 1][b]
    return add_table(p, d).ravel()[flat]


@lru_cache(maxsize=None)
def scale_tables(p: int, d: int) -> np.ndarray:
    """(p, p^d) table: row c is the index of c*x for each point index x."""
    n = Space(p, d).order
    coords = coords_matrix(p, d).astype(np.int64)
    powers = p ** np.arange(d)
    out = np.zeros((p, n), dtype=np.int32)
    for c in range(p):
        out[c] = ((coords * c) % p) @ powers
    return read_only(out)


@lru_cache(maxsize=None)
def line_of(p: int, d: int) -> np.ndarray:
    """(n_dirs, p^d) int16: entry [k, x] is k * p^d plus the least point
    index of the line x + F_p rep_k.  Below n_dirs * p^d <= 57 * 343,
    so the ids fit int16."""
    steps = scale_tables(p, d)[:, direction_reps(p, d)]     # (p, n_dirs)
    # add_table is symmetric, so row s of it is s + x for every x; a
    # running minimum over the steps c * rep, c = 1 .. p - 1, holds one
    # (n_dirs, p^d) block at a time, and step 0 adds x itself
    table = add_table(p, d)
    least = table[steps[1]]
    for c in range(2, p):
        np.minimum(least, table[steps[c]], out=least)
    np.minimum(least, np.arange(p ** d, dtype=least.dtype), out=least)
    least += p ** d * np.arange(len(least), dtype=np.int16)[:, None]
    return read_only(least)


@lru_cache(maxsize=None)
def pair_lines(p: int, d: int) -> np.ndarray:
    """(p^d * p^d,) int16, read-only: entry x * p^d + y is the line_of id
    of the line through points x and y, and -1 where x = y.

    y - x is c * rep_k for exactly one step c = 1 .. p - 1 and direction
    k, so the pairs of one step are add_table[steps[c]] (entry [k, x] is
    x + c * rep_k), scattered with line_of's ids one (n_dirs, p^d) block
    at a time.  235 KB at (7, 3).
    """
    n = Space(p, d).order
    steps = scale_tables(p, d)[:, direction_reps(p, d)]     # (p, n_dirs)
    table, ids = add_table(p, d), line_of(p, d)
    out = np.full(n * n, -1, dtype=np.int16)
    row_starts = n * np.arange(n)                           # x * p^d
    for c in range(1, p):
        flat = table[steps[c]].astype(np.intp)
        flat += row_starts
        out[flat] = ids
    return read_only(out)


@lru_cache(maxsize=None)
def dir_of_index(p: int, d: int) -> np.ndarray:
    """(p^d,) int16: canonical direction id of each nonzero point; -1 at 0."""
    out = np.full(p ** d, -1, dtype=np.int16)
    scl = scale_tables(p, d)
    for k, rep in enumerate(direction_reps(p, d)):
        out[scl[1:, rep]] = k
    return read_only(out)


def direction_points(p: int, d: int, key: int) -> np.ndarray:
    """The nonzero points, ascending, whose canonical direction k
    (dir_of_index) has bit k set in the direction key: the zero set of
    a transform that vanishes along exactly those directions.  Not
    cached."""
    dirs = dir_of_index(p, d)
    on = [key >> k & 1 for k in range(len(direction_reps(p, d)))]
    # point 0, of direction -1, reads the trailing 0
    return np.flatnonzero(np.array(on + [0], dtype=bool)[dirs])


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
    return read_only(out)
