import hashlib
import itertools
import math

import numpy as np
import pytest

import oracles as O
from ffspec.lemmas import _translates
from ffspec.tables import (WORD_BLOCK, _subset_runs, add_table,
                           bytes_at_least, combination_array,
                           combination_words, difference, direction_reps,
                           line_sups, line_table,
                           orthogonal_direction_bits,
                           pair_directions, pair_indices, plane_counts,
                           plane_word_table, plane_words, subset_rows,
                           subset_words, uniform_word)

_ALL_SPACES = [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)]


@pytest.mark.parametrize("p,d", [(3, 1), (5, 2), (3, 3), (7, 3)])
def test_add_and_difference_oracle(p, d):
    pts = O.all_points(p, d)
    idx = np.arange(p ** d)
    add = add_table(p, d)
    diff = difference(p, d, idx[:, None], idx)
    for i in range(0, p ** d, 5):
        for j in range(p ** d):
            x, y = pts[i], pts[j]
            assert add[i, j] == O.point_index(
                p, tuple((a + b) % p for a, b in zip(x, y)))
            assert diff[i, j] == O.point_index(
                p, tuple((a - b) % p for a, b in zip(x, y)))


def _oracle_plane_counts(p, d, row):
    """(n_dirs, p) counts of the row's points on x . rep = c, by coordinates."""
    pts = O.all_points(p, d)
    reps = sorted({O.canon_dir(p, v) for v in pts if any(v)},
                  key=lambda v: O.point_index(p, v))
    out = np.zeros((len(reps), p), dtype=int)
    for k, rep in enumerate(reps):
        for i in row:
            out[k, sum(a * b for a, b in zip(pts[i], rep)) % p] += 1
    return out


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_plane_counts_oracle(p, d, rng):
    n = p ** d
    n_dirs = len(direction_reps(p, d))
    size = min(n, 2 * p + 1)
    rows = np.array([rng.choice(n, size=size, replace=False)
                     for _ in range(12)])
    counts = plane_counts(p, d, rows)
    assert counts.shape == (n_dirs, len(rows), p)
    assert np.issubdtype(counts.dtype, np.integer)
    for r, row in enumerate(rows):
        assert np.array_equal(counts[:, r], _oracle_plane_counts(p, d, row))
    # any leading batch shape; a single row; an empty row
    batch = plane_counts(p, d, rows.reshape(3, 4, size))
    assert np.array_equal(batch, counts.reshape(-1, 3, 4, p))
    assert np.array_equal(plane_counts(p, d, rows[0]), counts[:, 0])
    empty = plane_counts(p, d, np.zeros(0, dtype=np.int64))
    assert empty.shape == (n_dirs, p)
    assert not empty.any()
    # the whole space puts p^(d-1) points on every plane: 49 in F_7^3,
    # the most a byte counter ever holds
    full = plane_counts(p, d, np.arange(n))
    assert full.shape == (n_dirs, p)
    assert (full == p ** (d - 1)).all()
    assert np.array_equal(full, _oracle_plane_counts(p, d, range(n)))


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_plane_word_table(p, d):
    n_dirs = len(direction_reps(p, d))
    table = plane_word_table(p, d)
    assert table.shape == (p ** d, n_dirs)
    assert table.dtype == np.dtype("<u4" if p == 3 else "<u8")
    assert not table.flags.writeable
    # one byte set per entry, at the residue x . rep_k
    for x in range(p ** d):
        assert np.array_equal(plane_counts(p, d, np.array([x])),
                              _oracle_plane_counts(p, d, [x]))
    assert (plane_words(p, d, np.arange(p ** d))
            == uniform_word(p, p ** (d - 1))).all()


@pytest.mark.parametrize("p,d,m", [(3, 3, 6), (7, 2, 7)])
def test_plane_words_row_blocks_match_one_gather(p, d, m, rng):
    table = plane_word_table(p, d)
    for n in (WORD_BLOCK - 1, WORD_BLOCK, WORD_BLOCK + 1, 2 * WORD_BLOCK + 3):
        rows = rng.integers(p ** d, size=(n, m)).astype(np.int8)
        want = table[rows.T.astype(np.intp)].sum(axis=0, dtype=table.dtype)
        got = plane_words(p, d, rows)
        assert got.dtype == table.dtype
        assert np.array_equal(got, want), n
        # a leading batch shape is flattened into the same row blocks
        batch = plane_words(p, d, np.stack([rows, rows[::-1]]))
        assert np.array_equal(batch, np.stack([want, want[::-1]])), n


def test_plane_words_scratch_is_one_block(traced_peak):
    # 32,768 rows gathered at once would take 10.2 MB of scratch
    rows = combination_array(27, 6)[:32768]
    plane_word_table(3, 3)
    assert traced_peak(plane_words, 3, 3, rows) < 5e6


# (p, d, point list, r): the tables the sweeps read, an unsorted list,
# and the edges r = 0, r = m and r > m
_WORD_TABLES = [
    (7, 2, tuple(range(49)), 3),
    (7, 2, tuple(i for i in range(49) if i not in (0, 1, 7)), 3),
    (3, 3, tuple(range(27)), 4),
    (5, 3, (124, 3, 60, 7, 99, 0, 31), 4),
    (3, 2, (4, 8, 1), 0),
    (3, 2, (4, 8, 1), 3),
    (3, 2, (4, 8, 1), 4),
]


@pytest.mark.parametrize("p,d,points,r", _WORD_TABLES)
def test_combination_words_oracle(p, d, points, r):
    got = combination_words(p, d, points, r)
    n = math.comb(len(points), r)
    rows = np.array(list(itertools.combinations(points, r)),
                    dtype=np.int64).reshape(n, r)
    assert got.dtype == plane_word_table(p, d).dtype
    assert not got.flags.writeable
    assert got.shape == (n, len(direction_reps(p, d)))
    assert np.array_equal(got, plane_words(p, d, rows))


@pytest.mark.parametrize("p,d,points,r", _WORD_TABLES[:3])
def test_combination_words_scratch_is_the_level_below(traced_peak, p, d,
                                                      points, r):
    # the level below, C(m, r - 1) rows, is all the scratch: under one
    # WORD_BLOCK of words, where plane_words would gather r of them
    plane_word_table(p, d)
    table = combination_words(p, d, points, r)
    peak = traced_peak(combination_words.__wrapped__, p, d, points, r)
    below = math.comb(len(points), r - 1) * table.itemsize * table.shape[1]
    assert below < peak - table.nbytes < WORD_BLOCK * table[0].nbytes


def _subsets_at(m, r, lo, hi):
    """Positions of the r-subsets of range(m) at lexicographic ranks
    lo .. hi - 1: rank lo unranked digit by digit, then successors."""
    count, c, start = min(hi, math.comb(m, r)) - lo, [], 0
    if count <= 0:
        return []
    for k in range(r, 0, -1):
        while lo >= math.comb(m - 1 - start, k - 1):
            lo -= math.comb(m - 1 - start, k - 1)
            start += 1
        c.append(start)
        start += 1
    rows = [list(c)]
    for _ in range(count - 1):
        k = r - 1
        while c[k] == m - r + k:
            k -= 1
        c[k:] = range(c[k] + 1, c[k] + 1 + r - k)
        rows.append(list(c))
    return rows


_REST = tuple(i for i in range(49) if i not in (0, 1, 7))
# (p, d, anchor, points, r): lm1 and lm2 direct, lm1 and lm2 reduced,
# the F_3^3 six-sets through 0 and all of them, an unsorted point list,
# and the edges r = 0 and r > m
_SUBSET_FAMILIES = [
    (7, 2, (0,), range(1, 49), 4),
    (7, 2, (0,), range(1, 49), 6),
    (7, 2, (0, 1, 7), _REST, 2),
    (7, 2, (0, 1, 7), _REST, 4),
    (3, 3, (0,), range(1, 27), 5),
    (3, 3, (), range(27), 6),
    (5, 3, (3,), (124, 60, 7, 99, 0, 31), 5),
    (3, 2, (4,), (8, 1), 0),
    (3, 2, (), (4, 8, 1), 4),
]


@pytest.mark.parametrize("p,d,anchor,points,r", _SUBSET_FAMILIES)
def test_subset_words_and_rows_oracle(p, d, anchor, points, r):
    m, t = len(points), min(r, 3)
    n = math.comb(m, r)
    first_run = math.comb(m - (r - t), t) if r <= m else 0
    # the first rows, across the end of the first run, across many runs,
    # the last rows, the last row and past the end, and lo == hi
    ranges = [(0, 1), (first_run - 3, first_run + 3),
              (n // 2 - 1500, n // 2 + 1500), (n - 3000, n),
              (n - 1, n + 40), (n // 3, n // 3)]
    for lo, hi in ranges:
        lo = max(lo, 0)
        rows = np.array([sorted((*anchor, *(points[i] for i in c)))
                         for c in _subsets_at(m, r, lo, hi)],
                        dtype=np.int64).reshape(-1, len(anchor) + r)
        words = subset_words(p, d, anchor, points, r, lo, hi)
        assert words.dtype == plane_word_table(p, d).dtype
        assert np.array_equal(words, plane_words(p, d, rows)), (lo, hi)
        got = subset_rows(p, d, anchor, points, r,
                          np.arange(lo, lo + len(rows)))
        assert got.tolist() == rows.tolist(), (lo, hi)


@pytest.mark.parametrize("p,d,anchor,points,r", _SUBSET_FAMILIES)
def test_subset_runs_one_per_lead(p, d, anchor, points, r):
    # a lead of r - 3 points (none for r <= 3) owns the run of the
    # 3-subsets after it, if it has 3 points after it
    t = min(r, 3)
    starts, heads, at, bases, tails = _subset_runs(p, d, anchor,
                                                   tuple(points), r)
    m = len(points)
    leads = [c for c in itertools.combinations(range(m), r - t)
             if m - 1 - max(c, default=-1) >= t]
    assert heads.tolist() == [[*anchor, *(points[i] for i in c)]
                              for c in leads]
    assert np.diff(starts).tolist() == [
        math.comb(m - 1 - max(c, default=-1), t) for c in leads]
    assert len(tails) == math.comb(m, t)


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_bytes_at_least_oracle(p, d, rng):
    n = p ** d
    rows = [rng.choice(n, size=size, replace=False)
            for size in (0, 1, p, min(n, 2 * p + 1), min(n, p * p), n)
            for _ in range(4)]
    for row in rows:
        words = plane_words(p, d, row)                # (n_dirs,)
        counts = plane_counts(p, d, row)              # (n_dirs, p)
        for k in range(1, p + 2):
            assert np.array_equal(bytes_at_least(p, words, k),
                                  (counts >= k).sum(axis=-1)), (row, k)


def _planted_row(rng, p, d, size, on_line):
    """size random points of F_p^d, on_line of them on one random line."""
    pts = O.all_points(p, d)
    base = pts[int(rng.integers(p ** d))]
    vec = pts[int(rng.integers(1, p ** d))]
    row = {O.point_index(p, tuple((b + t * v) % p for b, v in zip(base, vec)))
           for t in range(on_line)}
    while len(row) < size:
        row.add(int(rng.integers(p ** d)))
    return sorted(row)


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_line_sups_oracle(p, d, rng):
    # t planted collinear points for every t reach each run threshold
    # C(t, 2) - 1 of the sorted pair line ids
    pts = O.all_points(p, d)
    n = p ** d
    for size in sorted({0, 1, 2, min(n, p + 1), min(n, 2 * p + 1)}):
        for t in range(min(size, p) + 1):
            rows = np.array([_planted_row(rng, p, d, size, t)
                             for _ in range(4)]).reshape(4, size)
            want = [O.line_sup(p, d, [pts[i] for i in row]) for row in rows]
            assert min(want) >= t
            got = line_sups(p, d, rows)
            assert got.shape == (4,)
            assert got.tolist() == want
            assert [int(line_sups(p, d, row)) for row in rows] == want
            assert np.array_equal(line_sups(p, d, rows.reshape(2, 2, size)),
                                  got.reshape(2, 2))
            assert np.array_equal(
                line_sups(p, d, rows, pair_directions(p, d, rows)), got)


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_pair_directions_oracle(p, d, rng):
    pts = O.all_points(p, d)
    reps = [pts[i] for i in direction_reps(p, d)]
    n = p ** d
    for size in sorted({0, 1, 2, 3, min(n, p + 1), min(n, 2 * p + 1)}):
        rows = np.array([np.sort(rng.choice(n, size, replace=False))
                         for _ in range(6)]).reshape(6, size)
        want = [[reps.index(O.canon_dir(p, tuple(
                    (a - b) % p for a, b in zip(pts[row[i]], pts[row[j]]))))
                 for i, j in zip(*pair_indices(size))] for row in rows]
        for dtype in (np.int16, np.int64):
            got = pair_directions(p, d, rows.astype(dtype))
            assert got.shape == (6, size * (size - 1) // 2)
            assert got.tolist() == want
            assert np.array_equal(
                pair_directions(p, d, rows.astype(dtype).reshape(2, 3, size)),
                got.reshape(2, 3, -1))
            assert pair_directions(p, d, rows[0].astype(dtype)).tolist() \
                == want[0]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_orthogonal_direction_bits_oracle(p):
    pts = O.all_points(p, 3)
    reps = [pts[i] for i in direction_reps(p, 3)]
    bits = orthogonal_direction_bits(p, 3)
    assert bits.dtype == np.uint64 and bits.shape == (len(reps),)
    for k, normal in enumerate(reps):
        want = sum(1 << j for j, rep in enumerate(reps)
                   if sum(a * b for a, b in zip(rep, normal)) % p == 0)
        assert int(bits[k]) == want


# sha256 of line_table(p, d).tobytes() as built by the per-base-point
# loop; the vectorized build must give the same bytes
_LINE_TABLE_SHA256 = {
    (3, 1): "ad5dc1478de06a4c2728ea528bd9361a4b945e92a414bf4d180cedaaeaa5f4cc",
    (3, 2): "83448484d136cbb5b5892a2202f983d870f79a921aca583d4026fe87a012c5f7",
    (3, 3): "a3a532b9d7f6cd51dfffdab1b9cb279584b14b91d4a2753b741588bffcfd0498",
    (5, 1): "e528f4309e1413e6bc35aea5d8db8519384d2fcc33f9dd5d1126d73f104cf92a",
    (5, 2): "b343055c60d223dd5159c804a66e8231506f9f4bae1599ef86e7113ff7e432cf",
    (5, 3): "f73aca7eaa14a738c6675c63ee3c4e69cc264958054bae837f738aa977402345",
    (7, 1): "e1a613aa4b331588d97b5feef1faabe8e8138d8c488ee9122b8533bfdda3c189",
    (7, 2): "237749cea15e864148bbf018e59b1b8edd6ab170825afda258a54b7eb65ea7c4",
    (7, 3): "cf21919eb31bfd8adfea536086a213ccac329b4693c27901737928e2b5c3f670",
}


@pytest.mark.parametrize("p,d", sorted(_LINE_TABLE_SHA256))
def test_line_table_bytes_pinned(p, d):
    table = line_table(p, d)
    assert table.dtype == np.int32 and table.shape[1] == p
    assert hashlib.sha256(table.tobytes()).hexdigest() == \
        _LINE_TABLE_SHA256[(p, d)]
    assert {frozenset(row.tolist()) for row in table} == {
        frozenset(O.point_index(p, pt) for pt in line)
        for line in O.all_lines(p, d)}


@pytest.mark.parametrize("p,d", sorted(_LINE_TABLE_SHA256))
def test_translation_reps_match_canonical_form(p, d, rng):
    # lemmas._translates lists every translate of a set once, from
    # add_table; the least of their bitmasks is the translation class's
    # canonical form
    n = p ** d
    pts = O.all_points(p, d)
    for size in sorted({0, 1, 2, p, n // 2, n - 1, n}):
        for _ in range(6):
            row = sorted(rng.choice(n, size, replace=False).tolist())
            got = [c["set"] for c in _translates(p, d, [{"set": row}])]
            # every translate, by brute force
            want = {tuple(sorted(O.point_index(p, x) for x in O.translate(
                p, [pts[i] for i in row], t))) for t in pts}
            assert got == sorted(map(list, want))
            assert min(sum(1 << i for i in r) for r in got) == min(
                sum(1 << i for i in r) for r in want)


# (m, r) shapes: those the sweeps and their tests build (lm1 and lm2
# direct and reduced, slab-p3 and fuglede-3-3 and the full enumeration
# their tests weigh against, the leads and tail rows of subset_words,
# fuglede-3-2, fuglede-5-2 at sizes 1, 5, 25), and the (48 - i, 4) and
# (48 - i, 5) subsets above each point i of the direct sweeps
_SWEEP_SHAPES = sorted(
    {(48 - i0, 4) for i0 in range(45)} | {(48 - i1, 5) for i1 in range(1, 44)}
    | {(46, 2), (46, 4), (26, 5), (27, 6), (24, 0), (24, 4), (24, 24)}
    | {(48, 1), (48, 3), (46, 0), (46, 1), (46, 3), (26, 2), (26, 3),
       (27, 3)}
    | {(9, r) for r in range(1, 10)})


@pytest.mark.parametrize("m", range(0, 9))
def test_combination_array_edges(m):
    for r in sorted({0, 1, m, m // 2, m + 1}):
        _assert_combinations(m, r)


def test_combination_array_sweep_shapes():
    for m, r in _SWEEP_SHAPES:
        _assert_combinations(m, r)


def _assert_combinations(m, r):
    # uncached, so the large shapes do not stay in the test process
    got = combination_array.__wrapped__(m, r)
    want = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(m), r)), dtype=np.int8)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert got.shape == (math.comb(m, r), r)
    assert got.tobytes() == want.tobytes(), (m, r)
