import hashlib
import itertools
import math

import numpy as np
import pytest

import oracles as O
from ffspec import PointSet, Space, canonical_form
from ffspec.tables import (add_table, bytes_at_least, combination_array,
                           difference, direction_reps, line_sups, line_table,
                           min_images, plane_counts, plane_word_table,
                           plane_words, uniform_word)

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
    pts = O.all_points(p, d)
    n = p ** d
    for size in sorted({0, 1, 2, min(n, p + 1), min(n, 2 * p + 1)}):
        rows = np.array([_planted_row(rng, p, d, size, int(rng.integers(size + 1)))
                         for _ in range(8)], dtype=np.int64).reshape(8, size)
        want = [O.line_sup(p, d, [pts[i] for i in row]) for row in rows]
        got = line_sups(p, d, rows)
        assert got.shape == (8,)
        assert got.tolist() == want
        assert [int(line_sups(p, d, row)) for row in rows] == want
        assert np.array_equal(line_sups(p, d, rows.reshape(2, 4, size)),
                              got.reshape(2, 4))


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
    space = Space(p, d)
    n = p ** d
    for size in sorted({0, 1, 2, p, n // 2, n - 1, n}):
        rows = np.sort(np.array([rng.choice(n, size, replace=False)
                                 for _ in range(6)]).reshape(6, size), axis=1)
        got = min_images(add_table(p, d), rows)
        assert got.shape == rows.shape
        for row, rep in zip(rows, got):
            E = PointSet.from_indices(space, row.tolist())
            # the smallest bitmask over all translates, by brute force
            best = min(sum(1 << int(i) for i in t)
                       for t in add_table(p, d)[:, row])
            assert PointSet.from_indices(space, rep.tolist()).mask == best
            assert canonical_form(E).mask == best


# the (m, r) shapes the sweeps build: lm1 and lm2 direct and reduced,
# slab-p3 and fuglede-3-3, fuglede-3-2, fuglede-5-2 at sizes 1, 5, 25
_SWEEP_SHAPES = sorted(
    {(48 - i0, 4) for i0 in range(45)} | {(48 - i1, 5) for i1 in range(1, 44)}
    | {(46, 2), (46, 4), (27, 6), (24, 0), (24, 4), (24, 24)}
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
