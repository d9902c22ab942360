import numpy as np
import pytest

import oracles as O
from ffspec.tables import (add_table, difference, direction_reps, line_sups,
                           line_table, pair_direction_table, pair_line_table,
                           plane_counts)


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_direction_table_oracle(p):
    pts = O.all_points(p, 2)
    dirs = sorted({O.canon_dir(p, v) for v in pts if any(v)},
                  key=lambda v: O.point_index(p, v))
    table = pair_direction_table(p)
    assert table.shape == (p * p, p * p) and table.dtype == np.int8
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            want = -1 if i == j else dirs.index(
                O.canon_dir(p, tuple((a - b) % p for a, b in zip(x, y))))
            assert table[i, j] == want


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


@pytest.mark.parametrize("p,d", [(3, 3), (5, 2), (5, 3), (7, 3)])
def test_plane_counts_oracle(p, d, rng):
    n = p ** d
    size = min(n, 2 * p + 1)
    rows = np.array([rng.choice(n, size=size, replace=False)
                     for _ in range(12)])
    counts = plane_counts(p, d, rows)
    assert counts.shape == (len(direction_reps(p, d)), len(rows), p)
    assert np.issubdtype(counts.dtype, np.integer)
    for r, row in enumerate(rows):
        assert np.array_equal(counts[:, r], _oracle_plane_counts(p, d, row))
    # any leading batch shape; a single row; an empty row
    batch = plane_counts(p, d, rows.reshape(3, 4, size))
    assert np.array_equal(batch, counts.reshape(-1, 3, 4, p))
    assert np.array_equal(plane_counts(p, d, rows[0]), counts[:, 0])
    empty = plane_counts(p, d, np.zeros(0, dtype=np.int64))
    assert empty.shape == (len(direction_reps(p, d)), p)
    assert not empty.any()


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


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)])
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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_line_table_oracle(p):
    lines = line_table(p, 2)
    table = pair_line_table(p)
    n = p * p
    assert table.shape == (n, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert table[i, j] == -1
            else:
                assert i in lines[table[i, j]] and j in lines[table[i, j]]
