import numpy as np
import pytest

import oracles as O
from ffspec.tables import add_table, difference, pair_direction_table


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
