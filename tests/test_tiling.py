import itertools
import sys

import numpy as np
import pytest

import oracles as O
from ffspec import (
    InternalCheckError,
    PointSet,
    Space,
    tiling_search,
    verify_tiling_pair,
)
from ffspec.tiling import tiling_pair_rows


class TestVerify:
    def test_line_times_plane(self):
        spc = Space(7, 3)
        L = PointSet.from_coords(spc, [(t, 0, 0) for t in range(7)])
        A = PointSet.from_coords(
            spc, [(0, y, z) for y in range(7) for z in range(7)])
        assert verify_tiling_pair(L, A)
        assert verify_tiling_pair(A, L)

    def test_overlap_fails(self):
        spc = Space(3, 2)
        E = PointSet.from_coords(spc, [(0, 0), (1, 0), (2, 0)])
        A = PointSet.from_coords(spc, [(0, 0), (1, 0), (0, 1)])
        assert not verify_tiling_pair(E, A)

    def test_partial_cover_fails(self):
        spc = Space(3, 2)
        E = PointSet.from_coords(spc, [(0, 0), (1, 0), (2, 0)])
        A = PointSet.from_coords(spc, [(0, 0), (0, 1)])
        assert not verify_tiling_pair(E, A)

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            verify_tiling_pair(
                PointSet.from_indices(Space(3, 2), [0]),
                PointSet.from_indices(Space(5, 2), [0]))

    def test_trivial(self):
        spc = Space(3, 2)
        assert verify_tiling_pair(PointSet.full(spc),
                                  PointSet.from_indices(spc, [0]))
        assert verify_tiling_pair(PointSet.from_indices(spc, [0]),
                                  PointSet.full(spc))


def _tiling_rows(rng, p, d, k, n):
    """n row pairs as arrays E, A: E a random translate of a
    k-dimensional subspace, A one of a complementary subspace."""
    pts = O.all_points(p, d)
    out = []
    while len(out) < n:
        basis = [pts[int(i)] for i in rng.integers(p ** d, size=d)]
        if O._rank(basis, p) < d:
            continue
        rows = []
        for vecs in (basis[:k], basis[k:]):
            base = pts[int(rng.integers(p ** d))]
            rows.append(sorted(
                O.point_index(p, [(b + sum(c * v[j] for c, v in
                                           zip(coeffs, vecs))) % p
                                  for j, b in enumerate(base)])
                for coeffs in itertools.product(range(p), repeat=len(vecs))))
        out.append(rows)
    return tuple(np.array(side) for side in zip(*out))


def _random_rows(rng, p, d, size, n):
    return np.array([np.sort(rng.choice(p ** d, size, replace=False))
                     for _ in range(n)])


class TestPairRows:
    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_rows_match_oracle(self, rng, p, d):
        pts = O.all_points(p, d)
        k = (d + 1) // 2
        pair_E, pair_A = _tiling_rows(rng, p, d, k, 6)
        # leading row: A inside a translate of E's subspace, so for
        # d >= 2 two translates overlap
        E = np.concatenate([pair_E[:1], pair_E,
                            _random_rows(rng, p, d, p ** k, 6)])
        A = np.concatenate([pair_E[:1, :p ** (d - k)], pair_A,
                            _random_rows(rng, p, d, p ** (d - k), 6)])
        got = tiling_pair_rows(p, d, E, A)
        want = [O.is_tiling_pair(p, d, [pts[i] for i in e],
                                 [pts[i] for i in a])
                for e, a in zip(E, A)]
        assert got.tolist() == want
        assert got[0] == (d == 1) and got[1:7].all()
        assert tiling_pair_rows(p, d, A, E).tolist() == want
        # a point tiles with the whole space, and with nothing smaller
        singles = _random_rows(rng, p, d, 1, 4)
        full = np.tile(np.arange(p ** d), (4, 1))
        assert tiling_pair_rows(p, d, singles, full).all()
        assert tiling_pair_rows(p, d, full, singles).all()
        assert not tiling_pair_rows(p, d, singles, full[:, 1:]).any()
        assert not tiling_pair_rows(p, d, E[:, :1], A).any()


class TestSearch:
    def test_all_512_subsets_match_oracle(self):
        spc = Space(3, 2)
        by_size = {}
        for r in range(10):
            hits = 0
            for combo in itertools.combinations(range(9), r):
                E = PointSet.from_indices(spc, combo)
                cert = tiling_search(E)
                want = O.tiles(3, 2, [pt.coords for pt in E])
                assert (cert.verdict == "witness") == want
                if cert.verdict == "witness":
                    hits += 1
                    assert cert.witness.contains(spc.zero())
                    assert verify_tiling_pair(E, cert.witness)
                    assert verify_tiling_pair(cert.witness, E)
            by_size[r] = hits
        assert by_size == {0: 0, 1: 9, 2: 0, 3: 84, 4: 0, 5: 0,
                           6: 0, 7: 0, 8: 0, 9: 1}

    def test_lifted_tromino(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(spc, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert O.tiles(3, 3, [pt.coords for pt in E])
        cert = tiling_search(E)
        assert cert.verdict == "witness"
        assert cert.witness.size == 9
        assert cert.witness.contains(spc.zero())
        assert verify_tiling_pair(E, cert.witness)
        assert verify_tiling_pair(cert.witness, E)

    def test_size_filter(self):
        spc = Space(3, 2)
        cert = tiling_search(PointSet.from_indices(spc, [0, 1, 2, 3]))
        assert cert.verdict == "none"
        assert cert.nodes_explored == 0
        assert cert.stats["size_filtered"]
        empty = tiling_search(PointSet.empty(spc))
        assert empty.verdict == "none"
        assert empty.stats["size_filtered"]

    def test_recursion_limit_restored(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            # 343 translates of one point recurse 343 levels deep; the
            # whole search fits in about 350 frames, under the limit of 1000
            cert = tiling_search(PointSet.from_indices(Space(7, 3), [0]))
            assert cert.verdict == "witness"
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_budget_abort(self):
        spc = Space(5, 2)
        E = PointSet.from_coords(spc, [(t, 0) for t in range(5)])
        cert = tiling_search(E, budget=1)
        assert cert.verdict == "aborted"

    def test_row_times_column(self):
        spc = Space(5, 2)
        E = PointSet.from_coords(spc, [(t, 0) for t in range(5)])
        cert = tiling_search(E)
        assert cert.verdict == "witness"
        assert {pt.coords for pt in cert.witness} == {(0, t) for t in range(5)}

    @pytest.mark.parametrize("p,d,idx,verdict,nodes", [
        (5, 3, [21, 34, 55, 71, 85], "witness", 5674),
        (5, 3, [17, 38, 63, 64, 98], "none", 6318),
        (5, 3, [1, 38, 92, 108, 115], "none", 11535),
        (7, 2, [9, 20, 22, 25, 31, 33, 37], "none", 5),
        (7, 2, [2, 9, 10, 11, 23, 44, 47], "witness", 7),
    ])
    def test_search_order_pinned(self, p, d, idx, verdict, nodes):
        # node counts pin the branching order: the lowest uncovered
        # point, then its covering translates in ascending index
        cert = tiling_search(PointSet.from_indices(Space(p, d), idx))
        assert (cert.verdict, cert.nodes_explored) == (verdict, nodes)

    def test_non_tile_3d(self):
        spc = Space(3, 3)
        # 9 points, size divides 27, but concentrated to block any tiling
        E = PointSet.from_coords(
            spc, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0),
                  (2, 1, 0), (0, 2, 0), (1, 2, 0), (0, 0, 1)])
        cert = tiling_search(E)
        want = O.tiles(3, 3, [pt.coords for pt in E])
        assert (cert.verdict == "witness") == want
