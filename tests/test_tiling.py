import itertools
import random
import sys

import numpy as np
import pytest

import oracles as O
from ffspec import (
    PointSet,
    Space,
    spectrum_search,
    tiling_search,
    verify_tiling_pair,
)
from ffspec.tables import add_table
from ffspec.tiling import _masks, tiling_pair_rows, tiling_search_rows


def _coords(E):
    return [tuple(r) for r in E.coord_rows()]


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
                PointSet(Space(3, 2), [0]),
                PointSet(Space(5, 2), [0]))

    def test_trivial(self):
        spc = Space(3, 2)
        assert verify_tiling_pair(PointSet(spc, range(spc.order)),
                                  PointSet(spc, [0]))
        assert verify_tiling_pair(PointSet(spc, [0]),
                                  PointSet(spc, range(spc.order)))


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

    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_swapped_pair_same_verdict(self, rng, p, d):
        # x + y = y + x in add_table, so (E, A) tiles exactly when (A, E)
        # does, and a caller checks each complement one way only.  Pairs:
        # complements the search found, the same with one point moved,
        # and random complements of sets that do not tile.  Every set of
        # a size that can tile F_p^1 or F_3^2 tiles, and so does every
        # 3-set of F_3^3, so its rows are 9-sets
        n, pts = p ** d, O.all_points(p, d)
        size = 9 if (p, d) == (3, 3) else p
        E = _random_rows(rng, p, d, size, 12)
        E[0] = np.arange(size)               # a subgroup, which tiles
        got = tiling_search_rows(p, d, E, budget=10 ** 4)
        found = [r for r, (v, _, _) in enumerate(got) if v == "witness"]
        none = [r for r, (v, _, _) in enumerate(got) if v == "none"]
        A = np.array([got[r][1] for r in found])
        moved = A.copy()
        moved[:, 0] = (moved[:, 0] + rng.integers(1, n, len(A))) % n
        E_rows = np.concatenate([E[found], E[found], E[none]])
        A_rows = np.concatenate([A, moved, _random_rows(
            rng, p, d, n // size, len(none)).reshape(len(none), n // size)
            .astype(int)])
        want = [O.is_tiling_pair(p, d, [pts[i] for i in e],
                                 [pts[i] for i in a])
                for e, a in zip(E_rows, A_rows)]
        assert tiling_pair_rows(p, d, E_rows, A_rows).tolist() == want
        assert tiling_pair_rows(p, d, A_rows, E_rows).tolist() == want
        k = len(found)
        assert want[:k] == [True] * k and not any(want[2 * k:])
        assert (len(none) > 0) == (d > 1 and (p, d) != (3, 2))
        assert d == 1 or not all(want[k:2 * k])


class TestSearch:
    def test_all_512_subsets_match_oracle(self):
        spc = Space(3, 2)
        by_size = {}
        for r in range(10):
            hits = 0
            for combo in itertools.combinations(range(9), r):
                E = PointSet(spc, combo)
                cert = tiling_search(E)
                want = O.tiles(3, 2, _coords(E))
                assert (cert.verdict == "witness") == want
                if cert.verdict == "witness":
                    hits += 1
                    assert 0 in cert.witness.indices()
                    assert verify_tiling_pair(E, cert.witness)
                    assert verify_tiling_pair(cert.witness, E)
            by_size[r] = hits
        assert by_size == {0: 0, 1: 9, 2: 0, 3: 84, 4: 0, 5: 0,
                           6: 0, 7: 0, 8: 0, 9: 1}

    def test_lifted_tromino(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(spc, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert O.tiles(3, 3, _coords(E))
        cert = tiling_search(E)
        assert cert.verdict == "witness"
        assert cert.witness.size == 9
        assert 0 in cert.witness.indices()
        assert verify_tiling_pair(E, cert.witness)
        assert verify_tiling_pair(cert.witness, E)

    def test_size_filter(self):
        spc = Space(3, 2)
        cert = tiling_search(PointSet(spc, [0, 1, 2, 3]))
        assert cert.verdict == "none"
        assert cert.nodes_explored == 0
        assert cert.size_filtered
        empty = tiling_search(PointSet(spc, ()))
        assert empty.verdict == "none"
        assert empty.size_filtered
        # size 3 divides 9, so the line {0, 1, 2} is searched
        searched = tiling_search(PointSet(spc, [0, 1, 2]))
        assert searched.verdict == "witness"
        assert not searched.size_filtered

    def test_recursion_limit_restored(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            # 343 translates of one point recurse 343 levels deep; the
            # whole search fits in about 350 frames, under the limit of 1000
            cert = tiling_search(PointSet(Space(7, 3), [0]))
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
        assert set(_coords(cert.witness)) == {(0, t) for t in range(5)}

    @pytest.mark.parametrize("p,d,idx,verdict,nodes", [
        (5, 3, [21, 34, 55, 71, 85], "witness", 28),
        (5, 3, [17, 38, 63, 64, 98], "none", 7),
        (5, 3, [1, 38, 92, 108, 115], "none", 4),
        (7, 2, [9, 20, 22, 25, 31, 33, 37], "none", 2),
        (7, 2, [2, 9, 10, 11, 23, 44, 47], "witness", 7),
    ])
    def test_search_order_pinned(self, p, d, idx, verdict, nodes):
        # node counts pin the branching order: the uncovered point with
        # the fewest covering translates disjoint from the cover (ties
        # to the lowest index; none ends the branch), then those
        # translates in ascending index
        cert = tiling_search(PointSet(Space(p, d), idx))
        assert (cert.verdict, cert.nodes_explored) == (verdict, nodes)

    def test_non_tile_3d(self):
        spc = Space(3, 3)
        # 9 points, size divides 27, but concentrated to block any tiling
        E = PointSet.from_coords(
            spc, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0),
                  (2, 1, 0), (0, 2, 0), (1, 2, 0), (0, 0, 1)])
        cert = tiling_search(E)
        want = O.tiles(3, 3, _coords(E))
        assert (cert.verdict == "witness") == want


def _one_row(space, row, budget=10 ** 9):
    """tiling_search on one index row, as a tiling_search_rows triple."""
    cert = tiling_search(PointSet(space, row), budget=budget)
    return (cert.verdict, cert.witness and cert.witness.indices(),
            cert.nodes_explored)


class TestSearchRows:
    # each row of a block gets the verdict, complement and node count of
    # its own one-row search
    def test_all_512_subsets_by_size(self):
        spc = Space(3, 2)
        for r in (1, 3, 9):
            rows = list(itertools.combinations(range(9), r))
            assert tiling_search_rows(3, 2, rows) == [
                _one_row(spc, row) for row in rows]
        for r in (0, 2, 4, 5, 6, 7, 8):
            rows = np.array(list(itertools.combinations(range(9), r)),
                            dtype=np.int64)
            with pytest.raises(ValueError, match="cannot tile"):
                tiling_search_rows(3, 2, rows)

    def test_pinned_cases_in_one_block(self):
        # the five-point cases of test_search_order_pinned, padded with
        # the other five-point sets of F_5^3 that they pin
        cases = [[21, 34, 55, 71, 85], [17, 38, 63, 64, 98],
                 [1, 38, 92, 108, 115], [0, 1, 2, 3, 4]]
        got = tiling_search_rows(5, 3, cases)
        assert [(v, n) for v, _, n in got[:3]] == [
            ("witness", 28), ("none", 7), ("none", 4)]
        assert got == [_one_row(Space(5, 3), row) for row in cases]
        sevens = [[9, 20, 22, 25, 31, 33, 37], [2, 9, 10, 11, 23, 44, 47]]
        assert [(v, n) for v, _, n in tiling_search_rows(7, 2, sevens)] == [
            ("none", 2), ("witness", 7)]

    @pytest.mark.parametrize("p,size,count", [(5, 5, 90), (5, 25, 6),
                                              (7, 7, 70), (7, 49, 3)])
    def test_seeded_rows_in_3d(self, rng, p, size, count):
        # p^3 = 125 and 343 points: every mask spans several 64-bit words;
        # 90 and 70 rows span two mask blocks
        rows = _random_rows(rng, p, 3, size, count)
        rows[0] = np.arange(size)      # a line or plane, which tiles
        got = tiling_search_rows(p, 3, rows, budget=3000)
        assert got == [_one_row(Space(p, 3), row.tolist(), 3000)
                       for row in rows]
        assert got[0][0] == "witness"

    # (p, d, size, random rows, budget); the fixed rows add, per space,
    # sets whose periods are a line but which are no coset: two or three
    # parallel lines, with one point moved where the size allows
    @pytest.mark.parametrize("p,d,size,count,budget", [
        (3, 2, 3, 12, 10 ** 9), (3, 3, 3, 12, 10 ** 9),
        (3, 3, 9, 12, 10 ** 9), (5, 2, 5, 12, 10 ** 9),
        (7, 2, 7, 12, 10 ** 9), (5, 3, 5, 4, 40), (3, 3, 9, 12, 3)])
    def test_branching_matches_rescan_oracle(self, rng, p, d, size, count,
                                             budget):
        # every node count, verdict and complement equals that of a
        # search that recounts every uncovered point at every node
        pts = O.all_points(p, d)
        rows = [sorted(r) for r in _random_rows(rng, p, d, size, count)]
        rows.append(list(range(size)))             # a coset of a subgroup
        if d == 3 and size == 9:
            lines = [O.point_index(p, (t, y, z)) for t in range(3)
                     for y, z in ((0, 0), (1, 0), (0, 1))]
            rows += [sorted(lines), sorted(lines[:8] + [26])]
        got = tiling_search_rows(p, d, np.array(rows), budget)
        assert got == [O.fewest_translates_search(
            p, d, [pts[i] for i in row], budget) for row in rows]
        assert {v for v, _, _ in got} >= {"witness"}

    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_masks_match_coordinates(self, rng, p, d):
        # bit x of the masks of E at [r][a] is set iff x - a is in E_r,
        # and bit a of the masks of -E at [r][x] iff the same holds: the
        # translate and covering masks of one 64-row block
        n, pts = p ** d, O.all_points(p, d)
        rows = _random_rows(rng, p, d, min(p + 1, n - 1), 64)
        neg = np.array([[O.point_index(p, [-c % p for c in pts[i]])
                         for i in row] for row in rows])
        assert any(set(e) != set(m) for e, m in zip(rows.tolist(),
                                                    neg.tolist()))
        coords = np.array(pts)
        # diff[x, a]: the index of x - a, by coordinates
        diff = O.point_index(p, np.moveaxis(
            (coords[:, None] - coords[None]) % p, -1, 0))
        member = np.zeros((64, n), dtype=bool)
        member[np.arange(64)[:, None], rows] = True
        for E, want in ((rows, member[:, diff.T]), (neg, member[:, diff])):
            masks = _masks(add_table(p, d)[:, E].transpose(1, 0, 2))
            raw = b"".join(m.to_bytes((n + 7) // 8, "little")
                           for row in masks for m in row)
            bits = np.unpackbits(np.frombuffer(raw, np.uint8),
                                 bitorder="little").reshape(64, n, -1)
            assert np.array_equal(bits[..., :n].astype(bool), want)
            assert not bits[..., n:].any()

    def test_mask_block_scratch(self, rng, traced_peak):
        # one 64-row block at p^d = 343: two 7.5 MB hit tables, of -E and
        # of E, are built in turn, and the block, packed rows and ints
        # included, peaks near 14 MB
        add_table(7, 3)
        rows = _random_rows(rng, 7, 3, 7, 64)
        assert traced_peak(tiling_search_rows, 7, 3, rows, 1) < 15e6

    def test_budget_one_aborts_every_row(self):
        rows = [[0, 1, 2], [0, 1, 3], [0, 4, 8]]
        got = tiling_search_rows(3, 2, rows, budget=1)
        assert got == [("aborted", None, 2)] * 3
        assert got == [_one_row(Space(3, 2), row, 1) for row in rows]

    def test_size_that_cannot_tile(self):
        with pytest.raises(ValueError, match="size 4 cannot tile"):
            tiling_search_rows(3, 2, [[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="size 0 cannot tile"):
            tiling_search_rows(3, 2, np.zeros((1, 0), dtype=np.int64))


class TestSpectralEqualsTile:
    """The source paper's theorem as the oracle: in F_p^3, p = 5 and 7,
    a set tiles exactly when it is spectral.  Both searches must decide
    each set within 10^3 nodes, and their verdicts must agree."""

    @staticmethod
    def verdicts(E):
        tile = tiling_search(E, budget=10 ** 3)
        spectral = spectrum_search(E, budget=10 ** 3)
        assert "aborted" not in (tile.verdict, spectral.verdict)
        return tile.verdict, spectral.verdict

    @pytest.mark.parametrize("p", [5, 7])
    def test_seeded_p_point_sets(self, p):
        rng = random.Random(1)
        found = set()
        for _ in range(50):
            E = PointSet(Space(p, 3),
                                      rng.sample(range(p ** 3), p))
            tile, spectral = self.verdicts(E)
            assert tile == spectral
            found.add(tile)
        assert found == {"witness", "none"}

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_subspaces_of_f7_cubed(self, dims):
        # a line, a plane and the whole space
        E = PointSet(Space(7, 3), range(7 ** dims))
        assert self.verdicts(E) == ("witness", "witness")
