import math
from collections import Counter

import numpy as np
import pytest

import oracles as O
from ffspec import PointSet, Space, direction_stats, line_sup, plane_sup
from ffspec.geometry import _plane_direction_counts
from ffspec.space import coords_to_index
from ffspec.tables import (add_table, coords_matrix, direction_reps,
                           pair_directions)

E0_COORDS = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]


def _set(p, d, coords):
    return PointSet.from_coords(Space(p, d), coords)


def _rows(E):
    return [tuple(r) for r in E.coord_rows()]


def _rep(p, d, k):
    """The representative coordinates of direction id k."""
    return tuple(coords_matrix(p, d)[direction_reps(p, d)[k]].tolist())


def _per_plane(E):
    """{normal index: determined directions in the plane through 0 with
    that normal}, the counts the plane_directions pruning rule reads."""
    p = E.space.p
    per = _plane_direction_counts(p, 3, pair_directions(p, 3, E.indices()))
    return {int(r): int(c) for r, c in zip(direction_reps(p, 3), per)}


def _sumset(A, B):
    """A + B, read from add_table."""
    sums = add_table(A.space.p, A.space.d)[np.ix_(A.indices(), B.indices())]
    return PointSet(A.space, np.unique(sums).tolist())


class TestDirectionStats:
    def test_pinned_example(self):
        E = _set(7, 2, E0_COORDS)
        stats = direction_stats(E)
        assert stats.count == 6
        got = {_rep(7, 2, k) for k in stats.determined}
        assert got == O.direction_set(7, E0_COORDS)
        assert got == {(0, 1), (1, 0), (1, 1), (1, 2), (1, 4), (1, 6)}

    def test_multiplicities_conserve_pairs(self, rng):
        for p, d in [(7, 2), (5, 3), (7, 3)]:
            spc = Space(p, d)
            for _ in range(10):
                size = int(rng.integers(2, 9))
                E = PointSet(
                    spc, sorted(int(i) for i in
                                rng.choice(spc.order, size, replace=False)))
                stats = direction_stats(E)
                assert sum(stats.multiplicity.values()) == math.comb(size, 2)
                pts = _rows(E)
                assert stats.count == len(O.direction_set(p, pts))
                expected = Counter(
                    O.canon_dir(p, tuple((a - b) % p for a, b in zip(x, y)))
                    for i, x in enumerate(pts) for y in pts[i + 1:])
                assert {_rep(p, d, k): m for k, m in
                        stats.multiplicity.items()} == dict(expected)
                assert [_rep(p, d, k) for k in stats.determined] == sorted(
                    expected, key=lambda v: O.point_index(p, v))

    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            direction_stats(_set(3, 2, [(0, 0)]))

    def test_affine_invariance(self, rng, affine_perms):
        spc = Space(7, 2)
        perms = affine_perms(7, 2)
        E = _set(7, 2, E0_COORDS)
        base = direction_stats(E)
        base_mults = sorted(base.multiplicity.values())
        for k in rng.choice(len(perms), size=12, replace=False):
            img = PointSet(spc, perms[k, E.indices()].tolist())
            istats = direction_stats(img)
            assert istats.count == base.count
            assert sorted(istats.multiplicity.values()) == base_mults
            assert line_sup(img) == line_sup(E)


class TestConcentration:
    def test_line_examples(self):
        line = _set(7, 2, [(t, 3) for t in range(7)])
        assert line_sup(line) == 7
        assert line_sup(_set(7, 2, E0_COORDS)) == 2
        assert line_sup(PointSet(Space(3, 2), ())) == 0
        assert line_sup(_set(3, 3, [(1, 1, 1)])) == 1

    def test_line_sup_oracle(self, rng):
        for p, d in [(7, 2), (3, 3), (5, 3)]:
            spc = Space(p, d)
            for _ in range(8):
                size = int(rng.integers(2, 8))
                E = PointSet(
                    spc, sorted(int(i) for i in
                                rng.choice(spc.order, size, replace=False)))
                assert line_sup(E) == O.line_sup(p, d, _rows(E))

    def test_plane_sup(self, rng):
        spc = Space(7, 3)
        plane = PointSet.from_coords(
            spc, [(0, y, z) for y in range(7) for z in range(7)])
        assert plane_sup(plane) == 49
        spc3 = Space(3, 3)
        for _ in range(10):
            size = int(rng.integers(1, 9))
            E = PointSet(
                spc3, sorted(int(i) for i in
                             rng.choice(27, size, replace=False)))
            assert plane_sup(E) == O.plane_sup_3d(3, _rows(E))

    def test_plane_sup_needs_d3(self):
        with pytest.raises(ValueError):
            plane_sup(_set(3, 2, [(0, 0)]))

    def test_concentration_report(self):
        assert line_sup(_set(7, 2, E0_COORDS)) == 2
        E = _set(3, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert line_sup(E) == 2
        assert plane_sup(E) == 3
        # per-plane counts agree with the determined directions that are
        # orthogonal to each normal
        determined = direction_stats(E).determined
        per_plane = _per_plane(E)
        assert len(per_plane) == 13
        for normal_index, count in per_plane.items():
            normal = O.all_points(3, 3)[normal_index]
            assert count == sum(
                1 for k in determined if O.dot(3, _rep(3, 3, k), normal) == 0)

    def test_plane_direction_counts_oracle(self, rng):
        for p in (5, 7):
            spc = Space(p, 3)
            normals = {O.canon_dir(p, v) for v in O.all_points(p, 3) if any(v)}
            for size in (2, 6, 14):
                E = PointSet(
                    spc, rng.choice(spc.order, size, replace=False).tolist())
                dirs = O.direction_set(p, _rows(E))
                expected = {
                    O.point_index(p, nrm): sum(
                        1 for v in dirs
                        if sum(a * b for a, b in zip(v, nrm)) % p == 0)
                    for nrm in normals}
                assert _per_plane(E) == expected


class TestPlaneDirectionCount:
    def test_pinned_instances(self):
        spc = Space(7, 3)
        # the plane z = 0, spanned by (1, 0, 0) and (0, 1, 0)
        normal = coords_to_index((0, 0, 1), 7)
        stacked = PointSet.from_coords(
            spc, [(t, 0, z) for z in range(3) for t in range(7)])
        coplanar = PointSet.from_coords(
            spc, [(t, y, 0) for y in range(3) for t in range(7)])
        assert stacked.size == coplanar.size == 21
        assert _per_plane(stacked)[normal] == 1
        assert _per_plane(coplanar)[normal] == 8


class TestSumset:
    def test_pinned_example(self):
        A = _set(7, 1, [(0,), (1,), (3,)])
        B = _set(7, 1, [(0,), (2,), (3,)])
        S = _sumset(A, B)
        assert S.size == 7
        assert set(S.indices()) == O.sumset(7, [0, 1, 3], [0, 2, 3])
        assert S.size >= min(7, A.size + B.size - 1)

    def test_cauchy_davenport_battery(self, rng):
        for p in (5, 7):
            spc = Space(p, 1)
            for _ in range(200):
                sa = int(rng.integers(1, p + 1))
                sb = int(rng.integers(1, p + 1))
                A = PointSet(
                    spc, sorted(int(i) for i in
                                rng.choice(p, sa, replace=False)))
                B = PointSet(
                    spc, sorted(int(i) for i in
                                rng.choice(p, sb, replace=False)))
                # Cauchy-Davenport
                assert _sumset(A, B).size >= min(p, sa + sb - 1)
                # in F_p^1 a point's index is its coordinate
                assert set(_sumset(A, B).indices()) == O.sumset(
                    p, A.indices(), B.indices())

    def test_sumset_d3_oracle(self, rng):
        class Vec(tuple):
            # coordinatewise + and % let oracles.sumset add points of F_p^3
            def __add__(self, other):
                return Vec(a + b for a, b in zip(self, other))

            def __mod__(self, p):
                return tuple(a % p for a in self)

        for p in (5, 7):
            spc = Space(p, 3)
            for sa, sb in [(1, 6), (5, 5), (9, 3)]:
                A, B = (PointSet(
                    spc, rng.choice(spc.order, s, replace=False).tolist())
                    for s in (sa, sb))
                assert set(_rows(_sumset(A, B))) == O.sumset(
                    p, list(map(Vec, _rows(A))), list(map(Vec, _rows(B))))

    def test_sumset_any_d(self):
        spc = Space(3, 2)
        A = PointSet.from_coords(spc, [(0, 0), (1, 0)])
        B = PointSet.from_coords(spc, [(0, 0), (0, 1)])
        assert set(_rows(_sumset(A, B))) == {
            (0, 0), (1, 0), (0, 1), (1, 1)}
