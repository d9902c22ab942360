import math
from collections import Counter

import pytest

import oracles as O
from ffspec import (
    PointSet,
    Space,
    concentration,
    direction_stats,
    line_sup,
    no_k_collinear,
    plane_direction_count,
    plane_sup,
    span,
    sumset,
    sumset_cd_check,
)
from ffspec.tables import affine_permutation_array

E0_COORDS = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]


def _set(p, d, coords):
    return PointSet.from_coords(Space(p, d), coords)


class TestDirectionStats:
    def test_pinned_example(self):
        E = _set(7, 2, E0_COORDS)
        stats = direction_stats(E)
        assert stats.count == 6
        got = {dr.rep.coords for dr in stats.determined}
        assert got == O.direction_set(7, E0_COORDS)
        assert got == {(0, 1), (1, 0), (1, 1), (1, 2), (1, 4), (1, 6)}

    def test_multiplicities_conserve_pairs(self, rng):
        for p, d in [(7, 2), (5, 3), (7, 3)]:
            spc = Space(p, d)
            for _ in range(10):
                size = int(rng.integers(2, 9))
                E = PointSet.from_indices(
                    spc, sorted(int(i) for i in
                                rng.choice(spc.order, size, replace=False)))
                stats = direction_stats(E)
                assert sum(stats.multiplicity.values()) == math.comb(size, 2)
                assert stats.count == len(
                    O.direction_set(p, [pt.coords for pt in E]))
                pts = [pt.coords for pt in E]
                expected = Counter(
                    O.canon_dir(p, tuple((a - b) % p for a, b in zip(x, y)))
                    for i, x in enumerate(pts) for y in pts[i + 1:])
                assert {dr.rep.coords: m for dr, m in
                        stats.multiplicity.items()} == dict(expected)
                assert [dr.rep.coords for dr in stats.determined] == sorted(
                    expected, key=lambda v: O.point_index(p, v))

    def test_small_sets_rejected(self):
        with pytest.raises(ValueError):
            direction_stats(_set(3, 2, [(0, 0)]))

    def test_affine_invariance(self, rng):
        spc = Space(7, 2)
        perms = affine_permutation_array(7, 2)
        E = _set(7, 2, E0_COORDS)
        base = direction_stats(E)
        base_mults = sorted(base.multiplicity.values())
        for k in rng.choice(len(perms), size=12, replace=False):
            img = PointSet.from_indices(spc, perms[k, E.indices()].tolist())
            istats = direction_stats(img)
            assert istats.count == base.count
            assert sorted(istats.multiplicity.values()) == base_mults
            assert line_sup(img) == line_sup(E)


class TestConcentration:
    def test_line_examples(self):
        line = _set(7, 2, [(t, 3) for t in range(7)])
        assert line_sup(line) == 7
        assert not no_k_collinear(line, 3)
        assert no_k_collinear(_set(7, 2, E0_COORDS), 3)
        assert line_sup(PointSet.empty(Space(3, 2))) == 0
        assert line_sup(_set(3, 3, [(1, 1, 1)])) == 1

    def test_line_sup_oracle(self, rng):
        for p, d in [(7, 2), (3, 3), (5, 3)]:
            spc = Space(p, d)
            for _ in range(8):
                size = int(rng.integers(2, 8))
                E = PointSet.from_indices(
                    spc, sorted(int(i) for i in
                                rng.choice(spc.order, size, replace=False)))
                assert line_sup(E) == O.line_sup(
                    p, d, [pt.coords for pt in E])

    def test_no_k_validation(self):
        with pytest.raises(ValueError):
            no_k_collinear(_set(3, 2, [(0, 0)]), 1)

    def test_plane_sup(self, rng):
        spc = Space(7, 3)
        plane = PointSet.from_coords(
            spc, [(0, y, z) for y in range(7) for z in range(7)])
        assert plane_sup(plane) == 49
        spc3 = Space(3, 3)
        for _ in range(10):
            size = int(rng.integers(1, 9))
            E = PointSet.from_indices(
                spc3, sorted(int(i) for i in
                             rng.choice(27, size, replace=False)))
            assert plane_sup(E) == O.plane_sup_3d(3, [pt.coords for pt in E])

    def test_plane_sup_needs_d3(self):
        with pytest.raises(ValueError):
            plane_sup(_set(3, 2, [(0, 0)]))

    def test_concentration_report(self):
        rep2 = concentration(_set(7, 2, E0_COORDS))
        assert rep2.line_sup == 2
        assert rep2.plane_sup is None
        spc = Space(3, 3)
        E = PointSet.from_coords(
            spc, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        rep3 = concentration(E)
        assert rep3.line_sup == 2
        assert rep3.plane_sup == 3
        # per-plane counts agree with the subspace-based counter
        stats_total = direction_stats(E).count
        for normal_index, count in rep3.plane_direction_counts.items():
            normal = spc.point_at(normal_index)
            basis = [pt for pt in spc.iter_points()
                     if not pt.is_zero()
                     and sum(a * b for a, b in zip(pt.coords, normal.coords)) % 3 == 0]
            P = span(basis)
            assert P.dim == 2
            assert count == plane_direction_count(E, P) <= stats_total

    def test_plane_direction_counts_oracle(self, rng):
        for p in (5, 7):
            spc = Space(p, 3)
            normals = {O.canon_dir(p, v) for v in O.all_points(p, 3) if any(v)}
            for size in (2, 6, 14):
                E = PointSet.from_indices(
                    spc, rng.choice(spc.order, size, replace=False).tolist())
                dirs = O.direction_set(p, [pt.coords for pt in E])
                expected = {
                    O.point_index(p, nrm): sum(
                        1 for v in dirs
                        if sum(a * b for a, b in zip(v, nrm)) % p == 0)
                    for nrm in normals}
                assert concentration(E).plane_direction_counts == expected

    def test_concentration_needs_2_or_3(self):
        with pytest.raises(ValueError):
            concentration(PointSet.from_indices(Space(3, 1), [0]))


class TestPlaneDirectionCount:
    def test_pinned_instances(self):
        spc = Space(7, 3)
        P = span([spc.point((1, 0, 0)), spc.point((0, 1, 0))])
        stacked = PointSet.from_coords(
            spc, [(t, 0, z) for z in range(3) for t in range(7)])
        coplanar = PointSet.from_coords(
            spc, [(t, y, 0) for y in range(3) for t in range(7)])
        assert stacked.size == coplanar.size == 21
        assert plane_direction_count(stacked, P) == 1
        assert plane_direction_count(coplanar, P) == 8

    def test_dim_validated(self):
        spc = Space(7, 3)
        with pytest.raises(ValueError):
            plane_direction_count(
                PointSet.from_indices(spc, [0, 1]),
                span([spc.point((1, 0, 0))]))


class TestSumset:
    def test_pinned_example(self):
        A = _set(7, 1, [(0,), (1,), (3,)])
        B = _set(7, 1, [(0,), (2,), (3,)])
        S = sumset(A, B)
        assert S.size == 7
        assert {pt.coords[0] for pt in S} == O.sumset(7, [0, 1, 3], [0, 2, 3])
        assert sumset_cd_check(A, B)

    def test_cauchy_davenport_battery(self, rng):
        for p in (5, 7):
            spc = Space(p, 1)
            for _ in range(200):
                sa = int(rng.integers(1, p + 1))
                sb = int(rng.integers(1, p + 1))
                A = PointSet.from_indices(
                    spc, sorted(int(i) for i in
                                rng.choice(p, sa, replace=False)))
                B = PointSet.from_indices(
                    spc, sorted(int(i) for i in
                                rng.choice(p, sb, replace=False)))
                assert sumset_cd_check(A, B)
                assert {pt.coords[0] for pt in sumset(A, B)} == O.sumset(
                    p, [pt.coords[0] for pt in A], [pt.coords[0] for pt in B])

    def test_empty_ok(self):
        spc = Space(5, 1)
        assert sumset_cd_check(PointSet.empty(spc), PointSet.empty(spc))

    def test_d1_required(self):
        E = PointSet.from_indices(Space(3, 2), [0])
        with pytest.raises(ValueError):
            sumset_cd_check(E, E)

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
                A, B = (PointSet.from_indices(
                    spc, rng.choice(spc.order, s, replace=False).tolist())
                    for s in (sa, sb))
                assert {pt.coords for pt in sumset(A, B)} == O.sumset(
                    p, [Vec(pt.coords) for pt in A], [Vec(pt.coords) for pt in B])

    def test_sumset_any_d(self):
        spc = Space(3, 2)
        A = PointSet.from_coords(spc, [(0, 0), (1, 0)])
        B = PointSet.from_coords(spc, [(0, 0), (0, 1)])
        assert {pt.coords for pt in sumset(A, B)} == {
            (0, 0), (1, 0), (0, 1), (1, 1)}
