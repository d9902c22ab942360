import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import (
    PointSet,
    Space,
    all_directions,
    canonical_form,
    coords_to_index,
    direction_count,
    dot,
    index_to_coords,
    translate,
)
from ffspec.space import Direction
from ffspec.tables import affine_permutation_array, gl_matrices

SMALL_SPACES = [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (7, 3)]


def spaces():
    return st.sampled_from(SMALL_SPACES).map(lambda pd: Space(*pd))


@st.composite
def space_and_point(draw):
    spc = draw(spaces())
    idx = draw(st.integers(0, spc.order - 1))
    return spc, spc.point_at(idx)


class TestIndexing:
    def test_round_trip_all_small(self):
        for p, d in SMALL_SPACES:
            spc = Space(p, d)
            for i in range(spc.order):
                pt = spc.point_at(i)
                assert pt.index == i
                assert coords_to_index(pt.coords, p) == i
                assert index_to_coords(i, p, d) == pt.coords

    def test_little_endian_layout(self):
        assert coords_to_index((1, 2, 3), 7) == 1 + 2 * 7 + 3 * 49
        assert index_to_coords(162, 7, 3) == (1, 2, 3)

    def test_point_at_range(self):
        spc = Space(3, 2)
        with pytest.raises(ValueError):
            spc.point_at(9)
        with pytest.raises(ValueError):
            spc.point_at(-1)

    def test_point_validation(self):
        spc = Space(5, 2)
        with pytest.raises(ValueError):
            spc.point_at(0).__class__(spc, (1, 2, 3))
        with pytest.raises(ValueError):
            spc.point_at(0).__class__(spc, (5, 0))

    def test_space_validation(self):
        for p, d in [(2, 2), (4, 2), (9, 2), (37, 2), (3, 0), (3, 5),
                     (11, 2), (17, 3), (3, 4)]:
            with pytest.raises(ValueError):
                Space(p, d)


class TestArithmetic:
    @given(space_and_point(), st.data())
    def test_group_laws(self, sp, data):
        spc, x = sp
        y = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        assert (x + y) - y == x
        assert x + (-x) == spc.zero()
        assert x.scale(1) == x
        assert x.scale(spc.p) == spc.zero()

    @given(space_and_point(), st.data())
    def test_dot_bilinear(self, sp, data):
        spc, x = sp
        y = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        z = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        c = data.draw(st.integers(0, spc.p - 1))
        assert dot(x + y, z) == (dot(x, z) + dot(y, z)) % spc.p
        assert dot(x.scale(c), y) == (c * dot(x, y)) % spc.p
        assert dot(x, y) == dot(y, x)

    def test_dot_example(self):
        spc = Space(7, 3)
        assert dot(spc.point((1, 2, 3)), spc.point((1, 1, 1))) == 6

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            dot(Space(3, 2).zero(), Space(5, 2).zero())


class TestDirections:
    def test_counts(self):
        assert direction_count(Space(7, 3)) == 57
        assert direction_count(Space(7, 2)) == 8
        assert direction_count(Space(5, 3)) == 31
        for p, d in SMALL_SPACES:
            spc = Space(p, d)
            dirs = all_directions(spc)
            assert len(dirs) == (p ** d - 1) // (p - 1) == direction_count(spc)

    def test_canonical_reps(self):
        for p, d in [(3, 3), (7, 2)]:
            spc = Space(p, d)
            for dr in all_directions(spc):
                lead = next(c for c in dr.rep.coords if c)
                assert lead == 1

    def test_directions_partition_nonzero(self):
        spc = Space(5, 3)
        seen = set()
        for dr in all_directions(spc):
            pts = dr.points()[1:]
            assert len(pts) == spc.p - 1
            for pt in pts:
                assert pt.index not in seen
                seen.add(pt.index)
        assert len(seen) == spc.order - 1

    @given(space_and_point(), st.data())
    def test_scalar_invariance(self, sp, data):
        spc, x = sp
        if x.is_zero():
            x = spc.point_at(1)
        c = data.draw(st.integers(1, spc.p - 1))
        assert Direction.through(x) == Direction.through(x.scale(c))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Direction.through(Space(3, 2).zero())

    def test_oracle_agreement(self):
        spc = Space(7, 3)
        for dr in all_directions(spc):
            assert O.canon_dir(7, dr.rep.coords) == dr.rep.coords


class TestCanonicalForm:
    def test_translation_idempotent(self, rng):
        spc = Space(3, 3)
        for _ in range(20):
            E = PointSet.from_indices(
                spc, rng.choice(27, size=5, replace=False).tolist())
            c = canonical_form(E)
            assert canonical_form(c) == c

    def test_translation_invariance(self, rng):
        spc = Space(5, 2)
        for _ in range(20):
            E = PointSet.from_indices(
                spc, rng.choice(25, size=4, replace=False).tolist())
            t = spc.point_at(int(rng.integers(25)))
            assert canonical_form(translate(E, t)) == canonical_form(E)

    def test_translation_minimum_oracle(self, rng):
        for p, d in [(5, 3), (7, 3)]:
            spc = Space(p, d)
            for size in (1, 4, 9):
                idx = rng.choice(spc.order, size=size, replace=False).tolist()
                E = PointSet.from_indices(spc, idx)
                pts = [spc.point_at(i).coords for i in idx]
                best = min(
                    sum(1 << O.point_index(
                        p, tuple((a + b) % p for a, b in zip(x, t)))
                        for x in pts)
                    for t in O.all_points(p, d))
                assert canonical_form(E).mask == best
        assert canonical_form(PointSet.empty(Space(5, 3))).mask == 0

    def test_affine_class_count_oracle(self):
        spc = Space(3, 2)
        reps = set()
        for combo in itertools.combinations(range(9), 3):
            reps.add(canonical_form(
                PointSet.from_indices(spc, combo), group="affine").mask)
        assert len(reps) == 2 == O.affine_class_count(3, 3)

    def test_affine_orbit_constancy(self, rng):
        spc = Space(3, 2)
        perms = affine_permutation_array(3, 2)
        E = PointSet.from_indices(spc, [0, 1, 5, 7])
        base = canonical_form(E, group="affine")
        for k in rng.choice(len(perms), size=25, replace=False):
            img = PointSet.from_indices(spc, perms[k, E.indices()].tolist())
            assert canonical_form(img, group="affine") == base

    def test_affine_minimum_oracle_5_2(self, rng):
        # the smallest bitmask over every affine image, by brute force
        spc = Space(5, 2)
        maps = O.affine_maps_2d(5)
        for size in (0, 1, 3, 5, 12, 24, 25):
            idx = rng.choice(25, size=size, replace=False).tolist()
            pts = [spc.point_at(i).coords for i in idx]
            best = min(sum(1 << O.point_index(5, O.apply_affine(5, g, x))
                           for x in pts) for g in maps)
            E = PointSet.from_indices(spc, idx)
            assert canonical_form(E, group="affine").mask == best

    def test_affine_needs_low_dimension(self):
        E = PointSet.from_indices(Space(3, 3), [0, 1])
        with pytest.raises(ValueError):
            canonical_form(E, group="affine")
        with pytest.raises(ValueError):
            canonical_form(E, group="rotations")

    def test_group_orders(self):
        assert len(affine_permutation_array(3, 2)) == 432
        assert len(gl_matrices(7, 2)) == 2016
        assert len(gl_matrices(7, 2)) * 49 == 98784
        assert len(affine_permutation_array(5, 2)) == 12000 == len(
            O.affine_maps_2d(5))

    def test_affine_permutations_5_2_oracle(self):
        perms = affine_permutation_array(5, 2)
        assert perms.shape == (12000, 25) and not perms.flags.writeable
        pts = O.all_points(5, 2)
        expected = {tuple(O.point_index(5, O.apply_affine(5, g, pt))
                          for pt in pts)
                    for g in O.affine_maps_2d(5)}
        assert set(map(tuple, perms.tolist())) == expected
        # the order: gl_matrices, then translations by index
        digest = hashlib.sha256(bytes(perms.ravel().tolist())).hexdigest()
        assert digest == ("bf16558a978c589b53f90cc273eb7a71"
                          "bb22a370f9bea66c0e80c50e07a5539d")

    def test_affine_permutations_are_permutations(self):
        for perm in affine_permutation_array(3, 2)[:50].tolist():
            assert sorted(perm) == list(range(9))
