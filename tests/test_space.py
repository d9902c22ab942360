import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import Space, coords_to_index
from ffspec.lemmas import _translates, affine_class_counts
from ffspec.tables import (coords_matrix, dir_of_index, direction_reps,
                           linear_permutation_array, plane_counts,
                           scale_tables)

SMALL_SPACES = [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (7, 3)]


def spaces():
    return st.sampled_from(SMALL_SPACES).map(lambda pd: Space(*pd))


@st.composite
def space_and_point(draw):
    spc = draw(spaces())
    return spc, draw(st.integers(0, spc.order - 1))


class TestIndexing:
    def test_round_trip_all_small(self):
        for p, d in SMALL_SPACES:
            pts = O.all_points(p, d)
            for i, row in enumerate(coords_matrix(p, d).tolist()):
                assert coords_to_index(row, p) == i
                assert tuple(row) == pts[i]

    def test_little_endian_layout(self):
        assert coords_to_index((1, 2, 3), 7) == 1 + 2 * 7 + 3 * 49
        assert coords_matrix(7, 3)[162].tolist() == [1, 2, 3]

    def test_space_validation(self):
        for p, d in [(2, 2), (4, 2), (9, 2), (37, 2), (3, 0), (3, 5),
                     (11, 2), (17, 3), (3, 4)]:
            with pytest.raises(ValueError):
                Space(p, d)


class TestArithmetic:
    def test_dot_example(self):
        # (1, 2, 3) lies on the plane x . (1, 1, 1) = 6 of F_7^3
        k = direction_reps(7, 3).tolist().index(coords_to_index((1, 1, 1), 7))
        counts = plane_counts(7, 3, [coords_to_index((1, 2, 3), 7)])[k]
        assert counts.tolist() == [0, 0, 0, 0, 0, 0, 1]
        assert O.dot(7, (1, 2, 3), (1, 1, 1)) == 6


class TestDirections:
    def test_counts(self):
        assert len(direction_reps(7, 3)) == 57
        assert len(direction_reps(7, 2)) == 8
        assert len(direction_reps(5, 3)) == 31
        for p, d in SMALL_SPACES:
            assert len(direction_reps(p, d)) == (p ** d - 1) // (p - 1)

    def test_canonical_reps(self):
        for p, d in [(3, 3), (7, 2)]:
            for rep in coords_matrix(p, d)[direction_reps(p, d)].tolist():
                lead = next(c for c in rep if c)
                assert lead == 1

    def test_directions_partition_nonzero(self):
        scl = scale_tables(5, 3)
        seen = set()
        for rep in direction_reps(5, 3).tolist():
            for c in range(1, 5):
                assert int(scl[c, rep]) not in seen
                seen.add(int(scl[c, rep]))
        assert len(seen) == 5 ** 3 - 1

    @given(space_and_point(), st.data())
    def test_scalar_invariance(self, sp, data):
        # dir_of_index names the direction a nonzero vector spans
        spc, x = sp
        x = x or 1
        c = data.draw(st.integers(1, spc.p - 1))
        ids = dir_of_index(spc.p, spc.d)
        assert ids[x] == ids[scale_tables(spc.p, spc.d)[c, x]] >= 0
        coords = O.all_points(spc.p, spc.d)[x]
        assert direction_reps(spc.p, spc.d)[ids[x]] == \
            O.point_index(spc.p, O.canon_dir(spc.p, coords))

    def test_zero_vector_rejected(self):
        # the zero vector spans no direction
        for p, d in SMALL_SPACES:
            assert dir_of_index(p, d)[0] == -1

    def test_oracle_agreement(self):
        for rep in coords_matrix(7, 3)[direction_reps(7, 3)].tolist():
            assert O.canon_dir(7, rep) == tuple(rep)


class TestCanonicalForm:
    """Translation classes through lemmas._translates, every translate of
    a set once, and affine classes through the affine maps composed from
    linear_permutation_array and add_table (affine_perms)."""

    @staticmethod
    def _translate_rows(p, d, idx):
        return [c["set"] for c in _translates(p, d, [{"set": idx}])]

    def test_translation_idempotent(self, rng):
        for _ in range(20):
            idx = sorted(rng.choice(27, size=5, replace=False).tolist())
            rows = self._translate_rows(3, 3, idx)
            assert idx in rows
            assert self._translate_rows(3, 3, rows[0]) == rows

    def test_translation_invariance(self, rng):
        for _ in range(20):
            idx = sorted(rng.choice(25, size=4, replace=False).tolist())
            t = O.all_points(5, 2)[int(rng.integers(25))]
            moved = sorted(O.point_index(5, x) for x in O.translate(
                5, [O.all_points(5, 2)[i] for i in idx], t))
            assert self._translate_rows(5, 2, moved) == \
                self._translate_rows(5, 2, idx)

    def test_translation_minimum_oracle(self, rng):
        for p, d in [(5, 3), (7, 3)]:
            for size in (1, 4, 9):
                idx = rng.choice(p ** d, size=size, replace=False).tolist()
                pts = [O.all_points(p, d)[i] for i in idx]
                rows = self._translate_rows(p, d, sorted(idx))
                # sizes prime to p: no translate fixes the set
                assert len(rows) == p ** d
                assert min(sum(1 << i for i in r) for r in rows) == \
                    O.translation_min_mask(p, d, pts)
        assert self._translate_rows(5, 3, []) == [[]]

    def test_affine_class_count_oracle(self, affine_perms):
        perms = affine_perms(3, 2)
        reps = {min(sum(1 << int(i) for i in img) for img in perms[:, combo])
                for combo in itertools.combinations(range(9), 3)}
        assert len(reps) == 2 == O.affine_class_count(3, 3) == \
            affine_class_counts(3, 2, (3,))[3]

    def test_affine_orbit_constancy(self, rng, affine_perms):
        # the orbit of any image of E is the orbit of E
        perms = affine_perms(3, 2)
        idx = [0, 1, 5, 7]

        def orbit(row):
            return {tuple(sorted(img)) for img in perms[:, row].tolist()}

        base = orbit(idx)
        for k in rng.choice(len(perms), size=25, replace=False):
            assert orbit(perms[k, idx].tolist()) == base

    def test_affine_minimum_oracle_5_2(self, rng, affine_perms):
        # the smallest bitmask over every affine image, by brute force
        perms = affine_perms(5, 2)
        maps = O.affine_maps_2d(5)
        for size in (0, 1, 3, 5, 12, 24, 25):
            idx = rng.choice(25, size=size, replace=False).tolist()
            pts = [O.all_points(5, 2)[i] for i in idx]
            best = min(sum(1 << O.point_index(5, O.apply_affine(5, g, x))
                           for x in pts) for g in maps)
            assert min(sum(1 << int(i) for i in img)
                       for img in perms[:, idx]) == best

    def test_affine_needs_low_dimension(self):
        with pytest.raises(ValueError):
            linear_permutation_array(3, 3)

    def test_group_orders(self, affine_perms):
        assert len(affine_perms(3, 2)) == 432
        assert len(affine_perms(7, 2)) == 98784 == 2016 * 49
        assert len(affine_perms(5, 2)) == 12000 == len(
            O.affine_maps_2d(5))
        # the linear maps alone: |GL(2, p)|
        assert [len(linear_permutation_array(p, 2)) for p in (3, 5, 7)] \
            == [48, 480, 2016]

    def test_affine_permutations_5_2_oracle(self, affine_perms):
        perms = affine_perms(5, 2)
        linear = linear_permutation_array(5, 2)
        assert linear.shape == (480, 25) and not linear.flags.writeable
        assert linear.nbytes == 24000
        assert perms.shape == (12000, 25)
        pts = O.all_points(5, 2)
        expected = {tuple(O.point_index(5, O.apply_affine(5, g, pt))
                          for pt in pts)
                    for g in O.affine_maps_2d(5)}
        assert set(map(tuple, perms.tolist())) == expected
        # the order: matrices lexicographic in their entries read row
        # by row, then translations by index
        digest = hashlib.sha256(bytes(perms.ravel().tolist())).hexdigest()
        assert digest == ("bf16558a978c589b53f90cc273eb7a71"
                          "bb22a370f9bea66c0e80c50e07a5539d")

    def test_affine_permutations_1d(self, affine_perms):
        # x -> a x + t, a = 1 .. p - 1 outer, t inner
        for p in (3, 5, 7):
            want = [[(a * x + t) % p for x in range(p)]
                    for a in range(1, p) for t in range(p)]
            assert affine_perms(p, 1).tolist() == want

    def test_affine_permutations_are_permutations(self, affine_perms):
        for perm in affine_perms(3, 2)[:50].tolist():
            assert sorted(perm) == list(range(9))
