import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import (
    PointSet,
    QuotientFunction,
    Space,
    convolve,
    float_dft,
    indicator,
    plancherel_check,
    zero_set,
)
from ffspec.fourier import zero_keys
from ffspec.space import coords_to_index
from ffspec.tables import (direction_reps, plane_counts, plane_words,
                           scale_tables)


@st.composite
def random_set(draw, spaces=((3, 2), (3, 3), (5, 2))):
    p, d = draw(st.sampled_from(spaces))
    spc = Space(p, d)
    idxs = draw(st.sets(st.integers(0, spc.order - 1), max_size=9))
    return PointSet(spc, sorted(idxs))


def coords(E):
    return [tuple(r) for r in E.coord_rows()]


def point(spc, i):
    """The coordinate tuple of point index i, from the oracle."""
    return O.all_points(spc.p, spc.d)[i]


def scale(spc, c, i):
    return int(scale_tables(spc.p, spc.d)[c % spc.p, i])


def vanishes(E, xi) -> bool:
    """The oracle's exact test: all p residue counts at xi are equal."""
    return len(set(O.residue_counts(E.space.p, coords(E),
                                    point(E.space, xi)))) == 1


def bits(key, n: int) -> list:
    """The n low bits of a direction key, bit k as entry k."""
    return [bool(int(key) >> k & 1) for k in range(n)]


def has(E, x) -> bool:
    return x in E.points


def plane_x1_zero(spc):
    return PointSet.from_coords(
        spc, [(0, y, z) for y in range(spc.p) for z in range(spc.p)])


class TestCharacterSum:
    """A character sum as its p residue counts, tables.plane_counts."""

    @staticmethod
    def counts(E, xi):
        p, d = E.space.p, E.space.d
        k = direction_reps(p, d).tolist().index(xi)
        return plane_counts(p, d, E.indices())[k].tolist()

    def test_plane_examples(self):
        spc = Space(7, 3)
        E = plane_x1_zero(spc)
        xi = coords_to_index((0, 1, 0), 7)
        assert self.counts(E, xi) == [7] * 7
        assert has(zero_set(E), xi)
        xi2 = coords_to_index((1, 0, 0), 7)
        assert self.counts(E, xi2) == [49, 0, 0, 0, 0, 0, 0]
        assert not has(zero_set(E), xi2)
        assert abs(float_dft(E)[xi2] * 343 - 49) < 1e-9

    def test_counts_total(self):
        spc = Space(5, 2)
        E = PointSet(spc, [0, 3, 7, 11])
        assert sum(self.counts(E, coords_to_index((1, 2), 5))) == 4
        assert (plane_counts(5, 2, E.indices()).sum(axis=-1) == 4).all()

    @given(random_set(), st.data())
    def test_zero_iff_float_small(self, E, data):
        spc = E.space
        xi = data.draw(st.integers(1, spc.order - 1))
        raw = float_dft(E)[xi] * spc.order
        assert has(zero_set(E), xi) == (abs(raw) < 1e-9)
        assert abs(raw - O.char_sum(spc.p, coords(E), point(spc, xi))) < 1e-9

    @given(random_set(), st.data())
    def test_scalar_invariance(self, E, data):
        spc = E.space
        xi = data.draw(st.integers(1, spc.order - 1))
        c = data.draw(st.integers(1, spc.p - 1))
        Z = zero_set(E)
        cxi = scale(spc, c, xi)
        assert has(Z, xi) == has(Z, cxi) == vanishes(E, cxi)


class TestZeroSet:
    def test_line_example(self):
        spc = Space(7, 3)
        L = PointSet.from_coords(spc, [(t, 0, 0) for t in range(7)])
        Z = zero_set(L)
        assert Z.size == 294
        # exactly the xi outside the orthogonal plane of the line
        assert not has(Z, 0)
        for xi, pt in enumerate(O.all_points(7, 3)):
            assert has(Z, xi) == (pt[0] != 0)

    def test_oracle_agreement(self, rng):
        for p, d in [(3, 2), (3, 3), (5, 2)]:
            spc = Space(p, d)
            for size in (2, p, 2 * p):
                for _ in range(10):
                    idxs = rng.choice(spc.order, size=size, replace=False)
                    E = PointSet(
                        spc, sorted(int(i) for i in idxs))
                    want = O.zero_set(p, d, coords(E))
                    assert set(coords(zero_set(E))) == want

    def test_empty_set(self):
        spc = Space(3, 2)
        Z = zero_set(PointSet(spc, ()))
        assert Z.size == spc.order - 1
        assert not has(Z, 0)

    def test_full_space_every_direction(self):
        # 49 points on each plane of F_7^3: 7 x 49 = 343 overflows any
        # byte-wide p * count
        key = zero_keys(7, plane_words(7, 3, np.arange(343)), 343)
        assert key.shape == () and int(key) == (1 << 57) - 1
        assert zero_set(PointSet(Space(7, 3), range(343))).size \
            == 342

    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_size_prime_to_p_never_vanishes(self, p, d, rng):
        n = p ** d
        spc = Space(p, d)
        reps = direction_reps(p, d).tolist()
        for size in sorted(s for s in {1, p - 1, p + 1, n - 1} if s <= n):
            rows = np.array([rng.choice(n, size=size, replace=False)
                             for _ in range(5)])
            keys = zero_keys(p, plane_words(p, d, rows), size)
            assert keys.shape == (5,) and not keys.any()
        # rows of size p agree with the independent per-direction count
        rows = np.array([rng.choice(n, size=p, replace=False)
                         for _ in range(20)])
        for key, row in zip(zero_keys(p, plane_words(p, d, rows), p), rows):
            E = PointSet(spc, sorted(row.tolist()))
            assert bits(key, len(reps)) == [vanishes(E, xi) for xi in reps]

    @given(random_set())
    def test_divisibility(self, E):
        if zero_set(E).size:
            assert E.size % E.space.p == 0

    @given(random_set(), st.data())
    def test_translation_invariance(self, E, data):
        spc = E.space
        x = point(spc, data.draw(st.integers(0, spc.order - 1)))
        moved = PointSet.from_coords(spc, O.translate(spc.p, coords(E), x))
        assert zero_set(moved) == zero_set(E)

    @given(random_set())
    def test_negation_symmetry(self, E):
        Z = zero_set(E)
        assert PointSet.from_coords(
            E.space, [[-c for c in row] for row in Z.coord_rows()]) == Z

    @given(random_set(), st.data())
    def test_contains_matches(self, E, data):
        spc = E.space
        xi = data.draw(st.integers(1, spc.order - 1))
        if E.size:
            assert vanishes(E, xi) == has(zero_set(E), xi)


class TestZeroKeys:
    """zero_keys against the oracle's per-direction residue counts; rows
    of size prime to p are TestZeroSet's."""

    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_keys_match_vanishing_oracle(self, p, d, rng):
        n = p ** d
        spc = Space(p, d)
        reps = direction_reps(p, d).tolist()
        # the narrowest uint of len(reps) bits: 1, 4, 6 or 8 directions
        # at d <= 2, then 13, 31 and 57
        dtype = np.dtype("<u1" if d < 3 else {3: "<u2", 5: "<u4",
                                              7: "<u8"}[p])
        for size in [s for s in (p, p * p) if s <= n]:
            rows = np.array([rng.choice(n, size=size, replace=False)
                             for _ in range(8)])
            keys = zero_keys(p, plane_words(p, d, rows), size)
            assert keys.dtype == dtype and keys.shape == (8,)
            for key, row in zip(keys, rows):
                E = PointSet(spc, sorted(row.tolist()))
                assert int(key) >> len(reps) == 0
                assert bits(key, len(reps)) == [vanishes(E, xi)
                                                for xi in reps]
        # an empty row vanishes along every direction
        empty = zero_keys(p, plane_words(p, d, np.zeros((2, 0), int)), 0)
        assert empty.dtype == dtype
        assert empty.tolist() == [(1 << len(reps)) - 1] * 2

    @pytest.mark.parametrize("pts,count", [
        ([(x, y, z) for x in range(7) for y in range(7) for z in range(7)],
         57),
        ([(0, y, z) for y in range(7) for z in range(7)], 56),
        ([(t, 2 * t, 3 * t) for t in range(7)], 49),
    ], ids=["space", "plane", "line"])
    def test_f73_high_bits(self, pts, count):
        # 57 directions: the key is one uint64 and reaches bit 56
        spc = Space(7, 3)
        E = PointSet.from_coords(spc, pts)
        reps = direction_reps(7, 3).tolist()
        key = zero_keys(7, plane_words(7, 3, E.indices()), E.size)
        assert key.dtype == np.dtype("<u8") and key.shape == ()
        assert bits(key, 57) == [vanishes(E, xi) for xi in reps]
        assert int(key).bit_count() == count and int(key) >> 56 == 1


class TestFloatSide:
    def test_against_direct_dft(self, rng):
        spc = Space(5, 2)
        E = PointSet(
            spc, sorted(int(i) for i in rng.choice(25, 7, replace=False)))
        fhat = float_dft(E)
        for i, xi in enumerate(O.all_points(5, 2)):
            direct = sum(
                cmath.exp(-2j * cmath.pi * O.dot(5, pt, xi) / 5)
                for pt in coords(E)) / 25
            assert abs(fhat[i] - direct) < 1e-12

    def test_hat_at_zero(self):
        spc = Space(7, 2)
        E = PointSet(spc, list(range(21)))
        assert abs(float_dft(E)[0] - 21 / 49) < 1e-12

    def test_conjugate_symmetry(self, rng):
        spc = Space(5, 2)
        E = PointSet(
            spc, sorted(int(i) for i in rng.choice(25, 6, replace=False)))
        fhat = float_dft(E)
        for xi in range(25):
            neg = scale(spc, -1, xi)
            assert abs(fhat[neg] - np.conj(fhat[xi])) < 1e-12

    def test_plancherel_battery(self, rng):
        spc = Space(7, 3)
        for _ in range(50):
            vals = tuple(int(v) for v in rng.integers(0, 8, size=343))
            assert plancherel_check(QuotientFunction(spc, vals)) <= 1e-9

    def test_plancherel_on_sets(self, rng):
        spc = Space(5, 3)
        for _ in range(20):
            size = int(rng.integers(1, 30))
            E = PointSet(
                spc, sorted(int(i) for i in
                            rng.choice(125, size, replace=False)))
            assert plancherel_check(E) <= 1e-9


class TestConvolve:
    def test_direct_formula(self, rng):
        spc = Space(3, 2)
        f = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 4, 9)))
        g = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 4, 9)))
        h = convolve(f, g)
        pts = O.all_points(3, 2)
        for i, x in enumerate(pts):
            want = sum(f.values[j] * g.values[O.point_index(
                3, [(a - b) % 3 for a, b in zip(x, y)])]
                for j, y in enumerate(pts))
            assert h.values[i] == want

    def test_commutative(self, rng):
        spc = Space(5, 2)
        f = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 3, 25)))
        g = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 3, 25)))
        assert convolve(f, g) == convolve(g, f)

    def test_delta_identity(self):
        spc = Space(3, 3)
        delta = QuotientFunction(spc, (1,) + (0,) * 26)
        f = QuotientFunction(spc, tuple(range(27)))
        assert convolve(f, delta) == f

    def test_dft_multiplies_under_convolution(self, rng):
        spc = Space(5, 2)
        for _ in range(10):
            f = QuotientFunction(
                spc, tuple(int(v) for v in rng.integers(0, 4, 25)))
            g = QuotientFunction(
                spc, tuple(int(v) for v in rng.integers(0, 4, 25)))
            lhs = float_dft(convolve(f, g))
            rhs = 25 * float_dft(f) * float_dft(g)
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_two_line_identity_instance(self):
        # B = 2 parallel lines in direction (1,0); L that direction's
        # line through 0, K another; exact sums hit k p^3 + k^2 p^2
        spc = Space(7, 2)
        B = PointSet.from_coords(
            spc, [(t, 0) for t in range(7)] + [(t, 3) for t in range(7)])
        L = PointSet.from_coords(spc, [(t, 0) for t in range(7)])
        K = PointSet.from_coords(spc, [(0, t) for t in range(7)])
        bl = convolve(indicator(B), indicator(L))
        bk = convolve(indicator(B), indicator(K))
        total = sum(v * v for v in bl.values) + sum(v * v for v in bk.values)
        assert total == 2 * 7 ** 3 + 4 * 7 ** 2

    def test_mismatched_spaces(self):
        f = QuotientFunction(Space(3, 1), (1, 0, 0))
        g = QuotientFunction(Space(5, 1), (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            convolve(f, g)
