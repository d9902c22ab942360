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
    character_sum,
    convolve,
    equidist_profile,
    float_dft,
    float_inverse,
    indicator,
    plancherel_check,
    translate,
    zero_set,
    zero_set_contains,
)
from ffspec.fourier import zero_directions
from ffspec.tables import direction_reps


@st.composite
def random_set(draw, spaces=((3, 2), (3, 3), (5, 2))):
    p, d = draw(st.sampled_from(spaces))
    spc = Space(p, d)
    idxs = draw(st.sets(st.integers(0, spc.order - 1), max_size=9))
    return PointSet.from_indices(spc, sorted(idxs))


def plane_x1_zero(spc):
    return PointSet.from_coords(
        spc, [(0, y, z) for y in range(spc.p) for z in range(spc.p)])


class TestCharacterSum:
    def test_plane_examples(self):
        spc = Space(7, 3)
        E = plane_x1_zero(spc)
        cs = character_sum(E, spc.point((0, 1, 0)))
        assert cs.is_zero()
        assert cs.counts == (7,) * 7
        cs2 = character_sum(E, spc.point((1, 0, 0)))
        assert not cs2.is_zero()
        assert cs2.counts == (49, 0, 0, 0, 0, 0, 0)
        assert abs(cs2.value() - 49) < 1e-9

    def test_counts_total(self):
        spc = Space(5, 2)
        E = PointSet.from_indices(spc, [0, 3, 7, 11])
        assert character_sum(E, spc.point((1, 2))).total == 4

    def test_count_length_validated(self):
        from ffspec import CharacterSum
        with pytest.raises(ValueError):
            CharacterSum(5, (1, 2, 3))

    @given(random_set(), st.data())
    def test_zero_iff_float_small(self, E, data):
        spc = E.space
        xi = spc.point_at(data.draw(st.integers(1, spc.order - 1)))
        cs = character_sum(E, xi)
        assert cs.is_zero() == (abs(cs.value()) < 1e-9)
        assert abs(cs.value() - O.char_sum(spc.p, [pt.coords for pt in E],
                                           xi.coords)) < 1e-9

    @given(random_set(), st.data())
    def test_scalar_invariance(self, E, data):
        spc = E.space
        xi = spc.point_at(data.draw(st.integers(1, spc.order - 1)))
        c = data.draw(st.integers(1, spc.p - 1))
        assert character_sum(E, xi).is_zero() == \
            character_sum(E, xi.scale(c)).is_zero()


class TestZeroSet:
    def test_line_example(self):
        spc = Space(7, 3)
        L = PointSet.from_coords(spc, [(t, 0, 0) for t in range(7)])
        Z = zero_set(L)
        assert Z.size == 294
        # exactly the xi outside the orthogonal plane of the line
        for xi in spc.iter_points():
            if xi.is_zero():
                assert not Z.contains(xi)
            else:
                assert Z.contains(xi) == (xi.coords[0] != 0)

    def test_oracle_agreement(self, rng):
        for p, d in [(3, 2), (3, 3), (5, 2)]:
            spc = Space(p, d)
            for size in (2, p, 2 * p):
                for _ in range(10):
                    idxs = rng.choice(spc.order, size=size, replace=False)
                    E = PointSet.from_indices(
                        spc, sorted(int(i) for i in idxs))
                    want = O.zero_set(p, d, [pt.coords for pt in E])
                    assert {pt.coords for pt in zero_set(E)} == want

    def test_empty_set(self):
        spc = Space(3, 2)
        Z = zero_set(PointSet.empty(spc))
        assert Z.size == spc.order - 1
        assert not Z.contains(spc.zero())

    def test_full_space_every_direction(self):
        # 49 points on each plane of F_7^3: 7 x 49 = 343 overflows any
        # byte-wide p * count
        zero = zero_directions(7, 3, np.arange(343))
        assert zero.shape == (57,) and zero.all()
        assert zero_set(PointSet.from_indices(Space(7, 3), range(343))).size \
            == 342

    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_size_prime_to_p_never_vanishes(self, p, d, rng):
        n = p ** d
        spc = Space(p, d)
        reps = [spc.point_at(int(r)) for r in direction_reps(p, d)]
        for size in sorted(s for s in {1, p - 1, p + 1, n - 1} if s <= n):
            rows = np.array([rng.choice(n, size=size, replace=False)
                             for _ in range(5)])
            zero = zero_directions(p, d, rows)
            assert zero.shape == (len(reps), 5) and not zero.any()
        # rows of size p agree with the independent per-direction count
        rows = np.array([rng.choice(n, size=p, replace=False)
                         for _ in range(20)])
        for col, row in zip(zero_directions(p, d, rows).T, rows):
            E = PointSet.from_indices(spc, sorted(row.tolist()))
            assert col.tolist() == [zero_set_contains(E, xi) for xi in reps]

    @given(random_set())
    def test_divisibility(self, E):
        if zero_set(E).size:
            assert E.size % E.space.p == 0

    @given(random_set(), st.data())
    def test_translation_invariance(self, E, data):
        spc = E.space
        x = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        assert zero_set(translate(E, x)) == zero_set(E)

    @given(random_set())
    def test_negation_symmetry(self, E):
        Z = zero_set(E)
        assert PointSet.from_points(E.space, [-pt for pt in Z]) == Z

    @given(random_set(), st.data())
    def test_contains_matches(self, E, data):
        spc = E.space
        xi = spc.point_at(data.draw(st.integers(1, spc.order - 1)))
        if E.size:
            assert zero_set_contains(E, xi) == zero_set(E).contains(xi)


class TestEquidist:
    def test_constant_iff_zero(self):
        spc = Space(7, 3)
        E = plane_x1_zero(spc)
        assert equidist_profile(E, spc.point((0, 1, 0))).is_constant()
        assert not equidist_profile(E, spc.point((1, 0, 0))).is_constant()

    def test_zero_xi_rejected(self):
        spc = Space(3, 2)
        with pytest.raises(ValueError):
            equidist_profile(PointSet.from_indices(spc, [0]), spc.zero())


class TestFloatSide:
    def test_against_direct_dft(self, rng):
        spc = Space(5, 2)
        E = PointSet.from_indices(
            spc, sorted(int(i) for i in rng.choice(25, 7, replace=False)))
        fhat = float_dft(E)
        for xi in spc.iter_points():
            direct = sum(
                cmath.exp(-2j * cmath.pi * sum(
                    a * b for a, b in zip(pt.coords, xi.coords)) / 5)
                for pt in E) / 25
            assert abs(fhat[xi.index] - direct) < 1e-12

    def test_hat_at_zero(self):
        spc = Space(7, 2)
        E = PointSet.from_indices(spc, list(range(21)))
        assert abs(float_dft(E)[0] - 21 / 49) < 1e-12

    def test_inverse_round_trip(self, rng):
        spc = Space(3, 3)
        vals = tuple(int(v) for v in rng.integers(0, 5, size=27))
        f = QuotientFunction(spc, vals)
        back = float_inverse(float_dft(f), spc)
        assert np.allclose(back, np.array(vals), atol=1e-9)

    def test_conjugate_symmetry(self, rng):
        spc = Space(5, 2)
        E = PointSet.from_indices(
            spc, sorted(int(i) for i in rng.choice(25, 6, replace=False)))
        fhat = float_dft(E)
        for xi in spc.iter_points():
            neg = (-xi).index
            assert abs(fhat[neg] - np.conj(fhat[xi.index])) < 1e-12

    def test_plancherel_battery(self, rng):
        spc = Space(7, 3)
        for _ in range(50):
            vals = tuple(int(v) for v in rng.integers(0, 8, size=343))
            assert plancherel_check(QuotientFunction(spc, vals)) <= 1e-9

    def test_plancherel_on_sets(self, rng):
        spc = Space(5, 3)
        for _ in range(20):
            size = int(rng.integers(1, 30))
            E = PointSet.from_indices(
                spc, sorted(int(i) for i in
                            rng.choice(125, size, replace=False)))
            assert plancherel_check(E) <= 1e-9


class TestConvolve:
    def test_direct_formula(self, rng):
        spc = Space(3, 2)
        f = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 4, 9)))
        g = QuotientFunction(spc, tuple(int(v) for v in rng.integers(0, 4, 9)))
        h = convolve(f, g)
        for x in spc.iter_points():
            want = sum(f[y.index] * g[(x - y).index] for y in spc.iter_points())
            assert h[x.index] == want

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
