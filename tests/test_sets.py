from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import (
    PointSet,
    SetFormatError,
    Space,
    indicator,
    project_along,
    quotient_basis,
    quotient_cell_index,
    read_set,
    translate,
    write_set,
)
from ffspec.space import Direction, all_directions, coords_to_index


@st.composite
def random_set(draw, spaces=((3, 2), (3, 3), (5, 2))):
    p, d = draw(st.sampled_from(spaces))
    spc = Space(p, d)
    idxs = draw(st.sets(st.integers(0, spc.order - 1), max_size=8))
    return PointSet.from_indices(spc, sorted(idxs))


class TestPointSet:
    def test_constructors_agree(self):
        spc = Space(3, 2)
        a = PointSet.from_indices(spc, [0, 4, 8])
        b = PointSet.from_coords(spc, [(0, 0), (1, 1), (2, 2)])
        assert a == b
        assert a.size == 3
        assert a.indices() == [0, 4, 8]
        assert a.coord_rows() == [[0, 0], [1, 1], [2, 2]]

    def test_bounds(self):
        spc = Space(3, 2)
        with pytest.raises(ValueError):
            PointSet.from_indices(spc, [9])
        with pytest.raises(ValueError):
            PointSet(spc, 1 << 9)

    def test_set_algebra(self):
        spc = Space(3, 2)
        a = PointSet.from_indices(spc, [0, 1, 2])
        b = PointSet.from_indices(spc, [2, 3])
        assert (a | b).indices() == [0, 1, 2, 3]
        assert (a & b).indices() == [2]
        assert (a - b).indices() == [0, 1]
        assert a.complement().size == 6
        assert PointSet.full(spc).size == 9
        assert PointSet.empty(spc).size == 0

    def test_contains(self):
        spc = Space(5, 2)
        E = PointSet.from_coords(spc, [(1, 2)])
        assert E.contains(spc.point((1, 2)))
        assert not E.contains(spc.point((2, 1)))
        assert E.contains_index(coords_to_index((1, 2), 5))

    @given(random_set(), st.data())
    def test_translate_is_bijection(self, E, data):
        spc = E.space
        x = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        out = translate(E, x)
        assert out.size == E.size
        assert translate(out, -x) == E

    def test_translate_zero(self):
        spc = Space(3, 3)
        E = PointSet.from_indices(spc, [1, 5, 20])
        assert translate(E, spc.zero()) == E


class TestProjection:
    def test_example(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(spc, [(0, 0, 0), (0, 0, 1), (1, 0, 0)])
        delta = Direction.through(spc.point((0, 0, 1)))
        q = project_along(E, delta)
        assert q.space == Space(3, 2)
        assert q[coords_to_index((0, 0), 3)] == 2
        assert q[coords_to_index((1, 0), 3)] == 1
        assert q.total == 3

    @given(random_set(), st.data())
    def test_mass_conserved(self, E, data):
        spc = E.space
        if spc.d < 2:
            return
        didx = data.draw(st.integers(1, spc.order - 1))
        delta = Direction.through(spc.point_at(didx))
        q = project_along(E, delta)
        assert q.total == E.size
        assert all(v <= spc.p for v in q.values)

    def test_oracle_agreement(self, rng):
        # every space with d >= 2 and every direction; the oracle finds
        # each point's coset by walking the quotient basis and delta
        for p, d in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]:
            spc = Space(p, d)
            for delta in all_directions(spc):
                idxs = rng.choice(spc.order, size=6, replace=False)
                E = PointSet.from_indices(spc, sorted(int(i) for i in idxs))
                want = Counter()
                for pt in E:
                    (cell,) = O.projection_counts(
                        p, d, [pt.coords], delta.rep.coords)
                    want[coords_to_index(cell, p)] += 1
                    assert quotient_cell_index(spc, delta, pt) == \
                        coords_to_index(cell, p)
                q = project_along(E, delta)
                assert {i: v for i, v in enumerate(q.values) if v} == want

    def test_projection_translate_commutes(self, rng):
        spc = Space(3, 3)
        for _ in range(10):
            idxs = sorted(int(i) for i in rng.choice(27, 5, replace=False))
            E = PointSet.from_indices(spc, idxs)
            delta = Direction.through(spc.point_at(int(rng.integers(1, 27))))
            shift = delta.rep.scale(int(rng.integers(3)))
            # translating along delta leaves every coset count unchanged
            assert project_along(translate(E, shift), delta) == \
                project_along(E, delta)

    def test_quotient_basis(self):
        spc = Space(7, 3)
        delta = Direction.through(spc.point((1, 0, 0)))
        basis = quotient_basis(spc, delta)
        assert [b.coords for b in basis] == [(0, 1, 0), (0, 0, 1)]
        delta2 = Direction.through(spc.point((0, 0, 1)))
        basis2 = quotient_basis(spc, delta2)
        assert [b.coords for b in basis2] == [(1, 0, 0), (0, 1, 0)]

    def test_cell_constant_along_delta(self):
        spc = Space(5, 2)
        delta = Direction.through(spc.point((1, 2)))
        for pt in spc.iter_points():
            base = quotient_cell_index(spc, delta, pt)
            for t in range(5):
                assert quotient_cell_index(
                    spc, delta, pt + delta.rep.scale(t)) == base

    def test_direction_of_another_space_rejected(self):
        spc = Space(3, 3)
        E = PointSet.from_indices(spc, [0, 1, 5])
        for other, coords in [((3, 2), (1, 1)), ((5, 3), (1, 2, 3))]:
            delta = Direction.through(Space(*other).point(coords))
            with pytest.raises(ValueError, match="mismatched spaces"):
                project_along(E, delta)
            with pytest.raises(ValueError, match="mismatched spaces"):
                quotient_cell_index(spc, delta, spc.zero())

    def test_d1_rejected(self):
        E = PointSet.from_indices(Space(3, 1), [0])
        with pytest.raises(ValueError):
            project_along(E, Direction.through(Space(3, 1).point((1,))))


class TestIndicator:
    def test_values(self):
        spc = Space(3, 2)
        E = PointSet.from_indices(spc, [0, 5])
        f = indicator(E)
        assert f.total == 2
        assert f[0] == 1 and f[5] == 1 and f[1] == 0

    def test_negative_rejected(self):
        from ffspec import QuotientFunction
        with pytest.raises(ValueError):
            QuotientFunction(Space(3, 1), (1, -1, 0))
        with pytest.raises(ValueError):
            QuotientFunction(Space(3, 1), (1, 0))


class TestFileIO:
    def test_round_trip(self, tmp_path, rng):
        spc = Space(7, 3)
        idxs = sorted(int(i) for i in rng.choice(343, 10, replace=False))
        E = PointSet.from_indices(spc, idxs)
        path = tmp_path / "set.txt"
        write_set(E, path)
        assert read_set(path) == E

    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("# sample\n\np 3\nd 2\n0 0\n2 1\n")
        E = read_set(path)
        assert E.space == Space(3, 2)
        assert E.coord_rows() == [[0, 0], [2, 1]]

    def test_empty_body(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("p 5\nd 2\n")
        assert read_set(path).size == 0

    @pytest.mark.parametrize("body,fragment", [
        ("0 0\n", "header"),
        ("p 3\n0 0\n", "header"),
        ("p 3\nd 2\n0\n", "expected 2 coordinates"),
        ("p 3\nd 2\n0 x\n", "non-integer"),
        ("p 3\nd 2\n0 3\n", "out of range"),
        ("p 3\nd 2\n1 1\n1 1\n", "duplicate"),
        ("p 4\nd 2\n", "prime"),
        ("p 3\nd 9\n", "d must be"),
    ])
    def test_malformed(self, tmp_path, body, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(SetFormatError) as err:
            read_set(path)
        assert fragment in str(err.value)
