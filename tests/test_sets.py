from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import (
    PointSet,
    SetFormatError,
    Space,
    all_directions,
    indicator,
    read_set,
    write_set,
)
from ffspec.space import coords_to_index
from ffspec.tables import add_table, dir_of_index, difference, line_of


def _translate(E, x):
    """E + x, read from the translation rows of add_table."""
    row = add_table(E.space.p, E.space.d)[x.index, E.indices()]
    return PointSet.from_indices(E.space, row.tolist())


def _projection(E, k):
    """Coset counts |E ∩ (x + span(rep_k))| along direction id k, keyed
    by the line_of id of each coset."""
    ids = line_of(E.space.p, E.space.d)[k, E.indices()]
    return Counter(ids.tolist())


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
        # set algebra is bitwise on masks
        spc = Space(3, 2)
        a = PointSet.from_indices(spc, [0, 1, 2])
        b = PointSet.from_indices(spc, [2, 3])
        assert PointSet(spc, a.mask | b.mask).indices() == [0, 1, 2, 3]
        assert PointSet(spc, a.mask & b.mask).indices() == [2]
        assert PointSet(spc, a.mask & ~b.mask).indices() == [0, 1]
        assert PointSet(spc, a.mask ^ (1 << spc.order) - 1).size == 6
        assert PointSet.from_indices(spc, range(9)).size == 9
        assert PointSet(spc, 0).size == 0

    def test_contains(self):
        spc = Space(5, 2)
        E = PointSet.from_coords(spc, [(1, 2)])
        assert spc.point((1, 2)) in list(E)
        assert spc.point((2, 1)) not in list(E)
        assert E.indices() == [coords_to_index((1, 2), 5)]

    @given(random_set(), st.data())
    def test_translate_is_bijection(self, E, data):
        spc = E.space
        x = spc.point_at(data.draw(st.integers(0, spc.order - 1)))
        out = _translate(E, x)
        assert out.size == E.size
        assert _translate(out, x.scale(-1)) == E
        assert {pt.coords for pt in out} == set(
            O.translate(spc.p, [pt.coords for pt in E], x.coords))

    def test_translate_zero(self):
        spc = Space(3, 3)
        E = PointSet.from_indices(spc, [1, 5, 20])
        assert _translate(E, spc.zero()) == E


class TestProjection:
    """Coset counts along a direction, read off the line_of ids: the
    coset of direction k through x has id k * p^d plus its least point."""

    def test_example(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(spc, [(0, 0, 0), (0, 0, 1), (1, 0, 0)])
        k = [dr.rep.coords for dr in all_directions(spc)].index((0, 0, 1))
        # the cosets through (0, 0, 0) and (1, 0, 0), of least points 0, 1
        assert _projection(E, k) == {k * 27 + 0: 2, k * 27 + 1: 1}

    @given(random_set(), st.data())
    def test_mass_conserved(self, E, data):
        spc = E.space
        n = spc.order
        k = data.draw(st.integers(0, len(all_directions(spc)) - 1))
        q = _projection(E, k)
        assert sum(q.values()) == E.size
        assert all(k * n <= c < (k + 1) * n and v <= spc.p
                   for c, v in q.items())
        # each point's id names the least point of its coset
        ids = line_of(spc.p, spc.d)[k, E.indices()] - k * n
        diff = difference(spc.p, spc.d, E.indices(), ids)
        assert all(ids <= E.indices())
        assert set(dir_of_index(spc.p, spc.d)[diff].tolist()) <= {-1, k}

    def test_oracle_agreement(self, rng):
        # every space with d >= 2 and every direction: two points share
        # an id exactly when the oracle puts them in one coset, found by
        # walking a quotient basis and delta
        for p, d in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]:
            spc = Space(p, d)
            for k, delta in enumerate(all_directions(spc)):
                idxs = rng.choice(spc.order, size=6, replace=False)
                E = PointSet.from_indices(spc, sorted(int(i) for i in idxs))
                cells = [O.projection_counts(p, d, [pt.coords],
                                             delta.rep.coords)
                         for pt in E]
                ids = line_of(p, d)[k, E.indices()].tolist()
                assert len(set(zip(map(tuple, cells), ids))) == \
                    len(set(map(tuple, cells))) == len(set(ids))

    def test_projection_translate_commutes(self, rng):
        spc = Space(3, 3)
        for _ in range(10):
            idxs = sorted(int(i) for i in rng.choice(27, 5, replace=False))
            E = PointSet.from_indices(spc, idxs)
            k = int(rng.integers(13))
            shift = all_directions(spc)[k].rep.scale(int(rng.integers(3)))
            # translating along delta leaves every coset count unchanged
            assert _projection(_translate(E, shift), k) == _projection(E, k)

    def test_cell_constant_along_delta(self):
        spc = Space(5, 2)
        k = [dr.rep.coords for dr in all_directions(spc)].index((1, 2))
        delta = all_directions(spc)[k]
        ids = line_of(5, 2)[k]
        for i in range(spc.order):
            pt = spc.point_at(i)
            for t in range(5):
                assert ids[(pt + delta.rep.scale(t)).index] == ids[i]


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
