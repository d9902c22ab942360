from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from ffspec import (
    PointSet,
    SetFormatError,
    Space,
    indicator,
    read_set,
    write_set,
)
from ffspec.sets import bit_rows
from ffspec.space import coords_to_index
from ffspec.tables import (add_table, coords_matrix, dir_of_index,
                           difference, direction_reps, line_of, scale_tables)


def _translate(E, x):
    """E + x for a point index x, read from the translation rows of
    add_table."""
    row = add_table(E.space.p, E.space.d)[x, E.indices()]
    return PointSet(E.space, row.tolist())


def _rows(E):
    return [tuple(r) for r in E.coord_rows()]


def _direction_id(p, d, coords):
    return direction_reps(p, d).tolist().index(coords_to_index(coords, p))


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
    return PointSet(spc, sorted(idxs))


class TestPointSet:
    def test_constructors_agree(self):
        spc = Space(3, 2)
        a = PointSet(spc, [0, 4, 8])
        b = PointSet.from_coords(spc, [(0, 0), (1, 1), (2, 2)])
        assert a == b
        assert a.size == 3
        assert a.indices() == [0, 4, 8]
        assert a.coord_rows() == [[0, 0], [1, 1], [2, 2]]

    def test_bounds(self):
        spc = Space(3, 2)
        with pytest.raises(ValueError, match="point index 9 out of range"):
            PointSet(spc, [0, 9, 3])
        with pytest.raises(ValueError, match="point index -1 out of range"):
            PointSet(spc, [-1, 4])
        assert PointSet(spc, range(9)).size == 9

    def test_sorted_distinct_indices(self):
        # unsorted input and repeats build the one sorted tuple, so equal
        # sets compare and hash equal however they were given
        spc = Space(3, 2)
        E = PointSet(spc, [5, 3, 5, 0, 3])
        assert E.points == (0, 3, 5) and E.size == 3
        assert E == PointSet(spc, (0, 3, 5)) and hash(E) == hash(
            PointSet(spc, iter([3, 0, 5])))
        empty = PointSet(spc, ())
        assert empty.size == 0 and empty.indices() == [] and not empty.points

    def test_contains(self):
        spc = Space(5, 2)
        E = PointSet.from_coords(spc, [(1, 2)])
        assert coords_to_index((1, 2), 5) in E.points
        assert coords_to_index((2, 1), 5) not in E.points
        assert E.indices() == [coords_to_index((1, 2), 5)]

    def test_from_coords_rows(self):
        # each row needs d entries, and entries are read mod p
        spc = Space(7, 3)
        with pytest.raises(ValueError, match="coordinate count"):
            PointSet.from_coords(spc, [(1, 2, 3), (1, 2)])
        assert PointSet.from_coords(spc, [(-1, 0, 0)]) == \
            PointSet.from_coords(spc, [(6, 0, 0)]) == \
            PointSet(spc, [6])

    def test_numpy_integers(self):
        # numpy indices and coordinates build the same Python-int points,
        # which hash as the ints they equal; floats are refused
        spc = Space(7, 3)
        want = PointSet(spc, [162, 342])
        assert PointSet.from_coords(spc, coords_matrix(7, 3)[[162, 342]]) \
            == want
        E = PointSet(spc, np.array([342, 162, 5], dtype=np.int16))
        assert E.indices() == [5, 162, 342]
        assert {type(i) for i in E.points} == {int}
        with pytest.raises(TypeError):
            PointSet(spc, [1.0])
        with pytest.raises(TypeError):
            PointSet(spc, np.array([1.0, 2.0]))

    @given(random_set(), st.data())
    def test_translate_is_bijection(self, E, data):
        spc = E.space
        x = data.draw(st.integers(0, spc.order - 1))
        out = _translate(E, x)
        assert out.size == E.size
        assert _translate(out, scale_tables(spc.p, spc.d)[-1, x]) == E
        assert set(_rows(out)) == set(O.translate(
            spc.p, _rows(E), O.all_points(spc.p, spc.d)[x]))

    def test_translate_zero(self):
        spc = Space(3, 3)
        E = PointSet(spc, [1, 5, 20])
        assert _translate(E, 0) == E


class TestBitRows:
    # the one packer of both searches' bit rows
    def test_matches_bit_by_bit_ints(self, rng):
        bits = rng.random((3, 4, 343)) < 0.3
        want = [[sum(1 << j for j in np.flatnonzero(row).tolist())
                 for row in block] for block in bits]
        assert bit_rows(bits) == want
        # a transposed view, whose rows are not contiguous
        assert bit_rows(bits[0].T) == [
            sum(1 << j for j in np.flatnonzero(col).tolist())
            for col in bits[0].T]

    def test_empty_rows(self):
        assert bit_rows(np.zeros((2, 3, 0), dtype=bool)) == [[0] * 3] * 2
        assert bit_rows(np.zeros((0, 0), dtype=bool)) == []

    def test_indices_read_once(self):
        spc = Space(5, 2)
        E = PointSet(spc, [24, 3, 7])
        assert E.indices() == [3, 7, 24]
        E.indices().append(0)           # a caller's copy, not the set's
        assert E.indices() == [3, 7, 24]
        assert E == PointSet(spc, E.indices()) and hash(E) == hash(
            PointSet(spc, E.indices()))


class TestProjection:
    """Coset counts along a direction, read off the line_of ids: the
    coset of direction k through x has id k * p^d plus its least point."""

    def test_example(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(spc, [(0, 0, 0), (0, 0, 1), (1, 0, 0)])
        k = _direction_id(3, 3, (0, 0, 1))
        # the cosets through (0, 0, 0) and (1, 0, 0), of least points 0, 1
        assert _projection(E, k) == {k * 27 + 0: 2, k * 27 + 1: 1}

    @given(random_set(), st.data())
    def test_mass_conserved(self, E, data):
        spc = E.space
        n = spc.order
        k = data.draw(st.integers(0, len(direction_reps(spc.p, spc.d)) - 1))
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
            reps = coords_matrix(p, d)[direction_reps(p, d)].tolist()
            for k, delta in enumerate(reps):
                idxs = rng.choice(spc.order, size=6, replace=False)
                E = PointSet(spc, sorted(int(i) for i in idxs))
                cells = [O.projection_counts(p, d, [pt], delta)
                         for pt in _rows(E)]
                ids = line_of(p, d)[k, E.indices()].tolist()
                assert len(set(zip(map(tuple, cells), ids))) == \
                    len(set(map(tuple, cells))) == len(set(ids))

    def test_projection_translate_commutes(self, rng):
        spc = Space(3, 3)
        for _ in range(10):
            idxs = sorted(int(i) for i in rng.choice(27, 5, replace=False))
            E = PointSet(spc, idxs)
            k = int(rng.integers(13))
            rep = direction_reps(3, 3)[k]
            shift = scale_tables(3, 3)[int(rng.integers(3)), rep]
            # translating along delta leaves every coset count unchanged
            assert _projection(_translate(E, shift), k) == _projection(E, k)

    def test_cell_constant_along_delta(self):
        k = _direction_id(5, 2, (1, 2))
        ids = line_of(5, 2)[k]
        for i, pt in enumerate(O.all_points(5, 2)):
            for t in range(5):
                moved = ((pt[0] + t) % 5, (pt[1] + 2 * t) % 5)
                assert ids[O.point_index(5, moved)] == ids[i]


class TestIndicator:
    def test_values(self):
        spc = Space(3, 2)
        E = PointSet(spc, [0, 5])
        f = indicator(E)
        assert sum(f.values) == 2
        assert f.values[0] == 1 and f.values[5] == 1 and f.values[1] == 0

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
        E = PointSet(spc, idxs)
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
        # int() reads PEP 515 digit separators; a set file does not
        ("p 7\nd 3\n0_1 0 0\n", "line 3: non-integer coordinate"),
        ("p 0_7\nd 3\n", "line 1: bad p value '0_7'"),
        ("p 7\nd 0_3\n", "line 2: bad d value '0_3'"),
        ("p 3\nd 2\n0 3\n", "out of range"),
        ("p 3\nd 2\n1 1\n1 1\n", "duplicate"),
        ("p 4\nd 2\n", "prime"),
        ("p 3\nd 9\n", "d must be"),
        # the header's space is checked before any body line
        ("p 4\nd 3\n3 3 5\n", "p must be the prime 3, 5 or 7, got 4"),
        ("p 3\nd 9\n0 0\n", "d must be 1, 2 or 3, got 9"),
    ])
    def test_malformed(self, tmp_path, body, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(SetFormatError) as err:
            read_set(path)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("head,lineno", [
        (b"p 3\nd 2\n0 0\n", 4),
        (b"# \xe2\x80\x93 first\n", 1),
        # lines counted over the whole file, past any one read buffer,
        # with \r\n and lone \r line ends
        (b"# padding\r\n" * 5000 + b"p 3\rd 2\r", 5003),
    ], ids=["body", "comment", "past-one-buffer"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, head, lineno):
        path = tmp_path / "bad.txt"
        path.write_bytes(head + "0 \u2013 1\n".encode())
        with pytest.raises(SetFormatError) as err:
            read_set(path)
        assert str(err.value) == f"line {lineno}: non-ASCII byte"
