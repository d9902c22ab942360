import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

import oracles as O
from ffspec import (
    InternalCheckError,
    LemmaReport,
    PointSet,
    Space,
    falsify_random,
    verify_fuglede_small,
    verify_lm1,
    verify_lm2,
    verify_proj21,
    verify_slab_p3,
)
from ffspec import lemmas, spectral
from ffspec.fourier import zero_set
from ffspec.lemmas import (
    _chunk_total,
    _coord_cex,
    _decode_profile,
    _fillings,
    _fold,
    _per_set,
    _planar_chunk,
    _planar_eval,
    _proj21_chunk,
    _row_triple_orbits,
    _size_chunk,
    _slab_chunk,
    _sweep,
    affine_class_counts,
    translation_class_counts,
)
from ffspec.spectral import spectrum_search
from ffspec.tables import (add_table, affine_permutation_array,
                           combination_array, coords_matrix, difference,
                           dir_of_index, direction_points, direction_reps,
                           plane_words, subset_rows, subset_words,
                           uniform_word)


class TestLm1:
    def test_reduced_full(self):
        rep = verify_lm1(mode="reduced")
        assert rep.passed
        assert rep.space_cardinality == 1906884 == math.comb(49, 5)
        assert rep.orbit_count == 1035 == math.comb(46, 2)
        assert "98784" in rep.symmetry_group
        d = rep.details
        assert d["enumerated_sets"] == 1035
        assert d["hypothesis_sets"] == 270
        assert d["direction_histogram"] == {"6": 30, "7": 150, "8": 90}
        assert d["anchor"] == [[0, 0], [1, 0], [0, 1]]

    def test_direct_full_and_identity(self):
        direct = verify_lm1(mode="direct")
        reduced = verify_lm1(mode="reduced")
        assert direct.passed and reduced.passed
        dd, dr = direct.details, reduced.details
        assert dd["enumerated_sets"] == math.comb(49, 5)
        assert dd["hypothesis_sets"] == 444528
        assert dd["direction_histogram"] == {
            "6": 49392, "7": 246960, "8": 148176}
        # every hypothesis set carries 10 triangles = 60 ordered ones,
        # and the affine group is sharply transitive on those
        for k in ("6", "7", "8"):
            assert int(dd["direction_histogram"][k]) * 60 == \
                int(dr["direction_histogram"][k]) * 98784

    def test_collinear_sets_skipped(self):
        rows = np.array([[0, 1, 2, 7, 15],     # (0,0),(1,0),(2,0) collinear
                         [0, 1, 7, 15, 37]], dtype=np.int16)
        n, hyp, hist, triples, bad = _planar_eval(plane_words(7, 2, rows), 3)
        assert n == 2
        assert hyp == 1
        assert triples == 0
        assert bad == []

    def test_two_parameter_family(self):
        # E(a,b) = {(0,0),(0,1),(1,0),(1,a),(b,1)}, a,b not in {1,6}
        got = []
        for a in (0, 2, 3, 4, 5):
            for b in (0, 2, 3, 4, 5):
                pts = {(0, 0), (0, 1), (1, 0), (1, a), (b, 1)}
                if len(pts) == 5 and O.line_sup(7, 2, pts) <= 2:
                    got.append((a, b, len(O.direction_set(7, pts))))
                else:
                    # a = 0 or b = 0 collapses a point; the four pairs
                    # left over put three points on a line
                    assert a == 0 or b == 0 or \
                        (a, b) in {(2, 4), (4, 2), (3, 5), (5, 3)}
        assert got == [
            (2, 2, 6), (2, 3, 8), (2, 5, 7), (3, 2, 8), (3, 3, 7),
            (3, 4, 7), (4, 3, 7), (4, 4, 7), (4, 5, 7), (5, 2, 7),
            (5, 4, 7), (5, 5, 7)]

    def test_no_root_of_b2_b_1(self):
        vals = tuple((b * b - b - 1) % 7 for b in range(7))
        assert vals == (6, 6, 1, 5, 4, 5, 1)
        assert 0 not in vals
        squares = {(x * x) % 7 for x in range(7)}
        assert squares == {0, 1, 2, 4}
        assert 5 not in squares  # discriminant of b^2 - b - 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_lm1(mode="sideways")


class TestLm2:
    def test_reduced_full(self):
        rep = verify_lm2()
        assert rep.passed
        assert rep.space_cardinality == math.comb(49, 7) == 85900584
        assert rep.orbit_count == math.comb(46, 4) == 163185
        d = rep.details
        assert d["hypothesis_sets"] == 122345
        assert d["collinear_triples"] == 362625
        assert d["direction_histogram"] == {
            "6": 90, "7": 6450, "8": 115805}

    def test_anchored_chunk_scratch(self, traced_peak):
        # words one _EVAL_BLOCK at a time and no tail rows: intp rows of
        # the 163,185 tails alone would take 5.2 MB
        chunk = (lemmas._ANCHOR, _REST, 4, 0, math.comb(46, 4))
        _chunk_total(_planar_chunk, chunk)     # warms the cached tables
        assert traced_peak(_chunk_total, _planar_chunk, chunk) < 4e6

    def test_four_collinear_sets_skipped(self):
        # (0,0),(1,0),(2,0),(3,0) collinear among 7 points
        rows = np.array([[0, 1, 2, 3, 7, 15, 23]], dtype=np.int16)
        n, hyp, hist, triples, bad = _planar_eval(plane_words(7, 2, rows), 4)
        assert n == 1 and hyp == 0 and bad == []

    def test_double_column_family(self):
        # {(0,0),(0,1),(0,2),(1,0),(1,1),(c,d),(c,d+1)}, c not in {0,1},
        # d != 0; the direction-matching set equation forces (c,d)
        survivors = []
        for c in range(2, 7):
            for d in range(1, 7):
                lhs = {(-2 * c) % 7, (-c) % 7, 0, c}
                rhs = {(d - 2) % 7, (d - 1) % 7, d, (d + 1) % 7}
                if lhs == rhs:
                    survivors.append((c, d))
        assert survivors == [(6, 1)]
        pts = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (6, 1), (6, 2)}
        assert len(O.direction_set(7, pts)) >= 6
        assert O.line_sup(7, 2, pts) <= 3


# the 46 points of F_7^2 outside lm1 and lm2's anchor triangle
_REST = tuple(i for i in range(49) if i not in lemmas._ANCHOR)


def _idx(pts):
    return [O.point_index(7, pt) for pt in pts]


# planted collinearity in F_7^2: one 3-point line (5 points), two
# 3-point lines (7), a 4-point line (7), 7 points on one line, and the
# parabola y = x^2, 7 points with no 3 collinear
_BUILT_PLANAR_ROWS = [
    _idx([(0, 0), (1, 0), (2, 0), (0, 1), (1, 3)]),
    _idx([(0, 0), (1, 0), (2, 0), (0, 3), (1, 3), (2, 3), (3, 5)]),
    _idx([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 3), (4, 5)]),
    _idx([(x, 0) for x in range(7)]),
    _idx([(x, x * x % 7) for x in range(7)]),
]


class TestPlanarScreen:
    @pytest.mark.parametrize("no_k", [3, 4])
    @pytest.mark.parametrize("size", [5, 7])
    def test_packed_screen_oracle(self, rng, monkeypatch, size, no_k):
        rows = [sorted(rng.choice(49, size, replace=False).tolist())
                for _ in range(60)]
        rows += [r for r in _BUILT_PLANAR_ROWS if len(r) == size]
        pts = O.all_points(7, 2)
        # every hypothesis row is a counterexample, so the positions
        # list shows which rows passed the screen
        monkeypatch.setattr(lemmas, "_MIN_DIRECTIONS", 9)
        hyp_rows, hist, triples = [], Counter(), 0
        for i, row in enumerate(rows):
            E = [pts[j] for j in row]
            if O.line_sup(7, 2, E) >= no_k:
                continue
            hyp_rows.append(i)
            hist[len(O.direction_set(7, E))] += 1
            triples += sum(len(set(E) & ln) == 3 for ln in O.all_lines(7, 2))
        n, hyp, got_hist, got_triples, pos = _planar_eval(
            plane_words(7, 2, rows), no_k)
        assert (n, hyp, pos) == (len(rows), len(hyp_rows), hyp_rows)
        assert got_hist.tolist() == [hist[k] for k in range(9)]
        assert got_triples == triples
        assert 0 < len(hyp_rows) < len(rows)

    def test_built_rows(self):
        lines = [O.line_sup(7, 2, [O.all_points(7, 2)[j] for j in r])
                 for r in _BUILT_PLANAR_ROWS]
        assert lines == [3, 3, 4, 7, 2]
        # (hypothesis rows, collinear triples) of the two-line row
        words = plane_words(7, 2, _BUILT_PLANAR_ROWS[1:2])
        assert _planar_eval(words, 4)[1:4:2] == (1, 2)
        assert _planar_eval(words, 3)[1:4:2] == (0, 0)

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            _planar_eval(plane_words(7, 2, _BUILT_PLANAR_ROWS[:1]), 5)


def _explicit_rows(rows, no_k):
    """_planar_eval over explicit index rows, in row blocks,
    counterexamples as index lists."""
    total = None
    for a in range(0, len(rows), 1 << 15):
        *res, viol = _planar_eval(plane_words(7, 2, rows[a:a + (1 << 15)]),
                                  no_k)
        res.append([{"set": rows[a + j].tolist()} for j in viol])
        total = res if total is None else [_fold(x, y)
                                           for x, y in zip(total, res)]
    return total


def _explicit_chunk(size, i1, block):
    """_explicit_rows over block `block` (_TAIL_BLOCK rows each) of the
    rows [0, i1] + tail, tail over the (size - 2)-subsets of
    {i1 + 1 .. 48}."""
    lo = block * lemmas._TAIL_BLOCK
    tail = combination_array(48 - i1, size - 2)[lo:lo + lemmas._TAIL_BLOCK]
    rows = np.hstack([np.full((len(tail), 2), (0, i1)),
                      tail.astype(np.int64) + i1 + 1])
    return _explicit_rows(rows, 3 if size == 5 else 4)


class TestPrefixSharing:
    # (size, i1, block): the direct-mode rows [0, i1] + tail, block
    # `block` of _TAIL_BLOCK of them, read by one _planar_chunk; they
    # cross runs of tables.subset_words, and block 1 of i1 = 1 at size 7
    # starts 2^18 rows in
    @pytest.mark.parametrize("size,i1,block", [
        (7, 1, 1), (5, 10, 0), (7, 10, 1), (5, 43, 0), (7, 43, 0)])
    @pytest.mark.parametrize("min_dirs", [6, 8])
    def test_task_matches_explicit_rows(self, monkeypatch, size, i1, block,
                                        min_dirs):
        monkeypatch.setattr(lemmas, "_MIN_DIRECTIONS", min_dirs)
        r = size - 1
        # the r-subsets of 1 .. 48 that begin with i1 follow those that
        # begin below it
        start = math.comb(48, r) - math.comb(49 - i1, r)
        lo = start + block * lemmas._TAIL_BLOCK
        hi = min(start + math.comb(48 - i1, r - 1), lo + lemmas._TAIL_BLOCK)
        got = _chunk_total(_planar_chunk, ((0,), range(1, 49), r, lo, hi))
        want = _explicit_chunk(size, i1, block)
        assert got[:2] + got[3:] == want[:2] + want[3:]
        assert got[2].tolist() == want[2].tolist()
        # points 44 .. 48 lie on the line y = 6, so i1 = 43 leaves no
        # hypothesis set; elsewhere the raised bound orders real lists
        assert (len(got[4]) > 0) == (min_dirs > 6 and i1 < 43)

    def test_direct_results_independent_of_workers(self, fork_count):
        def dumps(rep):
            return json.dumps(rep.result_dict(), sort_keys=True)
        assert dumps(verify_lm1(workers=1)) == dumps(verify_lm1(workers=2))
        # lm1's C(48, 4) = 194,580 sets through the origin are one
        # chunk, so a second worker forks nothing
        assert fork_count() == 0


def _eval_words(monkeypatch):
    """Wrap lemmas._planar_eval; returns the words of each call."""
    calls = []
    real = lemmas._planar_eval

    def wrapper(words, no_k):
        calls.append(words.copy())
        return real(words, no_k)

    monkeypatch.setattr(lemmas, "_planar_eval", wrapper)
    return calls


def _with_origin(rows):
    return [(0, *row) for row in rows]


def _residue_keys(p, d, rows):
    """Zero-direction keys of index rows from residue counts over the
    oracle's coordinates, with no plane words: bit k is set when
    x . rep_k takes each of the p residues equally often over the row."""
    pts = np.array(O.all_points(p, d), dtype=np.int16)
    res = pts[rows] @ pts[direction_reps(p, d)].T % p   # (n, m, n_dirs)
    counts = [(res == j).sum(axis=1) for j in range(p)]
    zero = np.all([c == counts[0] for c in counts], axis=0)
    return zero @ (1 << np.arange(zero.shape[1]))


class TestTailWords:
    """The chunks read each row's word as its run's base word plus one
    row of a cached table (tables.subset_words); the words must equal
    the plane_words of the explicit rows."""

    def test_lm1_tails_at_every_i1(self, monkeypatch):
        calls = _eval_words(monkeypatch)
        _chunk_total(_planar_chunk,
                     ((0,), range(1, 49), 4, 0, math.comb(48, 4)))
        assert [len(c) for c in calls] == [lemmas._EVAL_BLOCK] * 97 + [580]
        want = _with_origin(itertools.combinations(range(1, 49), 4))
        assert np.array_equal(np.concatenate(calls), plane_words(7, 2, want))

    def test_lm2_direct_tails_read_the_table(self, monkeypatch):
        # a three-point lead plus one row of the C(48, 3)-row table: the
        # first rows, and the last 5,005 (those that begin at 34 or up)
        calls = _eval_words(monkeypatch)
        n = math.comb(48, 6)
        _chunk_total(_planar_chunk, ((0,), range(1, 49), 6, 0, 3000))
        _chunk_total(_planar_chunk, ((0,), range(1, 49), 6, n - 5005, n))
        first = itertools.islice(itertools.combinations(range(1, 49), 6),
                                 3000)
        last = itertools.combinations(range(34, 49), 6)
        want = _with_origin([*first, *last])
        assert np.array_equal(np.concatenate(calls), plane_words(7, 2, want))

    def test_anchored_tails(self, monkeypatch):
        # lm2 reduced (r = 4) and lm1 reduced (r = 2); with every
        # hypothesis row a counterexample, the sets come back sorted
        monkeypatch.setattr(lemmas, "_MIN_DIRECTIONS", 9)
        calls = _eval_words(monkeypatch)
        for r in (4, 2):
            got = _chunk_total(_planar_chunk, (lemmas._ANCHOR, _REST, r, 0,
                                               math.comb(46, r)))
            rows = np.array([(*lemmas._ANCHOR, *tail)
                             for tail in itertools.combinations(_REST, r)])
            assert np.array_equal(np.concatenate(calls),
                                  plane_words(7, 2, rows)), r
            calls.clear()
            want = _explicit_rows(np.sort(rows, axis=1), 3 if r == 2 else 4)
            assert got[:2] + got[3:] == want[:2] + want[3:]
            assert got[2].tolist() == want[2].tolist() and got[4]

    def test_f33_rows(self):
        n = math.comb(26, 5)
        assert np.array_equal(subset_words(3, 3, *lemmas._origin_sets(3, 3, 6),
                                           0, n),
                              plane_words(3, 3, O.through_origin(27, 6)))
        # any range of combination_array(27, 6), across runs and past
        # its end
        full = combination_array(27, 6)
        for lo, hi in [(0, 1), (12649, 12652), (n - 3, n + 5000),
                       (0, len(full)), (len(full) - 7, len(full) + 9)]:
            got = subset_words(3, 3, (), range(27), 6, lo, hi)
            assert np.array_equal(got, plane_words(3, 3, full[lo:hi])), lo

    def test_f33_keys_are_the_zero_directions(self):
        # the keys of every fuglede sweep's largest searched size
        for p, d, size in [(3, 3, 6), (5, 2, 5), (3, 2, 3)]:
            want = _residue_keys(p, d, O.through_origin(p ** d, size))
            keys = lemmas._zero_keys(p, d, size)
            assert keys.tolist() == want.tolist()
            assert keys.dtype == np.dtype("<u2" if d == 3 else "<u1")


class TestProj21:
    def test_fillings_count(self):
        assert len(_fillings()) == 1128 == O.filling_count(4, 7, 7)

    def test_decode_profile(self):
        for row in _fillings()[::97]:
            code = (int((row == 1).sum()) + 8 * int((row == 2).sum())
                    + 64 * int((row == 3).sum()))
            assert sorted(row.tolist()) == _decode_profile(code)

    def test_single_chunk(self):
        functions, weighted, hist, profiles, cex = _chunk_total(
            _proj21_chunk, ((0, 1, 2), 0, 2))
        assert cex == []
        # both representatives, each weighed by its two orbits, times
        # every filling of the other two rows
        _, wts = lemmas._f1_orbit_reps()
        assert functions == (dict(_row_triple_orbits())[(0, 1, 2)]
                             * int(wts[:2].sum()) * 1128 ** 2)
        assert 0 < weighted < functions
        assert all(int(hist[k]) == 0 for k in range(3, 8))
        for prof in profiles:
            assert all(sum(_decode_profile(c)) == 7 for c in prof)

    def test_skipped_representatives_fail_count(self, monkeypatch):
        # chunks that skip the representatives of their blocks enumerate
        # no function
        monkeypatch.setattr(lemmas, "_proj21_chunk",
                            lambda args: _proj21_chunk((*args[:2], args[1])))
        with pytest.raises(InternalCheckError,
                           match="enumerated 0, expected") as err:
            lemmas.verify_proj21()
        # field 0 counts weighted functions, not sets
        assert "sets" not in str(err.value)

    # the first representative has a value 3; the last, (1, ..., 1), has
    # none, so only there does the chunk ask the other rows for a 3
    @pytest.mark.parametrize("lo", [0, 30])
    def test_chunk_matches_line_sum_oracle(self, lo):
        # every pair's 49-cell function, summed over the 56 lines of the
        # coordinate oracle, grouped by direction, in blocks of j2
        rows = (0, 1, 3)
        V = _fillings()
        reps, wts = lemmas._f1_orbit_reps()
        j1 = int(reps[lo])
        w1 = dict(lemmas._row_triple_orbits())[rows] * int(wts[lo])
        by_dir: dict = {}
        for line in O.all_lines(7, 2):
            a, b = sorted(line)[:2]
            vec = O.canon_dir(7, tuple((y - x) % 7 for x, y in zip(a, b)))
            by_dir.setdefault(vec, []).append(
                [O.point_index(7, pt) for pt in line])
        lines = np.array([by_dir[v] for v in sorted(by_dir)])    # (8, 7, 7)
        assert lines.shape == (8, 7, 7)
        codes = ((V == 1).sum(axis=1) + 8 * (V == 2).sum(axis=1)
                 + 64 * (V == 3).sum(axis=1))
        cells = [7 * r + np.arange(7) for r in rows]
        raw, hist, trips, cex = 0, np.zeros(8, np.int64), [], []
        for lo2 in range(0, len(V), 32):
            j2 = np.arange(lo2, min(lo2 + 32, len(V)))
            f = np.zeros((len(j2), len(V), 49), np.int8)
            f[:, :, cells[0]] = V[j1]
            f[:, :, cells[1]] = V[j2][:, None, :]
            f[:, :, cells[2]] = V[None, :, :]
            sums = f[..., lines].sum(axis=-1)         # (j2, j3, 8, 7)
            ok = (sums <= 7).all(axis=(2, 3)) & (f == 3).any(axis=2)
            equi = (sums == 3).all(axis=3).sum(axis=2)
            raw += int(ok.sum())
            hist += w1 * np.bincount(equi[ok], minlength=8)
            a, b = np.nonzero(ok)
            trips.append(np.stack([np.full(len(a), codes[j1]),
                                   codes[j2[a]], codes[b]], axis=1))
            cex += [[V[j1].tolist(), V[j2[q]].tolist(), V[k].tolist()]
                    for q, k in np.argwhere(ok & (equi > 2))]
        want = {tuple(int(c) for c in t)
                for t in np.unique(np.sort(np.concatenate(trips), axis=1),
                                   axis=0)}
        got = _chunk_total(_proj21_chunk, (rows, lo, lo + 1))
        assert raw > 0 and got[0] == w1 * 1128 ** 2
        assert got[1] == w1 * raw
        assert got[2].tolist() == hist.tolist()
        assert got[3] == want
        assert [c["values"] for c in got[4]] == cex

    def test_fixed_multiset_arrangements(self):
        # arrangements of {0,0,0,1,1,2,3} on two support lines and
        # {0,0,0,1,2,2,2} on the third equidistribute on <= 2 families
        fa = sorted(set(itertools.permutations((0, 0, 0, 1, 1, 2, 3))))
        fc = sorted(set(itertools.permutations((0, 0, 0, 1, 2, 2, 2))))
        assert len(fa) == 420 and len(fc) == 140
        FA = np.array(fa, np.int8)
        FC = np.array(fc, np.int8)
        inv = [0] + [pow(m, 5, 7) for m in range(1, 7)]

        def crossings(rows):
            # cols[t, dir, b]: column where line (dir, b) meets row t
            cols = np.empty((3, 7, 7), np.intp)
            for t, r in enumerate(rows):
                cols[t, 0] = np.arange(7)
                for m in range(1, 7):
                    cols[t, m] = [((r - b) * inv[m]) % 7 for b in range(7)]
            return cols

        # row maps y -> 2 - y and y -> 2 y + 1 stabilize the row sets
        # {0,1,2} and {0,1,3}, identifying the remaining placements of
        # the odd multiset; these three placements cover every
        # arrangement up to an affine map of the y axis
        cases = [((0, 1, 2), 0), ((0, 1, 2), 1), ((0, 1, 3), 0)]
        checked = 0
        for rows, pos in cases:
            cols = crossings(rows)
            tabs = [FA, FA]
            tabs.insert(pos, FC)
            T2 = tabs[1][:, cols[1]]
            T3 = tabs[2][:, cols[2]]
            for f1 in tabs[0]:
                sums = (f1[cols[0]][None, None]
                        + T2[:, None] + T3[None, :])
                ok = (sums <= 7).all(axis=(2, 3))
                equi = (sums == 3).all(axis=3).sum(axis=2)
                assert (equi[ok] <= 2).all()
                checked += int(ok.sum())
        assert checked > 0

    def test_report_accounting(self):
        # the full run lives in the acceptance suite; here check the
        # orbit bookkeeping that feeds it
        from ffspec.lemmas import _f1_orbit_reps, _row_triple_orbits
        reps, wts = _f1_orbit_reps()
        assert len(reps) == 31
        assert int(wts.sum()) == 1128
        orbits = _row_triple_orbits()
        assert sum(w for _, w in orbits) == 35 == math.comb(7, 3)
        assert [r for r, _ in orbits] == [(0, 1, 2), (0, 1, 3)]

    def test_orbits_match_affine_walk(self):
        # both orbit lists against the 42 maps x -> a x + c applied one
        # by one: a representative is the smallest image of its orbit
        from ffspec.lemmas import _f1_orbit_reps, _row_triple_orbits
        maps = [(a, c) for a in range(1, 7) for c in range(7)]
        trips = {}
        for trip in itertools.combinations(range(7), 3):
            images = {tuple(sorted((a * r + c) % 7 for r in trip))
                      for a, c in maps}
            trips[min(images)] = len(images)
        assert _row_triple_orbits() == tuple(sorted(trips.items()))
        want = []
        for j, row in enumerate(_fillings().tolist()):
            images = {tuple(row[(a * i + c) % 7] for i in range(7))
                      for a, c in maps}
            if tuple(row) == min(images):
                want.append((j, len(images)))
        reps, wts = _f1_orbit_reps()
        assert list(zip(reps.tolist(), wts.tolist())) == want


def _coords(E):
    return [tuple(r) for r in E.coord_rows()]


def _direction_coords(spc):
    """The direction representatives, as oracle coordinate tuples."""
    return [tuple(r) for r in
            coords_matrix(spc.p, spc.d)[direction_reps(spc.p, spc.d)].tolist()]


def _slab_hypothesis(E):
    p, pts = E.space.p, _coords(E)
    reps = _direction_coords(E.space)
    zero_dirs = [r for r in reps
                 if len(set(O.residue_counts(p, pts, r))) == 1]
    for normal in reps:
        if sum(1 for r in zero_dirs if O.dot(p, r, normal) == 0) >= 2:
            return True
    return False


def _slab_conclusion(E):
    pts = _coords(E)
    return any(0 in O.residue_counts(E.space.p, pts, rep)
               for rep in _direction_coords(E.space))


class TestSlabP3:
    def test_full_run(self):
        rep = verify_slab_p3()
        assert rep.passed
        assert rep.space_cardinality == 296010 == math.comb(27, 6)
        assert rep.details["enumerated_sets"] == 296010
        assert rep.details["hypothesis_sets"] == 203346
        assert rep.details["planes"] == 13

    def test_two_parallel_lines(self):
        spc = Space(3, 3)
        E = PointSet.from_coords(
            spc, [(t, 0, 0) for t in range(3)] + [(t, 1, 0) for t in range(3)])
        assert _slab_hypothesis(E)
        assert _slab_conclusion(E)

    def test_vacuous_sets_skipped(self, rng):
        # implication checked per set on a seeded sample, independent of
        # the vectorized run; hypothesis failures impose nothing
        spc = Space(3, 3)
        hyp_seen = skip_seen = 0
        for _ in range(200):
            idxs = sorted(int(i) for i in rng.choice(27, 6, replace=False))
            E = PointSet(spc, idxs)
            if _slab_hypothesis(E):
                hyp_seen += 1
                assert _slab_conclusion(E)
            else:
                skip_seen += 1
        assert hyp_seen and skip_seen


class TestFugledeSweeps:
    def test_f32_all_sizes_match_oracle(self):
        rep = verify_fuglede_small(3, 2, range(1, 10))
        assert rep.passed
        sizes = rep.details["sizes"]
        for s in range(1, 10):
            want = {1: 9, 3: 84, 9: 1}.get(s, 0)
            rec = sizes[str(s)]
            assert rec["sets"] == math.comb(9, s)
            assert rec["spectral"] == rec["tiles"] == want
        assert rep.details["pruning"] == "off"

    def test_f32_counterexamples_as_full_enumeration(self, monkeypatch):
        # with every tiling search answering none, each spectral set is a
        # counterexample: the sweep finds the 1 + 28 through the origin,
        # and the report lists all 9 + 84 sets in (size, row) order
        monkeypatch.setattr(lemmas, "tiling_search_rows",
                            lambda p, d, rows, budget: [("none", None, 0)]
                            * len(rows))
        rep = verify_fuglede_small(3, 2, (3, 1))
        pts = O.all_points(3, 2)
        want = [[list(pts[i]) for i in combo] for s in (1, 3)
                for combo in itertools.combinations(range(9), s)]
        assert [c["set"] for c in rep.counterexamples] == want
        assert all(c["spectral"] == "witness" and c["tile"] == "none"
                   for c in rep.counterexamples)
        assert rep.details["sizes"]["3"] == {"sets": 84, "spectral": 84,
                                             "tiles": 0}

    def test_f32_oracle_cross_check(self):
        got = verify_fuglede_small(3, 2, (3,)).details["sizes"]["3"]
        oracle_spec = sum(
            O.spectral_exists(3, 2, combo)
            for combo in itertools.combinations(O.all_points(3, 2), 3))
        oracle_tile = sum(
            O.tiles(3, 2, combo)
            for combo in itertools.combinations(O.all_points(3, 2), 3))
        assert got["spectral"] == oracle_spec == 84
        assert got["tiles"] == oracle_tile == 84

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_fuglede_small(3, 3, (5,))
        with pytest.raises(ValueError):
            verify_fuglede_small(3, 2, (10,))
        with pytest.raises(ValueError):
            verify_fuglede_small(5, 2, (26,))
        with pytest.raises(ValueError):
            verify_fuglede_small(7, 2, (7,))
        # a repeated size would be swept, and counted, twice
        for p, d, sizes in [(3, 2, (3, 3)), (5, 2, (5, 2, 5)), (3, 3, (6, 6))]:
            with pytest.raises(ValueError, match="sizes repeat"):
                verify_fuglede_small(p, d, sizes)

    def test_non_integer_arguments_fail_before_work(self, monkeypatch):
        # read as numbers, 7.0 would size a Space of order 343.0, 5.7 a
        # sweep of size 5 and 21.0 a draw inside numpy's PCG64
        def no_work(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(lemmas, "run_chunks", no_work)
        with pytest.raises(TypeError):
            Space(7.0, 3)
        with pytest.raises(TypeError):
            verify_fuglede_small(5, 2, (5.7,))
        with pytest.raises(TypeError):
            falsify_random(7, 3, 21.0, 10, 1)
        # numpy integers are integers
        spc = Space(np.int64(7), np.uint8(3))
        assert spc == Space(7, 3) and type(spc.order) is int
        monkeypatch.undo()
        rep = verify_fuglede_small(np.int64(3), np.int8(2), (np.int16(3),))
        assert rep.result_dict() == verify_fuglede_small(3, 2, (3,)).result_dict()

    def test_class_counts_match_oracle(self):
        assert translation_class_counts(5, 2, (1, 2, 3)) == {
            1: 1, 2: 12, 3: 92}
        assert translation_class_counts(5, 2, (5,))[5] == 2130
        # values of keying every set through the origin by the least
        # bitmask among its translates
        assert list(translation_class_counts(3, 2, range(1, 10)).values()) \
            == [1, 4, 12, 14, 14, 12, 4, 1, 1]
        assert list(translation_class_counts(5, 2, range(1, 7)).values()) \
            == [1, 12, 92, 506, 2130, 7084]
        assert affine_class_counts(5, 2, (1, 2, 3)) == {1: 1, 2: 1, 3: 2}
        assert affine_class_counts(3, 2, (3, 4)) == {3: 2, 4: 2}

    @pytest.mark.parametrize("p", [3, 5])
    def test_cycle_types_match_walk(self, p, monkeypatch):
        # reference: walk each permutation's cycles in Python
        want = Counter()
        for perm in affine_permutation_array(p, 2).tolist():
            seen, lens = set(), []
            for x in range(len(perm)):
                n = 0
                while x not in seen:
                    seen.add(x)
                    x, n = perm[x], n + 1
                if n:
                    lens.append(n)
            want[tuple(sorted(lens))] += 1
        types = lemmas._cycle_type_counts(p, 2)
        assert dict(types) == want
        # 7 divides neither 432 nor 12,000 maps: a short last block
        monkeypatch.setattr(lemmas, "_MAP_BLOCK", 7)
        assert lemmas._cycle_type_counts.__wrapped__(p, 2) == types

    def test_cycle_types_scratch_is_one_block(self, traced_peak):
        # all 12,000 maps at once would take 8.2 MB of scratch
        affine_permutation_array(5, 2)
        assert traced_peak(lemmas._cycle_type_counts.__wrapped__, 5, 2) < 3e6

    def test_cycle_types_cached_and_immutable(self):
        types = lemmas._cycle_type_counts(5, 2)
        assert lemmas._cycle_type_counts(5, 2) is types
        assert isinstance(types, tuple)
        assert all(isinstance(t, tuple) for t, _ in types)
        assert len(dict(types)) == len(types)
        assert sum(c for _, c in types) == 12000   # |AGL(2, 5)|

    def test_affine_class_counts_pinned(self):
        # values of the per-permutation cycle walk
        assert affine_class_counts(7, 2, (3, 4, 5, 6, 7, 24)) == {
            3: 3, 4: 8, 5: 32, 6: 179, 7: 954, 24: 639924024}
        assert affine_class_counts(5, 2, (5, 10, 15, 20)) == {
            5: 11, 10: 319, 15: 319, 20: 11}
        assert affine_class_counts(3, 2, range(1, 10)) == {
            1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 8: 1, 9: 1}

    def test_translation_count_oracle_size5(self):
        assert O.translation_class_count(5, 2, 2) == 12
        assert O.translation_class_count(5, 2, 3) == 92

    def test_f52_both_filtered_strata_pinned(self):
        # sizes 10, 15 and 20 fail both size filters in F_5^2; the hash
        # is that of the per-set sweep over all 3,311,264 anchored sets
        rep = verify_fuglede_small(5, 2, (10, 15, 20))
        assert rep.details["sizes"]["15"] == {
            "anchored": 1961256, "searched": 1961256, "spectral": 0,
            "tiles": 0}
        assert _result_sha256(rep) == (
            "fd6d8b1a377c7605c7f464dcc9b6e22cdc201b244efd42a7c031219bec22950e")


def _walked_cycle_types(perms) -> tuple:
    """(cycle type, count) pairs of the rows of a permutation array, each
    cycle walked in Python."""
    types = Counter()
    for perm in perms.tolist():
        seen, lens = set(), []
        for x in range(len(perm)):
            n = 0
            while x not in seen:
                seen.add(x)
                x, n = perm[x], n + 1
            if n:
                lens.append(n)
        types[tuple(sorted(lens))] += 1
    return tuple(types.items())


@pytest.mark.parametrize("case,want", [
    ("fillings", 31), ("triples", 2), ("fillings-translations", 162),
    ("plane-3-3", 2), ("plane-3-4", 2), ("plane-5-5", 11)])
def test_orbit_pass_matches_cycle_index(case, want):
    # the one orbit pass against the one count, over the groups of proj21
    # (fillings and row triples under x -> a x + c), the fillings under
    # the translations of F_7 alone, and the plane sweeps' affine groups
    if case.startswith("plane"):
        p, size = map(int, case.split("-")[1:])
        rows = O.through_origin(p * p, size)
        count = lemmas._orbit_count(
            _walked_cycle_types(affine_permutation_array(p, 2)), 1, size)
        reps, orbit, _ = lemmas._affine_orbits(p, rows)
    else:
        if case == "triples":
            rows = np.array([[int(x in t) for x in range(7)]
                             for t in itertools.combinations(range(7), 3)])
            top, total = 1, 3
        else:
            rows, top, total = _fillings(), 3, 7
        perms = (add_table(7, 1) if case.endswith("translations")
                 else affine_permutation_array(7, 1))
        count = lemmas._orbit_count(_walked_cycle_types(perms), top, total)
        powers = (top + 1) ** np.arange(7)
        reps, orbit, _ = lemmas._orbits(rows @ powers,
                                        lambda r: rows[r, perms] @ powers,
                                        count, case)
    assert len(reps) == count == want
    assert len(orbit) == len(rows) and orbit.min() == 0
    assert sorted(orbit[reps].tolist()) == list(range(want))


def _counting(monkeypatch, name):
    """Wrap lemmas.<name>; returns the list of argument tuples it saw."""
    calls = []
    inner = getattr(lemmas, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(lemmas, name, wrapper)
    return calls


def _row_pairs(monkeypatch, module, name):
    """Wrap module.<name>, a row-pair kernel; returns one list per call
    of its (E row, A row) tuples."""
    calls = []
    inner = getattr(module, name)

    def wrapper(p, d, E_rows, A_rows):
        calls.append([(tuple(map(int, e)), tuple(map(int, a)))
                      for e, a in zip(E_rows, A_rows)])
        return inner(p, d, E_rows, A_rows)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def cold_caches():
    """Empty the per-process clique-stage memo before and after a test,
    so counts start cold and patched verdicts do not leak."""
    def clear():
        spectral._clique_in_zero_set.cache_clear()
    clear()
    yield clear
    clear()


class TestGroupedSweeps:
    def test_fug33_chunk_matches_per_row_search(self, monkeypatch):
        # rows [lo, hi) of the six-sets through the origin, searched one
        # by one, against one search of their distinct keys
        lo, hi = 32000, 35000
        space = Space(3, 3)
        dirs = dir_of_index(3, 3).tolist()
        keys = lemmas._zero_keys(3, 3, 6)[lo:hi]
        total = searched = nodes = 0
        searched_keys = set()
        for row, key in zip(O.through_origin(27, 6)[lo:hi], keys.tolist()):
            assert row[0] == 0
            E = PointSet(space, row.tolist())
            z = zero_set(E)
            # bit k of the key: direction k, whose p - 1 points are zeros
            assert z.indices() == [x for x in range(1, 27)
                                   if key >> dirs[x] & 1]
            cert = spectrum_search(E)
            assert cert.verdict == "none"
            total += 1
            if z.size >= 5:
                searched += 1
                searched_keys.add(key)
            nodes += cert.nodes_explored
        calls = _counting(monkeypatch, "_clique_in_zero_set")
        uniq, counts = np.unique(keys, return_counts=True)
        got = lemmas._search_keys(space, 6, uniq.tolist(), counts.tolist())
        assert (int(counts.sum()), *got) == (total, searched, nodes, {})
        assert searched and nodes
        # one clique stage per distinct key of the searched rows
        assert sorted(c[1] for c in calls) == sorted(searched_keys)
        assert {c[2] for c in calls} == {6}

    def test_fug33_search_and_sweep_share_a_clique_entry(self, cold_caches):
        # spectrum_search keys the clique stage by the zero directions it
        # reads off its zero set, as the sweep keys a row: one entry
        space = Space(3, 3)
        keys = lemmas._zero_keys(3, 3, 6)
        i = int(np.flatnonzero(np.bitwise_count(keys) >= 3)[0])
        cert = spectrum_search(
            PointSet(space, O.through_origin(27, 6)[i].tolist()))
        info = spectral._clique_in_zero_set.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        got = lemmas._search_keys(space, 6, [int(keys[i])], [1])
        info = spectral._clique_in_zero_set.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert cert.nodes_explored > 0
        assert got == (1, cert.nodes_explored, {})

    @pytest.mark.parametrize("p,d,size,stages", [
        (3, 3, 6, 377), (5, 2, 5, 27), (3, 2, 3, 8)])
    def test_fug33_one_clique_stage_per_zero_set(self, monkeypatch,
                                                 cold_caches, p, d, size,
                                                 stages):
        # the direction keys of zero sets of size - 1 or more points
        # among the explicit rows, searched once each over the whole size
        want = {key for key in _residue_keys(
                    p, d, O.through_origin(p ** d, size)).tolist()
                if (p - 1) * key.bit_count() >= size - 1}
        calls = _counting(monkeypatch, "_clique_in_zero_set")
        rep = verify_fuglede_small(p, d, (size,))
        assert len(calls) == len(want) == stages
        assert {c[1] for c in calls} == want
        if d == 3:
            assert rep.details["sizes"]["6"] == {
                "sets": 296010, "immediate_none": 206388,
                "searched": 89622, "spectral": 0, "nodes": 105174}

    def test_fug33_key_chunks_independent_of_workers(self, monkeypatch,
                                                     cold_caches,
                                                     fork_count):
        seen, searches = [], []
        real, search = lemmas._sweep, lemmas._search_keys

        def sweep(fn, chunks, workers, expected):
            seen.append(chunks)
            return real(fn, chunks, workers, expected)

        def search_keys(spc, size, keys, counts):
            searches.append((keys, counts))
            return search(spc, size, keys, counts)

        monkeypatch.setattr(lemmas, "_sweep", sweep)
        monkeypatch.setattr(lemmas, "_search_keys", search_keys)
        one = verify_fuglede_small(3, 3, (6,), workers=1)
        assert fork_count() == 0
        cold_caches()
        two = verify_fuglede_small(3, 3, (6,), workers=2)
        # the size is one chunk, run in this process, which searches
        # the distinct keys of all its rows at once
        assert fork_count() == 0
        assert seen[0] == seen[1] == [(3, 3, 6)]
        assert searches[0] == searches[1]
        keys, counts = searches[0]
        assert keys == sorted(set(keys)) and len(keys) == 469
        assert sum(counts) == math.comb(26, 5)
        assert one.result_dict() == two.result_dict()

    def test_fug33_key_pass_forks_nothing(self, fork_count, traced_peak):
        subset_words(3, 3, *lemmas._origin_sets(3, 3, 6), 0, 0)   # warm
        n = len(O.through_origin(27, 6))
        # 16-bit keys (132 kB) and one WORD_BLOCK of words (213 kB);
        # int64 keys alone would take 526 kB
        assert traced_peak(lemmas._zero_keys, 3, 3, 6) < 4.5e5
        assert fork_count() == 0
        keys = lemmas._zero_keys(3, 3, 6)
        assert keys.dtype == np.uint16 and keys.shape == (n,)

    def test_fug33_chunk_miscount_raises(self, monkeypatch):
        # a chunk that loses the rows of its last point fails the
        # sweep's count
        monkeypatch.setattr(lemmas, "_origin_sets",
                            lambda p, d, size: ((0,), range(1, p ** d - 1),
                                                size - 1))
        with pytest.raises(InternalCheckError, match="enumerated"):
            verify_fuglede_small(3, 3, (6,))

    def test_f52_size5_one_tiling_search_per_orbit(self, monkeypatch,
                                                   cold_caches):
        calls = _counting(monkeypatch, "tiling_search_rows")
        rep = verify_fuglede_small(5, 2, (5,))
        # one batched call, one row per affine orbit of the 10,626 sets
        # through the origin
        assert len(calls) == 1 and len(calls[0][2]) == 11
        assert rep.details["translation_classes"]["5"] == 2130
        assert rep.details["sizes"]["5"] == {
            "anchored": 10626, "searched": 3426, "spectral": 3426,
            "tiles": 3426}
        assert _result_sha256(rep) == (
            "c2da90faa101ce54765397eaf67742909146aa2faa341040692a9d5363875256")

    @pytest.mark.parametrize("p,size", [(5, 5), (3, 3)])
    def test_tiling_search_rows_are_affine_orbits(self, monkeypatch, p, size):
        calls = _counting(monkeypatch, "tiling_search_rows")
        verify_fuglede_small(p, 2, (size,))
        (_, _, rows, _), = calls
        want = affine_class_counts(p, 2, (size,))[size]
        assert len(rows) == want == {5: 11, 3: 2}[p]
        # pairwise affinely inequivalent, so every orbit has one row
        perms = O.affine_perms_2d(p)
        assert len({O.affine_min_image(perms, row)
                    for row in rows.tolist()}) == want

    @pytest.mark.parametrize("p,size,change,match", [
        pytest.param(5, 5, 1, "found 11 orbits of 5-sets, expected 12",
                     id="5-5-count"),
        pytest.param(3, 3, -1, "found 2 orbits of 3-sets, expected 1",
                     id="3-3-count"),
        pytest.param(5, 5, "map", "row 651 of 5-sets maps into another orbit",
                     id="5-5-map")])
    def test_changed_pass_input_fails(self, monkeypatch, p, size, change,
                                      match):
        # the affine orbit pass told a count off by one, or given the
        # images under every linear map but the first
        real = lemmas._orbits

        def changed(keys, images, expected, what):
            if change == "map":
                return real(keys, lambda r: images(r)[1:], expected, what)
            return real(keys, images, expected + change, what)

        monkeypatch.setattr(lemmas, "_orbits", changed)
        with pytest.raises(InternalCheckError, match=match):
            verify_fuglede_small(p, 2, (size,))

    @pytest.mark.parametrize("p,size,sample", [(3, 3, None), (3, 4, None),
                                               (5, 5, 400)])
    def test_affine_orbits_match_oracle(self, p, size, sample):
        rows = O.through_origin(p * p, size)
        reps, orbit, maps = lemmas._affine_orbits(p, rows)
        assert orbit.min() == 0 and len(reps) == orbit.max() + 1
        assert [orbit[r] for r in reps] == list(range(len(reps)))
        # every row is M(rep) - e for a point e of M(rep)
        linear = affine_permutation_array(p, 2)[::p * p]
        image = linear[maps[:, None], rows[np.array(reps)[orbit]]]
        moved = np.sort(difference(p, 2, image[:, None, :],
                                   image[:, :, None]), axis=2)
        assert (moved == rows[:, None, :]).all(axis=2).any(axis=1).all()
        # two rows share an orbit exactly when their least affine
        # images agree; the sample holds every representative
        picked = np.arange(len(rows))
        if sample is not None:
            rng = np.random.default_rng(5)
            picked = np.union1d(reps, rng.choice(len(rows), sample,
                                                 replace=False))
        perms = O.affine_perms_2d(p)
        canon = {}
        for r in picked.tolist():
            canon.setdefault(int(orbit[r]), set()).add(
                O.affine_min_image(perms, rows[r].tolist()))
        assert len(canon) == len(reps)
        assert all(len(c) == 1 for c in canon.values())
        assert len(set.union(*canon.values())) == len(reps)

    def test_images_translated_the_wrong_way_fail(self, monkeypatch):
        # M(rep) + e is no set through the origin once M(rep) leaves the
        # line through 0 that row 0 is
        monkeypatch.setattr(lemmas, "difference",
                            lambda p, d, a, b: add_table(p, d)[a, b])
        with pytest.raises(InternalCheckError,
                           match="row 1 of 5-sets maps outside the rows"):
            lemmas._affine_orbits(5, O.through_origin(25, 5))

    def test_false_class_complement_fails_member_check(self, monkeypatch):
        # row 0 is the line {0, ..., 4}, the representative of orbit 0;
        # given itself as complement it covers the line 5 times and
        # nothing else
        reps, orbit, _ = lemmas._affine_orbits(5, O.through_origin(25, 5))
        assert reps[0] == orbit[0] == 0
        assert O.through_origin(25, 5)[0].tolist() == [0, 1, 2, 3, 4]
        real = lemmas._row_complements

        def false(p, size):
            out = real(p, size)
            out[0] = [0, 1, 2, 3, 4]
            return out

        monkeypatch.setattr(lemmas, "_row_complements", false)
        with pytest.raises(InternalCheckError, match=(
                r"complement fails on member set \[0, 1, 2, 3, 4\]")):
            verify_fuglede_small(5, 2, (5,))

    def test_size_chunk_scratch_is_one_check_block(self, fork_count,
                                                   traced_peak):
        # size 5 is one chunk, run in this process; it finds the tiling
        # complements of its rows and checks its 3,426 spectral and
        # tiling rows _CHECK_BLOCK at a time, where all of them at once
        # took 9.0 MB
        args = (5, 2, 5)
        _chunk_total(_size_chunk, args)    # warms the tables and the memo
        assert traced_peak(_chunk_total, _size_chunk, args) < 2e6
        verify_fuglede_small(5, 2, (5,), workers=2)
        assert fork_count() == 0

    def test_small_sweeps_fork_nothing(self, fork_count):
        # slab-p3 is one chunk and each fuglede size one sweep of one
        # chunk, at two workers too, for any list of sizes; a falsify run
        # of more than one chunk still forks
        verify_slab_p3(workers=2)
        verify_fuglede_small(3, 3, (6,), workers=2)
        verify_fuglede_small(5, 2, (5, 20), workers=2)
        verify_fuglede_small(3, 2, (3, 9), workers=2)
        verify_fuglede_small(5, 2, (1, 2, 25), workers=2)
        assert fork_count() == 0
        rep = falsify_random(5, 3, 10, lemmas._FALSIFY_CHUNK + 1, 1, workers=2)
        assert rep.details["trials"] == lemmas._FALSIFY_CHUNK + 1
        assert fork_count() == 2

    def test_f52_size5_same_at_one_and_two_workers(self, cold_caches):
        one = verify_fuglede_small(5, 2, (5,), workers=1)
        cold_caches()
        two = verify_fuglede_small(5, 2, (5,), workers=2)
        assert one.result_dict() == two.result_dict()

    def test_member_tiling_checked_against_class_witness(self, monkeypatch):
        # {0, 2, 5} = {(0,0), (2,0), (2,1)} is {0, 1, 3} - (1,0), and
        # {0, 1, 3}, the first set of its affine orbit, tiles with the
        # diagonal {0, 4, 8}, the complement {0, 2, 5} gets too
        real = lemmas.tiling_pair_rows
        seen = []

        def reject_one(p, d, E_rows, A_rows):
            E_rows = np.asarray(E_rows)
            seen.extend(E_rows.tolist())
            return real(p, d, E_rows, A_rows) & np.array(
                [row != [0, 2, 5] for row in E_rows.tolist()])

        monkeypatch.setattr(lemmas, "tiling_pair_rows", reject_one)
        with pytest.raises(InternalCheckError, match=r"\[0, 2, 5\]"):
            verify_fuglede_small(3, 2, (3,))
        assert [0, 2, 5] in seen and [0, 1, 3] in seen

    def test_every_tiling_member_checked_once(self, monkeypatch):
        calls = _row_pairs(monkeypatch, lemmas, "tiling_pair_rows")
        rep = verify_fuglede_small(3, 2, (3,))
        tiles = rep.details["sizes"]["3"]["tiles"]
        # tiling_pair_rows is symmetric, so the one check block is one
        # call, one (E, A) row per tiling member through the origin in
        # row order and no swapped (A, E) half; the report weighs those
        # 28 sets by 9/3
        members = [(0, *c) for c in itertools.combinations(range(1, 9), 2)]
        assert tiles == 84 and len(members) == tiles // 3
        assert len(calls) == -(-len(members) // lemmas._CHECK_BLOCK) == 1
        assert [E for E, _ in calls[0]] == members
        pts = O.all_points(3, 2)
        assert all(O.is_tiling_pair(3, 2, [pts[i] for i in E],
                                    [pts[i] for i in A])
                   for E, A in calls[0])

    @pytest.mark.parametrize("p,size,want", [(3, 3, 84), (5, 5, 3426)])
    def test_every_spectral_member_checked_both_ways(self, monkeypatch, p,
                                                     size, want):
        calls = _row_pairs(monkeypatch, spectral, "spectral_pair_rows")
        rep = verify_fuglede_small(p, 2, (size,))
        assert rep.details["sizes"][str(size)]["spectral"] == want
        members = []
        for call in calls:
            # one call per block: each (E, A), then each swapped (A, E)
            half = len(call) // 2
            assert call[half:] == [(A, E) for E, A in call[:half]]
            members += call[:half]
        # the sets through the origin: fuglede-3-2 weighs them by 9/size
        through = want if p == 5 else want * size // 9
        assert len({E for E, _ in members}) == len(members) == through
        pts = O.all_points(p, 2)
        for E, A in members[::max(1, len(members) // 40)]:
            assert O.is_spectral_pair(p, 2, [pts[i] for i in E],
                                      [pts[i] for i in A])

    @pytest.mark.parametrize("name,value", [
        ("_clique_in_zero_set", lambda *a: ("aborted", None, 1)),
        ("tiling_search_rows",
         lambda p, d, rows, budget: [("aborted", None, 1)] * len(rows)),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_failure_is_named(self, monkeypatch, cold_caches,
                                     fork_count, name, value, workers):
        # each size is one sweep of one chunk, which runs its tiling
        # searches and clique stages in this process at any worker
        # count; test_parallel covers an error crossing a fork
        monkeypatch.setattr(lemmas, name, value)
        with pytest.raises(lemmas.SweepBudgetError, match="budget"):
            verify_fuglede_small(3, 2, (3, 9), workers=workers)
        assert fork_count() == 0

    def test_rejected_sizes_build_no_set(self, monkeypatch):
        # both size filters reject sizes 10, 15 and 20 of F_5^2 and size
        # 6 of F_3^2: their chunks count the sets without building a
        # row, a key or a complement
        def no_rows(*args):
            raise AssertionError("a rejected size built a set")

        for name in ("_zero_keys", "_row_complements", "subset_rows"):
            monkeypatch.setattr(lemmas, name, no_rows)
        for args, want in [
                ((5, 2, (10, 15, 20)), "fd6d8b1a377c7605c7f464dcc9b6e22c"
                 "dc201b244efd42a7c031219bec22950e"),
                ((3, 2, (6,)), "65bf1e519ceb977d8209ab9c18f94c22"
                 "48e53b188760bc6afebe8c6c7d9faf11")]:
            rep = verify_fuglede_small(*args, workers=2)
            assert _result_sha256(rep) == want
        assert rep.details["sizes"]["6"] == {
            "sets": 84, "spectral": 0, "tiles": 0}


class TestFalsify:
    def test_validation(self):
        with pytest.raises(ValueError):
            falsify_random(7, 3, 20, 10, 1)   # 20 is not a multiple of 7
        with pytest.raises(ValueError):
            falsify_random(7, 3, 7, 10, 1)    # m = 1 out of range
        with pytest.raises(ValueError):
            falsify_random(7, 3, 49, 10, 1)   # m = 7 out of range
        with pytest.raises(ValueError):
            falsify_random(5, 3, 10, 0, 1)
        with pytest.raises(ValueError, match="^seed must be non-negative, "
                                             "got -1$"):
            falsify_random(5, 3, 10, 5, -1)
        with pytest.raises(TypeError):
            falsify_random(5, 3, 10, 5, 1.0)

    def test_deterministic_across_runs_and_workers(self):
        a = falsify_random(5, 3, 10, 4100, 999, workers=1)
        b = falsify_random(5, 3, 10, 4100, 999, workers=3)
        c = falsify_random(5, 3, 10, 4100, 999, workers=1)
        assert a.result_dict() == b.result_dict() == c.result_dict()
        assert json.dumps(a.result_dict(), sort_keys=True) == \
            json.dumps(b.result_dict(), sort_keys=True)

    def test_report_shape(self):
        rep = falsify_random(7, 3, 21, 300, 42)
        assert rep.passed
        assert rep.seed == 42
        assert rep.lemma_id == "falsify-7-3-21"
        d = rep.details
        assert d["trials"] == 300
        assert sum(d["outcomes"].values()) == 300
        assert "statistical evidence" in d["note"]
        assert set(d["pruning"]) <= {
            "line_concentration", "plane_concentration",
            "plane_directions", "size_filtered"}
        assert "seed" in rep.result_dict()

    @pytest.mark.parametrize("p,size", [(5, 20), (5, 15), (7, 42), (7, 35)])
    def test_large_multiple_sizes(self, p, size):
        # sizes p(p-1) and p(p-2) in dimension 3: no witness ever
        rep = falsify_random(p, 3, size, 200, 7)
        assert rep.passed
        assert rep.details["outcomes"].get("witness", 0) == 0


def _choice_loop(child, n, size, count):
    """The reference sampler: one rng.choice per row, rows sorted."""
    rng = np.random.Generator(np.random.PCG64(child))
    return np.sort([rng.choice(n, size=size, replace=False)
                    for _ in range(count)], axis=1)


# every shape falsify draws: d = 3 and size mp, 2 <= m <= p - 1 (at
# d = 2 the size filter rejects every trial before any draw)
_FALSIFY_SHAPES = [(p, m * p) for p in (3, 5, 7) for m in range(2, p)]


class TestChoiceRows:
    @pytest.mark.parametrize("p,size", _FALSIFY_SHAPES)
    def test_equals_choice_loop(self, p, size):
        """The vectorized rows equal numpy's per-row rng.choice, sorted.

        If this fails after a numpy upgrade while
        test_pcg64_raw_words_pinned passes, Generator.choice changed how
        it draws, and the falsify pins did not move: they read the raw
        words through _choice_rows.  Only chunks that fall back to the
        loop (none in a pinned run) would follow the new choice.
        """
        for seed in (0, 1, 20260712):
            for child in np.random.SeedSequence(seed).spawn(2):
                rows = lemmas._choice_rows(child, p ** 3, size, 300)
                assert rows is not None
                assert np.array_equal(np.sort(rows, axis=1),
                                      _choice_loop(child, p ** 3, size, 300))

    # children of SeedSequence(0), found by scanning: in 2,000 rows,
    # child 155 has a rejected Floyd draw at 7/3/21 (row 150) and child
    # 5241 a rejected shuffle draw at 7/3/42 (row 347); child 0 has none
    @pytest.mark.parametrize("size,index,fallback", [
        (21, 155, True), (42, 5241, True), (21, 0, False)])
    def test_falsify_chunk_rows(self, monkeypatch, size, index, fallback):
        child = np.random.SeedSequence(0, spawn_key=(index,))
        assert (lemmas._choice_rows(child, 343, size, 2000) is None) == \
            fallback
        seen = []
        real = lemmas.pruning_rule

        def capture(spc, rows):
            seen.append(rows.copy())
            return real(spc, rows)

        monkeypatch.setattr(lemmas, "pruning_rule", capture)
        assert _chunk_total(lemmas._falsify_chunk,
                            (7, 3, size, child, 2000))[0] == 2000
        assert np.array_equal(np.concatenate(seen),
                              _choice_loop(child, 343, size, 2000))

    def test_large_population_not_vectorized(self):
        # above 10,000 points choice may shuffle a full index array instead
        child = np.random.SeedSequence(0)
        assert lemmas._choice_rows(child, 10_001, 6, 5) is None
        rows = lemmas._choice_rows(child, 10_000, 6, 5)
        assert np.array_equal(np.sort(rows, axis=1),
                              _choice_loop(child, 10_000, 6, 5))


def test_pcg64_raw_words_pinned():
    """Raw PCG64 words as falsify's sampler reads them.  numpy keeps bit
    generator streams fixed across releases (NEP 19); a failure here
    means the stream itself changed, and every falsify pin with it."""
    words = [np.random.PCG64(seq).random_raw(3).tolist() for seq in (
        np.random.SeedSequence(0), np.random.SeedSequence(999),
        np.random.SeedSequence(1).spawn(2)[1])]
    assert words == [
        [11749869230777074271, 4976686463289251617, 755828109848996024],
        [14366785777505629437, 3177426409875869023, 13163094698724657654],
        [8776306313781188346, 11078900580537398888, 4521042850785140574],
    ]


class TestReportPlumbing:
    def test_result_dict_shape(self):
        rep = verify_lm1(mode="reduced")
        payload = rep.result_dict()
        assert set(payload) == {
            "counterexamples", "details", "lemma_id", "orbit_count",
            "space_cardinality", "space_description", "symmetry_group"}
        json.dumps(payload)  # JSON-ready throughout
        assert rep.passed

    def test_result_dict_keys_are_the_fields(self):
        # a report holds no wall time or worker count: its fields are
        # its deterministic payload, seed only on falsify
        names = {f.name for f in dataclasses.fields(LemmaReport)}
        assert names == {
            "counterexamples", "details", "lemma_id", "orbit_count",
            "space_cardinality", "space_description", "symmetry_group",
            "seed"}
        verify = verify_fuglede_small(3, 2, (3,)).result_dict()
        falsify = falsify_random(5, 3, 10, 5, 1).result_dict()
        assert set(verify) == names - {"seed"}
        assert set(falsify) == names and falsify["seed"] == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_raises(self, workers):
        # every entry point, the fuglede sizes that both size filters
        # reject and falsify's size-filtered d = 2 path included
        runs = [
            verify_lm1, lambda w: verify_lm1(w, "reduced"),
            verify_lm2, lambda w: verify_lm2(w, "direct"),
            verify_proj21, verify_slab_p3,
            lambda w: verify_fuglede_small(3, 2, (3,), workers=w),
            lambda w: verify_fuglede_small(5, 2, (2,), workers=w),
            lambda w: verify_fuglede_small(3, 2, (6,), workers=w),
            lambda w: verify_fuglede_small(5, 2, (3, 4, 7), workers=w),
            lambda w: falsify_random(5, 2, 10, 500, 1, workers=w),
        ]
        for run in runs:
            with pytest.raises(ValueError,
                               match="worker count must be positive"):
                run(workers)

    def test_worker_determinism_exhaustive(self):
        a = verify_slab_p3(workers=1)
        b = verify_slab_p3(workers=2)
        assert a.result_dict() == b.result_dict()


def _result_sha256(rep) -> str:
    payload = json.dumps(rep.result_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _full_enumeration(monkeypatch):
    """Point the F_3^3 sweeps at all 296,010 six-sets instead of those
    through the origin; returns their number."""
    monkeypatch.setattr(lemmas, "_origin_sets",
                        lambda p, d, size: ((), range(p ** d), size))
    return math.comb(27, 6)


def _f33_counts():
    """(sets, searched sets, nodes) of the fuglede-3-3 chunk."""
    sets, searched, _, _, nodes, _ = _chunk_total(_size_chunk, (3, 3, 6))
    return sets, searched, nodes


class TestOriginSweeps:
    """slab-p3 and fuglede-3-3 sweep the six-sets through the origin and
    weigh their counts by 27/6."""

    def test_rows_are_the_sets_through_the_origin(self):
        full = combination_array(27, 6)
        rows = subset_rows(3, 3, *lemmas._origin_sets(3, 3, 6),
                           np.arange(math.comb(26, 5)))
        assert rows.tolist() == O.through_origin(27, 6).tolist() \
            == full[full[:, 0] == 0].tolist()
        assert len(full[full[:, 0] == 0]) == math.comb(26, 5) == 65780

    def test_counts_weigh_to_the_full_enumeration(self, monkeypatch):
        n = math.comb(26, 5)
        slab, f33 = _chunk_total(_slab_chunk, (0, n)), _f33_counts()
        full = _full_enumeration(monkeypatch)
        full_slab = _chunk_total(_slab_chunk, (0, full))
        full_f33 = _f33_counts()
        assert full_slab[:2] == [296010, 203346]
        assert full_slab[:2] == [_per_set(c, 27, 6) for c in slab[:2]]
        assert full_f33 == tuple(_per_set(c, 27, 6) for c in f33)

    @pytest.mark.parametrize("n", [1, 3, 65779])
    def test_per_set_rejects_fractional_weights(self, n):
        with pytest.raises(InternalCheckError):
            _per_set(n, 27, 6)

    def test_slab_counterexamples_as_full_enumeration(self, monkeypatch):
        # a translation-invariant conclusion that fails exactly on the
        # sets equidistributed along 9 directions
        real = lemmas.bytes_at_least

        def failing(p, words, k):
            many = (words == uniform_word(3, 2)).sum(axis=-1) >= 9
            return np.where(many[:, None], 3, real(p, words, k))

        monkeypatch.setattr(lemmas, "bytes_at_least", failing)
        rep = verify_slab_p3()
        _, _, want = _chunk_total(_slab_chunk,
                                  (0, _full_enumeration(monkeypatch)))
        assert len(want) == 468
        assert rep.counterexamples == _coord_cex(3, 3, want)

    def test_fug33_witnesses_as_full_enumeration(self, monkeypatch,
                                                 cold_caches):
        # a translation-invariant fake: a spectrum for every zero set of
        # 9 directions, made from the zero set alone; validation records
        real = lemmas._clique_in_zero_set

        def clique(spc, key, n, budget):
            if key.bit_count() == 9:
                return "witness", [int(direction_points(3, 3, key)[-1]), 0], 1
            return real(spc, key, n, budget)

        validated = []
        monkeypatch.setattr(lemmas, "_clique_in_zero_set", clique)
        monkeypatch.setattr(lemmas, "_validate_witness_rows",
                            lambda p, d, E, A: validated.append(
                                (np.asarray(E).tolist(), list(A))))
        rep = verify_fuglede_small(3, 3, (6,))
        last = validated[-1]
        _full_enumeration(monkeypatch)
        *_, cex = _chunk_total(_size_chunk, (3, 3, 6))
        want = [{"set": c["set"], "spectrum": c["spectrum"]} for c in cex]
        assert len(want) == rep.details["sizes"]["6"]["spectral"] == 468
        assert rep.counterexamples == _coord_cex(3, 3, want)
        # every translate is validated, in one call
        assert last == ([w["set"] for w in want],
                        [w["spectrum"] for w in want])


class TestPlanarOriginSweep:
    """lm1 and lm2 direct read the sets of F_7^2 through the origin and
    weigh their counts by 49/k."""

    def test_lm1_as_full_enumeration(self, monkeypatch):
        # 7 directions is a translation-invariant bound that 49,392 sets
        # miss, so the report lists every translate of each
        monkeypatch.setattr(lemmas, "_MIN_DIRECTIONS", 7)
        rep = verify_lm1()
        n, hyp, hist, triples, want = _explicit_rows(
            combination_array(49, 5), 3)
        d = rep.details
        assert (d["enumerated_sets"], d["hypothesis_sets"],
                d["collinear_triples"]) == (n, hyp, triples)
        assert d["direction_histogram"] == {
            str(k): int(v) for k, v in enumerate(hist) if v}
        assert len(want) == 49392
        assert rep.counterexamples == _coord_cex(7, 2, want)
        # the payload of the sweep over all C(49, 5) sets
        assert _result_sha256(rep) == (
            "7adef9984f34a25399028d867f66c87355baa006960c9a914a6f8c79d41238f0")

    # at k = 7, 49/k is whole, so only k = 5 can leave a fraction
    @pytest.mark.parametrize("n", [1, 6, 194579])
    def test_per_set_rejects_fractional_weights(self, n):
        with pytest.raises(InternalCheckError):
            _per_set(n, 49, 5)
        with pytest.raises(InternalCheckError):
            _per_set(np.array([0, 5, n]), 49, 5)
        assert _per_set(np.array([0, 5, 5 * n]), 49, 5).tolist() == [
            0, 49, 49 * n]


def _slab_chunk_dropping_last(args):
    lo, hi = args
    return _slab_chunk((lo, hi - 1))


def _toy_chunk(k):
    yield (1, np.arange(3) * k, [k], {k % 2},
           {"zero": 0, str(k): k, "nested": {"a": k, "z": 0}})


class TestSweepDriver:
    # payload hashes of reports made before the sweep driver existed; a
    # change in partition, fold order or counterexample layout moves them
    @pytest.mark.parametrize("run,want", [
        (lambda: verify_lm1(mode="reduced"),
         "7dd9f7165ac66d46fd88e8dd04069788fed8e0e5479a77f6d83b026ea0714cc8"),
        (lambda: verify_slab_p3(),
         "a8101140a3ce17291e2cbe1b0bcff2d3e53edd4f8b26d7972d93236b31f6c884"),
        (lambda: verify_fuglede_small(3, 2, range(1, 10)),
         "a9e9124fb886921940c5185cbbcb97c46a14fd5ab8ea0de0ef57961f82b0a881"),
        # the falsify pins moved once, when d = 3 rule counts stopped
        # carrying a size_filtered count of 0
        (lambda: falsify_random(5, 3, 10, 4100, 999),
         "8f13dd23fedcc9901e5f606a0a9f741df58fc59bfc1b67885eaad7b945328444"),
        # every trial size-filtered: no falsify size is spectral at d = 2
        (lambda: falsify_random(5, 2, 10, 500, 1),
         "f1adbd4d857ee946af915db8d6c8abf46200b4111c0558fc8ce0b72b4ec5413c"),
        (lambda: falsify_random(7, 3, 21, 8000, 1),
         "ea1fad8fdc1823ca6925c6dff060b021c9bd7a9d5cb5121ee4dd11aec96f9b6f"),
        (lambda: verify_lm2(mode="direct"),
         "91bf53796ed98c261e4e71153ac7f3afcf55285eb90314d59996de8444a62b14"),
    ], ids=["lm1-reduced", "slab-p3", "fuglede-3-2-all", "falsify-5-3-10",
            "falsify-5-2-10", "falsify-7-3-21", "lm2-direct"])
    def test_pinned_payloads(self, run, want):
        assert _result_sha256(run()) == want

    def test_miscount_raises(self):
        chunks = [(0, 100), (100, 200)]
        assert _sweep(_slab_chunk, chunks, 1, expected=200)[0] == 200
        with pytest.raises(InternalCheckError):
            _sweep(_slab_chunk_dropping_last, chunks, 1, expected=200)
        # a chunk past the end of the rows counts only the rows it built
        n = math.comb(26, 5)
        with pytest.raises(InternalCheckError, match="enumerated 80, expected 100"):
            _sweep(_slab_chunk, [(n - 80, n + 20)], 1, expected=100)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_in_chunk_order(self, workers):
        n, arr, seq, parity, counts = _sweep(_toy_chunk, [1, 2, 3], workers,
                                             expected=3)
        assert n == 3
        assert arr.tolist() == [0, 6, 12]
        assert seq == [1, 2, 3]
        assert parity == {0, 1}
        assert counts == {"zero": 0, "1": 1, "2": 2, "3": 3,
                          "nested": {"a": 6, "z": 0}}

    def test_falsify_keeps_zero_counts(self):
        d = falsify_random(5, 3, 10, 4100, 999).details
        assert set(d["outcomes"]) == {"aborted", "none", "witness"}
        assert d["outcomes"]["aborted"] == d["outcomes"]["witness"] == 0
