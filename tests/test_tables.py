import hashlib
import importlib
import itertools
import math
import pkgutil

import numpy as np
import pytest

import ffspec
import oracles as O
from ffspec import Space
from ffspec.lemmas import _translates
from ffspec.tables import (WORD_BLOCK, _subset_runs, add_table,
                           bytes_at_least, combination_array,
                           combination_words, difference, direction_points,
                           direction_reps, line_of, line_sups,
                           orthogonal_direction_bits, pair_directions,
                           pair_indices, pair_lines,
                           plane_counts,
                           plane_word_table, plane_words, scale_tables,
                           subset_rows, subset_words, uniform_word)

_ALL_SPACES = [(p, d) for p in (3, 5, 7) for d in (1, 2, 3)]


@pytest.mark.parametrize("p,d", [(3, 1), (5, 2), (3, 3), (7, 3)])
def test_add_and_difference_oracle(p, d):
    pts = O.all_points(p, d)
    idx = np.arange(p ** d)
    add = add_table(p, d)
    diff = difference(p, d, idx[:, None], idx)
    for i in range(0, p ** d, 5):
        for j in range(p ** d):
            x, y = pts[i], pts[j]
            assert add[i, j] == O.point_index(
                p, tuple((a + b) % p for a, b in zip(x, y)))
            assert diff[i, j] == O.point_index(
                p, tuple((a - b) % p for a, b in zip(x, y)))


def _oracle_plane_counts(p, d, row):
    """(n_dirs, p) counts of the row's points on x . rep = c, by coordinates."""
    pts = O.all_points(p, d)
    reps = sorted({O.canon_dir(p, v) for v in pts if any(v)},
                  key=lambda v: O.point_index(p, v))
    out = np.zeros((len(reps), p), dtype=int)
    for k, rep in enumerate(reps):
        for i in row:
            out[k, sum(a * b for a, b in zip(pts[i], rep)) % p] += 1
    return out


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_plane_counts_oracle(p, d, rng):
    n = p ** d
    n_dirs = len(direction_reps(p, d))
    size = min(n, 2 * p + 1)
    rows = np.array([rng.choice(n, size=size, replace=False)
                     for _ in range(12)])
    counts = plane_counts(p, d, rows)
    assert counts.shape == (n_dirs, len(rows), p)
    assert np.issubdtype(counts.dtype, np.integer)
    for r, row in enumerate(rows):
        assert np.array_equal(counts[:, r], _oracle_plane_counts(p, d, row))
    # any leading batch shape; a single row; an empty row
    batch = plane_counts(p, d, rows.reshape(3, 4, size))
    assert np.array_equal(batch, counts.reshape(-1, 3, 4, p))
    assert np.array_equal(plane_counts(p, d, rows[0]), counts[:, 0])
    empty = plane_counts(p, d, np.zeros(0, dtype=np.int64))
    assert empty.shape == (n_dirs, p)
    assert not empty.any()
    # the whole space puts p^(d-1) points on every plane: 49 in F_7^3,
    # the most a byte counter ever holds
    full = plane_counts(p, d, np.arange(n))
    assert full.shape == (n_dirs, p)
    assert (full == p ** (d - 1)).all()
    assert np.array_equal(full, _oracle_plane_counts(p, d, range(n)))


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_plane_word_table(p, d):
    n_dirs = len(direction_reps(p, d))
    table = plane_word_table(p, d)
    assert table.shape == (p ** d, n_dirs)
    assert table.dtype == np.dtype("<u4" if p == 3 else "<u8")
    assert not table.flags.writeable
    # one byte set per entry, at the residue x . rep_k
    for x in range(p ** d):
        assert np.array_equal(plane_counts(p, d, np.array([x])),
                              _oracle_plane_counts(p, d, [x]))
    assert (plane_words(p, d, np.arange(p ** d))
            == uniform_word(p, p ** (d - 1))).all()


@pytest.mark.parametrize("p,d,m", [(3, 3, 6), (7, 2, 7)])
def test_plane_words_row_blocks_match_one_gather(p, d, m, rng):
    table = plane_word_table(p, d)
    for n in (WORD_BLOCK - 1, WORD_BLOCK, WORD_BLOCK + 1, 2 * WORD_BLOCK + 3):
        rows = rng.integers(p ** d, size=(n, m)).astype(np.int8)
        want = table[rows.T.astype(np.intp)].sum(axis=0, dtype=table.dtype)
        got = plane_words(p, d, rows)
        assert got.dtype == table.dtype
        assert np.array_equal(got, want), n
        # a leading batch shape is flattened into the same row blocks
        batch = plane_words(p, d, np.stack([rows, rows[::-1]]))
        assert np.array_equal(batch, np.stack([want, want[::-1]])), n


def test_plane_words_scratch_is_one_block(traced_peak):
    # 32,768 rows gathered at once would take 10.2 MB of scratch
    rows = combination_array(27, 6)[:32768]
    plane_word_table(3, 3)
    assert traced_peak(plane_words, 3, 3, rows) < 5e6


# (p, d, point list, r): the tables the sweeps read, an unsorted list,
# and the edges r = 0, r = m and r > m
_WORD_TABLES = [
    (7, 2, tuple(range(49)), 3),
    (7, 2, tuple(i for i in range(49) if i not in (0, 1, 7)), 3),
    (3, 3, tuple(range(27)), 4),
    (5, 3, (124, 3, 60, 7, 99, 0, 31), 4),
    (3, 2, (4, 8, 1), 0),
    (3, 2, (4, 8, 1), 3),
    (3, 2, (4, 8, 1), 4),
]


@pytest.mark.parametrize("p,d,points,r", _WORD_TABLES)
def test_combination_words_oracle(p, d, points, r):
    got = combination_words(p, d, points, r)
    n = math.comb(len(points), r)
    rows = np.array(list(itertools.combinations(points, r)),
                    dtype=np.int64).reshape(n, r)
    assert got.dtype == plane_word_table(p, d).dtype
    assert not got.flags.writeable
    assert got.shape == (n, len(direction_reps(p, d)))
    assert np.array_equal(got, plane_words(p, d, rows))


@pytest.mark.parametrize("p,d,points,r", _WORD_TABLES[:3])
def test_combination_words_scratch_is_the_level_below(traced_peak, p, d,
                                                      points, r):
    # the level below, C(m, r - 1) rows, is all the scratch: under one
    # WORD_BLOCK of words, where plane_words would gather r of them
    plane_word_table(p, d)
    table = combination_words(p, d, points, r)
    peak = traced_peak(combination_words.__wrapped__, p, d, points, r)
    below = math.comb(len(points), r - 1) * table.itemsize * table.shape[1]
    assert below < peak - table.nbytes < WORD_BLOCK * table[0].nbytes


def _subsets_at(m, r, lo, hi):
    """Positions of the r-subsets of range(m) at lexicographic ranks
    lo .. hi - 1: rank lo unranked digit by digit, then successors."""
    count, c, start = min(hi, math.comb(m, r)) - lo, [], 0
    if count <= 0:
        return []
    for k in range(r, 0, -1):
        while lo >= math.comb(m - 1 - start, k - 1):
            lo -= math.comb(m - 1 - start, k - 1)
            start += 1
        c.append(start)
        start += 1
    rows = [list(c)]
    for _ in range(count - 1):
        k = r - 1
        while c[k] == m - r + k:
            k -= 1
        c[k:] = range(c[k] + 1, c[k] + 1 + r - k)
        rows.append(list(c))
    return rows


_REST = tuple(i for i in range(49) if i not in (0, 1, 7))
# (p, d, anchor, points, r): lm1 and lm2 direct, lm1 and lm2 reduced,
# the F_3^3 six-sets through 0 and all of them, an unsorted point list,
# and the edges r = 0 and r > m
_SUBSET_FAMILIES = [
    (7, 2, (0,), range(1, 49), 4),
    (7, 2, (0,), range(1, 49), 6),
    (7, 2, (0, 1, 7), _REST, 2),
    (7, 2, (0, 1, 7), _REST, 4),
    (3, 3, (0,), range(1, 27), 5),
    (3, 3, (), range(27), 6),
    (5, 3, (3,), (124, 60, 7, 99, 0, 31), 5),
    (3, 2, (4,), (8, 1), 0),
    (3, 2, (), (4, 8, 1), 4),
]


@pytest.mark.parametrize("p,d,anchor,points,r", _SUBSET_FAMILIES)
def test_subset_words_and_rows_oracle(p, d, anchor, points, r):
    m, t = len(points), min(r, 3)
    n = math.comb(m, r)
    first_run = math.comb(m - (r - t), t) if r <= m else 0
    # the first rows, across the end of the first run, across many runs,
    # the last rows, the last row and past the end, and lo == hi
    ranges = [(0, 1), (first_run - 3, first_run + 3),
              (n // 2 - 1500, n // 2 + 1500), (n - 3000, n),
              (n - 1, n + 40), (n // 3, n // 3)]
    for lo, hi in ranges:
        lo = max(lo, 0)
        rows = np.array([sorted((*anchor, *(points[i] for i in c)))
                         for c in _subsets_at(m, r, lo, hi)],
                        dtype=np.int64).reshape(-1, len(anchor) + r)
        words = subset_words(p, d, anchor, points, r, lo, hi)
        assert words.dtype == plane_word_table(p, d).dtype
        assert np.array_equal(words, plane_words(p, d, rows)), (lo, hi)
        got = subset_rows(p, d, anchor, points, r,
                          np.arange(lo, lo + len(rows)))
        assert got.tolist() == rows.tolist(), (lo, hi)


@pytest.mark.parametrize("p,d,anchor,points,r", _SUBSET_FAMILIES)
def test_subset_runs_one_per_lead(p, d, anchor, points, r):
    # a lead of r - 3 points (none for r <= 3) owns the run of the
    # 3-subsets after it, if it has 3 points after it
    t = min(r, 3)
    starts, heads, at, bases, tails = _subset_runs(p, d, anchor,
                                                   tuple(points), r)
    m = len(points)
    leads = [c for c in itertools.combinations(range(m), r - t)
             if m - 1 - max(c, default=-1) >= t]
    assert heads.tolist() == [[*anchor, *(points[i] for i in c)]
                              for c in leads]
    assert np.diff(starts).tolist() == [
        math.comb(m - 1 - max(c, default=-1), t) for c in leads]
    assert len(tails) == math.comb(m, t)


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_bytes_at_least_oracle(p, d, rng):
    n = p ** d
    rows = [rng.choice(n, size=size, replace=False)
            for size in (0, 1, p, min(n, 2 * p + 1), min(n, p * p), n)
            for _ in range(4)]
    for row in rows:
        words = plane_words(p, d, row)                # (n_dirs,)
        counts = plane_counts(p, d, row)              # (n_dirs, p)
        for k in range(1, p + 2):
            assert np.array_equal(bytes_at_least(p, words, k),
                                  (counts >= k).sum(axis=-1)), (row, k)


def _planted_row(rng, p, d, size, on_line):
    """size random points of F_p^d, on_line of them on one random line."""
    pts = O.all_points(p, d)
    base = pts[int(rng.integers(p ** d))]
    vec = pts[int(rng.integers(1, p ** d))]
    row = {O.point_index(p, tuple((b + t * v) % p for b, v in zip(base, vec)))
           for t in range(on_line)}
    while len(row) < size:
        row.add(int(rng.integers(p ** d)))
    return sorted(row)


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_line_sups_oracle(p, d, rng):
    # t planted collinear points for every t reach each run threshold
    # C(t, 2) - 1 of the sorted pair line ids
    pts = O.all_points(p, d)
    n = p ** d
    for size in sorted({0, 1, 2, min(n, p + 1), min(n, 2 * p + 1)}):
        for t in range(min(size, p) + 1):
            rows = np.array([_planted_row(rng, p, d, size, t)
                             for _ in range(4)]).reshape(4, size)
            want = [O.line_sup(p, d, [pts[i] for i in row]) for row in rows]
            assert min(want) >= t
            got = line_sups(p, d, rows)
            assert got.shape == (4,)
            assert got.tolist() == want
            assert [int(line_sups(p, d, row)) for row in rows] == want
            assert np.array_equal(line_sups(p, d, rows.reshape(2, 2, size)),
                                  got.reshape(2, 2))


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_direction_points_oracle(p, d, rng):
    # a key's points are the nonzero multiples of its directions'
    # representatives, ascending; the last direction counts too
    pts = O.all_points(p, d)
    reps = [pts[i] for i in direction_reps(p, d).tolist()]
    top = (1 << len(reps)) - 1
    for key in {0, top, 1 << len(reps) - 1, int(rng.integers(top + 1))}:
        want = sorted(O.point_index(p, tuple(c * v % p for v in rep))
                      for k, rep in enumerate(reps) if key >> k & 1
                      for c in range(1, p))
        assert direction_points(p, d, key).tolist() == want
    assert direction_points(p, d, top).tolist() == list(range(1, len(pts)))


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_pair_directions_oracle(p, d, rng):
    pts = O.all_points(p, d)
    reps = [pts[i] for i in direction_reps(p, d)]
    n = p ** d
    for size in sorted({0, 1, 2, 3, min(n, p + 1), min(n, 2 * p + 1)}):
        rows = np.array([np.sort(rng.choice(n, size, replace=False))
                         for _ in range(6)]).reshape(6, size)
        want = [[reps.index(O.canon_dir(p, tuple(
                    (a - b) % p for a, b in zip(pts[row[i]], pts[row[j]]))))
                 for i, j in zip(*pair_indices(size))] for row in rows]
        for dtype in (np.int16, np.int64):
            got = pair_directions(p, d, rows.astype(dtype))
            assert got.shape == (6, size * (size - 1) // 2)
            assert got.tolist() == want
            assert np.array_equal(
                pair_directions(p, d, rows.astype(dtype).reshape(2, 3, size)),
                got.reshape(2, 3, -1))
            assert pair_directions(p, d, rows[0].astype(dtype)).tolist() \
                == want[0]


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_pair_lines_oracle(p, d):
    # entry x * p^d + y names the line through x and y in line_of, and
    # that line holds both points; the diagonal is -1
    n = p ** d
    pts = O.all_points(p, d)
    reps = [pts[i] for i in direction_reps(p, d)]
    ids = line_of(p, d)
    got = pair_lines(p, d)
    assert got.dtype == np.int16 and got.shape == (n * n,)
    table = got.reshape(n, n)
    assert (np.diagonal(table) == -1).all()
    on_line = {}
    for k in range(len(reps)):
        for x, i in enumerate(ids[k].tolist()):
            on_line.setdefault(i, set()).add(x)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            k = reps.index(O.canon_dir(p, tuple(
                (b - a) % p for a, b in zip(pts[x], pts[y]))))
            i = int(table[x, y])
            assert i == ids[k, x]
            assert {x, y} <= on_line[i]


def test_pair_lines_scratch_is_one_block(traced_peak):
    # the cold build scatters one step's (n_dirs, p^d) block at a time;
    # all p - 1 steps at once would hold several times the table
    add_table(7, 3)
    scale_tables(7, 3)
    direction_reps(7, 3)
    line_of(7, 3)
    out = pair_lines(7, 3)
    assert out.nbytes == 343 * 343 * 2
    assert traced_peak(pair_lines.__wrapped__, 7, 3) < 3 * out.nbytes


@pytest.mark.parametrize("p", (3, 5, 7))
def test_orthogonal_direction_bits_oracle(p):
    pts = O.all_points(p, 3)
    reps = [pts[i] for i in direction_reps(p, 3)]
    bits = orthogonal_direction_bits(p, 3)
    assert bits.dtype == np.uint64 and bits.shape == (len(reps),)
    for k, normal in enumerate(reps):
        want = sum(1 << j for j, rep in enumerate(reps)
                   if sum(a * b for a, b in zip(rep, normal)) % p == 0)
        assert int(bits[k]) == want


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_direction_reps_oracle(p, d):
    want = sorted({O.point_index(p, O.canon_dir(p, v))
                   for v in O.all_points(p, d) if any(v)})
    got = direction_reps(p, d)
    assert got.dtype == np.int64 and got.tolist() == want


# sha256 of line_of(p, d).tobytes(): the line table's int16 ids
_LINE_OF_SHA256 = {
    (3, 1): "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44",
    (3, 2): "20df39f3df844d8f25ff60d1db9d58caaff1be3c74776ce7ff611484f7f7078e",
    (3, 3): "5822535756e446f1d29d9fc35ac06d279cc46e28f29c0b695d99aceaa15c0488",
    (5, 1): "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca",
    (5, 2): "ec6483a8b028af03265e0562f7976f6d2c7bf1ca9a3eaebc1617a3a26db4ea10",
    (5, 3): "66343468fff6911ce7aaced17a95b8c1d0a659931761af02474f44731aac5508",
    (7, 1): "e7ecebbc590bc88b3761fa6cd03d749f87463dabb67021a5c6768c25ec68b3f2",
    (7, 2): "67bbfd62758aa5fc5d36308c16433a1bb14481f6ec482ca05d78d26ae375fcae",
    (7, 3): "359959477b06e7ea62a5c41c2a9c6f59d80271e00a3877c987d4f5caf19f3ea2",
}


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_line_table_bytes_pinned(p, d):
    # line_of is the line table: the points that share an id in
    # direction k are one line of that direction, the id is k * p^d
    # plus its least point, and every line of the space gets one id
    ids = line_of(p, d)
    reps = direction_reps(p, d)
    assert ids.dtype == np.int16 and ids.shape == (len(reps), p ** d)
    assert hashlib.sha256(ids.tobytes()).hexdigest() == \
        _LINE_OF_SHA256[(p, d)]
    pts = O.all_points(p, d)
    named = {}
    for k, rep in enumerate(reps):
        for x, i in enumerate(ids[k].tolist()):
            named.setdefault(i, set()).add(x)
        for i in set(ids[k].tolist()):
            base = min(named[i])
            assert i == k * p ** d + base
            assert {pts[x] for x in named[i]} == O.line_points(
                p, pts[base], pts[rep])
    assert len(named) == len(O.all_lines(p, d))
    assert {frozenset(pts[x] for x in line) for line in named.values()} \
        == O.all_lines(p, d)


def test_line_table_scratch_is_one_block(traced_peak):
    # the cold build keeps one (n_dirs, p^d) block of step minima; the
    # gather of all p steps at once would take 7 times the table
    add_table(7, 3)
    scale_tables(7, 3)
    direction_reps(7, 3)
    out = line_of(7, 3)
    assert traced_peak(line_of.__wrapped__, 7, 3) < 3 * out.nbytes


@pytest.mark.parametrize("p,d", _ALL_SPACES)
def test_translation_reps_match_canonical_form(p, d, rng):
    # lemmas._translates lists every translate of a set once, from
    # add_table; the least of their bitmasks is the translation class's
    # canonical form
    n = p ** d
    pts = O.all_points(p, d)
    for size in sorted({0, 1, 2, p, n // 2, n - 1, n}):
        for _ in range(6):
            row = sorted(rng.choice(n, size, replace=False).tolist())
            got = [c["set"] for c in _translates(p, d, [{"set": row}])]
            # every translate, by brute force
            want = {tuple(sorted(O.point_index(p, x) for x in O.translate(
                p, [pts[i] for i in row], t))) for t in pts}
            assert got == sorted(map(list, want))
            assert min(sum(1 << i for i in r) for r in got) == min(
                sum(1 << i for i in r) for r in want)


# (m, r) shapes: those the sweeps and their tests build (lm1 and lm2
# direct and reduced, slab-p3 and fuglede-3-3 and the full enumeration
# their tests weigh against, the leads and tail rows of subset_words,
# fuglede-3-2, fuglede-5-2 at sizes 1, 5, 25), and the (48 - i, 4) and
# (48 - i, 5) subsets above each point i of the direct sweeps
_SWEEP_SHAPES = sorted(
    {(48 - i0, 4) for i0 in range(45)} | {(48 - i1, 5) for i1 in range(1, 44)}
    | {(46, 2), (46, 4), (26, 5), (27, 6), (24, 0), (24, 4), (24, 24)}
    | {(48, 1), (48, 3), (46, 0), (46, 1), (46, 3), (26, 2), (26, 3),
       (27, 3)}
    | {(9, r) for r in range(1, 10)})


@pytest.mark.parametrize("m", range(0, 9))
def test_combination_array_edges(m):
    for r in sorted({0, 1, m, m // 2, m + 1}):
        _assert_combinations(m, r)


def test_combination_array_sweep_shapes():
    for m, r in _SWEEP_SHAPES:
        _assert_combinations(m, r)


def _assert_combinations(m, r):
    # uncached, so the large shapes do not stay in the test process
    got = combination_array.__wrapped__(m, r)
    want = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(m), r)), dtype=np.int8)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert got.shape == (math.comb(m, r), r)
    assert got.tobytes() == want.tobytes(), (m, r)


# one small call per cached builder in the package
_CACHED_CALLS = {
    "cli.build_parser": (),
    "lemmas._fillings": (),
    "lemmas._f1_orbit_reps": (),
    "lemmas._shear_reps": (),
    "lemmas._row_triple_orbits": (),
    "lemmas._slab_hypotheses": (),
    "lemmas._cycle_type_counts": (3, 1),
    "spectral.allowed_spectral_sizes": (Space(3, 2),),
    "spectral._clique_in_zero_set": (Space(3, 2), 0b1111, 3, 100),
    "tables.coords_matrix": (3, 2),
    "tables.direction_reps": (3, 2),
    "tables.plane_word_table": (3, 2),
    "tables.combination_words": (3, 2, (1, 2, 3), 2),
    "tables._subset_runs": (3, 2, (0,), (1, 2, 3, 4), 2),
    "tables.orthogonal_direction_bits": (3, 3),
    "tables.add_table": (3, 2),
    "tables.linear_permutation_array": (3, 1),
    "tables.pair_indices": (4,),
    "tables.scale_tables": (3, 2),
    "tables.line_of": (3, 2),
    "tables.pair_lines": (3, 2),
    "tables.dir_of_index": (3, 2),
    "tables.combination_array": (5, 2),
}


def _cached_builders() -> dict:
    """Every function with a cache_info in the package's modules."""
    out = {}
    for info in pkgutil.iter_modules(ffspec.__path__):
        mod = importlib.import_module(f"ffspec.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)


def test_cached_builders_return_read_only_arrays():
    # a cached array is shared by every later caller in the process and
    # by forked workers, so no caller may write into it
    builders = _cached_builders()
    assert set(builders) == set(_CACHED_CALLS)
    seen = 0
    for name, args in _CACHED_CALLS.items():
        for a in _arrays(builders[name](*args)):
            seen += 1
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0
    assert seen >= 20


@pytest.mark.parametrize("fn,p,d", [(add_table, 11, 1),
                                    (scale_tables, 2, 3),
                                    (pair_lines, 11, 1)])
def test_table_builders_check_the_space_first(fn, p, d):
    with pytest.raises(ValueError, match="must be"):
        fn(p, d)
