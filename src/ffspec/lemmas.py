"""Exhaustive and randomized verifiers for the combinatorial statements
behind the spectral-set analysis, each producing a LemmaReport.

Every verifier runs through one driver, _sweep.  Its contract:

- the enumeration is split into a fixed chunk list that does not depend
  on the worker count (_blocks cuts a range into [lo, hi) pieces);
- a chunk is the unit of scheduling and a block the unit of memory:
  slab-p3 and each size of fuglede-3-3, fuglede-3-2 and fuglede-5-2 are
  one chunk, which walks blocks of rows, so these sweeps fork nothing at
  any worker count;
- each chunk yields one tuple per block (_size_chunk its counts first,
  then one per block of checked rows); the worker folds a chunk's
  blocks (_chunk_total), _sweep folds the chunks in order, and both
  folds go field by field: numbers and arrays add, lists concatenate,
  sets unite and dicts merge key by key, so keys with a zero count stay
  in place;
- field 0 counts what the chunk enumerated, sets or functions, and a
  total that differs from the expected one raises InternalCheckError (a
  miscount);
- counterexamples leave the chunks as point-index lists and become
  coordinate rows in one place, _coord_cex;
- a sweep of translation-invariant counts reads only the sets through
  the origin and reports them as over all sets (_origin_sweep: lm1 and
  lm2 direct, slab-p3, fuglede-3-3 and fuglede-3-2);
- lm1, lm2, slab-p3 and the fuglede sweeps read the sets anchor + S, S
  over the r-subsets of a point list, through tables.subset_words and
  subset_rows; the sets through the origin are _origin_sets;
- the fuglede sweeps run one sweep of one chunk per size, _size_chunk,
  which does all the work of its size: it finds each set's tiling
  complement with one tiling search per affine orbit of the sets
  through the origin (_row_complements), keys every set by its zero
  directions (fourier.zero_keys, as slab-p3 does) and searches each
  distinct key once, and checks each set against its own witnesses; a
  size that both size filters reject builds no set;
- every symmetry reduction, proj21's filling and row-triple orbits and
  the fuglede sweeps' affine orbits, is one orbit pass (_orbits) whose
  orbit count must equal the cycle index's (_orbit_count).

A report is therefore identical no matter how many workers ran it; it
holds no wall time or worker count, which the caller measures.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache, partial

import numpy as np

from .fourier import zero_keys
from .parallel import run_chunks
from .sets import PointSet
from .space import Space
from .spectral import (PRUNING_RULES, InternalCheckError,
                       _clique_in_zero_set, _validate_witness_rows,
                       allowed_spectral_sizes, pruning_rule, spectrum_search)
from .tables import (
    WORD_BLOCK,
    add_table,
    bytes_at_least,
    combination_array,
    coords_matrix,
    difference,
    linear_permutation_array,
    orthogonal_direction_bits,
    plane_word_table,
    read_only,
    subset_rows,
    subset_words,
    uniform_word,
)
from .tiling import size_can_tile, tiling_pair_rows, tiling_search_rows

__all__ = [
    "LemmaReport",
    "SweepBudgetError",
    "verify_lm1",
    "verify_lm2",
    "verify_proj21",
    "verify_slab_p3",
    "verify_fuglede_small",
    "falsify_random",
]


class SweepBudgetError(RuntimeError):
    """A search inside an exhaustive sweep ran out of node budget, so the
    sweep decided nothing."""


@dataclass
class LemmaReport:
    """Deterministic outcome of one verification run: the same at any
    worker count.  Wall time and worker count are the caller's to
    measure; the CLI puts them in its report's "meta".

    counterexamples and details hold only JSON-ready values so the
    payload can be serialized and hashed directly.
    """

    lemma_id: str
    space_description: str
    space_cardinality: int
    symmetry_group: str
    orbit_count: int
    counterexamples: list
    details: dict
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def result_dict(self) -> dict:
        """The payload the CLI hashes: every field by name, seed only
        when it is set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "seed" or self.seed is not None}


def _coord_rows(p: int, d: int, indices) -> list:
    cm = coords_matrix(p, d)
    return [[int(c) for c in cm[int(i)]] for i in indices]


def _coord_cex(p: int, d: int, cex: list) -> list:
    """Counterexamples with their "set" and "spectrum" index lists
    turned into coordinate rows; other fields pass through."""
    return [{k: _coord_rows(p, d, v) if k in ("set", "spectrum") else v
             for k, v in c.items()} for c in cex]


def _blocks(total: int, size: int):
    """The [lo, hi) pieces of range(total), size points each but the last."""
    for lo in range(0, total, size):
        yield lo, min(lo + size, total)


def _fold(acc, item):
    if isinstance(acc, dict):
        for k, v in item.items():
            acc[k] = _fold(acc[k], v) if k in acc else v
        return acc
    if isinstance(acc, set):
        return acc | item
    return acc + item


def _fold_all(results) -> list:
    """Result tuples folded field by field, in order (_fold); no results
    fold to []."""
    total = []
    for res in results:
        total = ([_fold(a, b) for a, b in zip(total, res)] if total
                 else list(res))
    return total


def _chunk_total(fn, args) -> list:
    """The block tuples fn yields for one chunk, folded where it ran."""
    return _fold_all(fn(args))


def _sweep(fn, chunks: list, workers: int, expected: int) -> list:
    """Run the chunk generator fn over the fixed chunk list, fold each
    chunk's blocks (_chunk_total), then the chunks in chunk order; field
    0 must total expected."""
    total = _fold_all(run_chunks(partial(_chunk_total, fn), chunks, workers))
    enumerated = total[0] if total else 0
    if enumerated != expected:
        raise InternalCheckError(
            f"{fn.__name__} enumerated {enumerated}, expected {expected}")
    return total


# ---------------------------------------------------------------------------
# Translation-invariant counts over the k-sets of F_p^d, n = p^d points:
# (E, e in E) -> (E - e, e) makes k C(n, k) = n C(n - 1, k - 1), so a count
# over all k-sets is n/k of its count over the k-sets through 0.

def _origin_sets(p: int, d: int, size: int) -> tuple:
    """The size-sets of F_p^d through 0 as (anchor, points, r) of
    tables.subset_words: 0 plus each (size - 1)-subset of the other
    points, in lexicographic order."""
    return (0,), range(1, p ** d), size - 1


def _per_set(count, points: int, size: int):
    """A count (or array of counts) over the size-sets through 0 of
    `points` points as one over all size-sets: points/size of it."""
    if np.any(points * count % size):
        raise InternalCheckError(f"{count} over {size}-sets through 0 of "
                                 f"{points} points weigh to no whole count")
    return points * count // size


def _translates(p: int, d: int, cex: list) -> list:
    """cex with every translate of each "set", once each, in (size, row)
    order."""
    out = {tuple(row): c for c in cex
           for row in np.sort(add_table(p, d)[:, c["set"]], axis=1).tolist()}
    return [{**out[row], "set": list(row)}
            for row in sorted(out, key=lambda row: (len(row), row))]


def _origin_sweep(fn, chunks: list, p: int, d: int, size: int,
                  workers: int) -> tuple:
    """fn over chunks of the size-sets of F_p^d through 0, reported as
    over all size-sets: (counts weighed by _per_set, counterexamples with
    all their translates in full-enumeration order); field 0 of fn's
    results counts the sets read, C(p^d - 1, size - 1) in all."""
    n = p ** d
    *counts, cex = _sweep(fn, chunks, workers, math.comb(n - 1, size - 1))
    return [_per_set(c, n, size) for c in counts], _translates(p, d, cex)


# ---------------------------------------------------------------------------
# Planar direction lemmas: subsets of F_7^2 screened by collinearity and
# number of determined directions.  In F_7^2 the planes x . rep = c are
# lines, so plane_words(7, 2, rows) counts the points of a row on every
# line: one word per parallel class, one byte per line.

# a hypothesis row that determines fewer directions is a counterexample
_MIN_DIRECTIONS = 6


def _planar_eval(words: np.ndarray, no_k: int):
    """Screen index rows over F_7^2 by their (n, 8) packed line words;
    returns (rows, hypothesis rows, direction histogram, collinear
    triples, positions of the counterexample rows).

    Hypothesis: no no_k points collinear, so no byte is >= no_k.  Lines
    x . rep = c run along rep-perp, a bijection of directions, so the
    words with a byte >= 2 count the determined directions.  For no_k
    <= 4 the bytes >= 3 of a hypothesis row are its collinear triples.
    """
    if no_k not in (3, 4):
        raise ValueError("collinearity screen supports k = 3 or 4")
    # a row's 8 uint8 counts are read as one uint64, because numpy
    # reduces an axis of length 8 slowly
    at3 = bytes_at_least(7, words, 3).view(np.uint64)[:, 0]
    hyp = (at3 if no_k == 3
           else bytes_at_least(7, words, 4).view(np.uint64)[:, 0]) == 0
    ndirs = np.bitwise_count(
        (bytes_at_least(7, words, 2) > 0).view(np.uint64)[:, 0])
    hist = np.bincount(ndirs[hyp], minlength=9)
    triples = int(at3[hyp].view(np.uint8).sum())
    viol = np.flatnonzero(hyp & (ndirs < _MIN_DIRECTIONS))
    return len(words), int(np.count_nonzero(hyp)), hist, triples, viol.tolist()


# rows per _planar_eval call: its (rows, 8) uint64 temporaries, 125 kB,
# stay under glibc's 128 KiB mmap threshold and reuse heap memory; at
# 4,096 rows they kept getting fresh pages from the kernel, and lm2's
# anchored chunk took 32 ms in a fresh process instead of 16
_EVAL_BLOCK = 2000


def _planar_chunk(args):
    """Yields _planar_eval of each block of _EVAL_BLOCK rows of rows
    [lo, hi) of the sets anchor + S, S over the r-subsets of points
    (tables.subset_words), with counterexamples as sorted index lists."""
    anchor, points, r, lo, hi = args
    for a, b in _blocks(hi - lo, _EVAL_BLOCK):
        words = subset_words(7, 2, anchor, points, r, lo + a, lo + b)
        *res, viol = _planar_eval(words, 3 if len(anchor) + r == 5 else 4)
        sets = subset_rows(7, 2, anchor, points, r,
                           lo + a + np.array(viol)).tolist() if viol else []
        yield *res, [{"set": row} for row in sets]


# direct-mode rows per chunk
_TAIL_BLOCK = 1 << 18

# anchor triangle (0,0), (1,0), (0,1): first nonzero noncollinear triple
_ANCHOR = (0, 1, 7)


def _planar_report(lemma_id, set_size, mode, workers):
    card = math.comb(49, set_size)
    if mode == "reduced":
        # |AGL(2,7)| = 49 * 48 * 42
        group = "AGL(2,7), order 98784, anchored triangle"
        anchor, r = _ANCHOR, set_size - len(_ANCHOR)
        points = tuple(i for i in range(49) if i not in anchor)
        extra = {"anchor": _coord_rows(7, 2, anchor)}
    elif mode == "direct":
        # collinearity and directions are translation invariant
        anchor, points, r = _origin_sets(7, 2, set_size)
        group, extra = "none", {}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = math.comb(len(points), r)
    subset_words(7, 2, anchor, points, r, 0, 0)  # built before workers fork
    chunks = [(anchor, points, r, lo, hi)
              for lo, hi in _blocks(rows, _TAIL_BLOCK)]
    if mode == "reduced":
        n, hyp, hist, triples, cex = _sweep(_planar_chunk, chunks, workers,
                                            rows)
    else:
        (n, hyp, hist, triples), cex = _origin_sweep(
            _planar_chunk, chunks, 7, 2, set_size, workers)
    histogram = {str(k): int(hist[k]) for k in range(9) if hist[k]}
    details = {"mode": mode, "enumerated_sets": n, "hypothesis_sets": hyp,
               "collinear_triples": triples,
               "direction_histogram": histogram, **extra}
    return LemmaReport(
        lemma_id, f"{set_size}-point subsets of F_7^2", card, group, n,
        _coord_cex(7, 2, cex), details)


def verify_lm1(workers: int = 1, mode: str = "direct") -> LemmaReport:
    """Every 5-point subset of F_7^2 with no 3 collinear points
    determines at least 6 directions.  The modes are those of
    verify_lm2."""
    return _planar_report("lm1", 5, mode, workers)


def verify_lm2(workers: int = 1, mode: str = "reduced") -> LemmaReport:
    """Every 7-point subset of F_7^2 with no 4 collinear points
    determines at least 6 directions.

    mode "reduced" anchors a noncollinear triple at
    {(0,0),(1,0),(0,1)}: the affine group is sharply transitive on
    ordered triangles, and every no-4-collinear set contains a
    noncollinear triple, so the anchored supersets cover every
    hypothesis set up to affine equivalence.  mode "direct" reads the
    C(48,6) subsets through the origin and reports every count as over
    all C(49,7) subsets, by translation invariance (_origin_sweep).
    Either mode reads its anchor (the triangle, or 0) plus each subset
    of the other points, in row ranges of tables.subset_words.
    """
    return _planar_report("lm2", 7, mode, workers)


# ---------------------------------------------------------------------------
# Projection lemma: functions F_7^2 -> {0..3} on three parallel support
# lines with line sums 7, all line sums <= 7 and a value 3 equidistribute
# on at most two direction families.

@lru_cache(maxsize=None)
def _fillings() -> np.ndarray:
    """All rows v in {0..3}^7 with sum 7, lexicographic."""
    rows = [v for v in itertools.product(range(4), repeat=7) if sum(v) == 7]
    return read_only(np.array(rows, np.int8))


def _line_orbits(rows: np.ndarray, top: int, total: int,
                 affine: bool = True) -> tuple:
    """(representatives, sizes) of the orbits of value rows on F_7 with
    entries 0..top summing to total under x -> a x + c, or under the
    translations x -> x + c alone if not affine (_orbits); rows in
    lexicographic order, so a representative is its orbit's least row."""
    if affine:
        # row c of add_table is x -> x + c, so [c, a] is x -> a x + c
        perms = add_table(7, 1)[:, linear_permutation_array(7, 1)]
        perms, types = perms.reshape(-1, 7), _cycle_type_counts(7, 1)
    else:
        perms, types = add_table(7, 1), _translation_types(7, 1)
    powers = (top + 1) ** np.arange(7, dtype=np.int64)
    reps, orbit, _ = _orbits(
        rows @ powers, lambda r: rows[r, perms] @ powers,
        _orbit_count(types, top, total),
        f"rows of F_7 -> 0..{top} summing to {total}"
        + ("" if affine else " under translations"))
    return np.array(reps), np.bincount(orbit)


@lru_cache(maxsize=None)
def _f1_orbit_reps():
    """Representatives of filling orbits under x -> a x + c, with sizes."""
    return tuple(map(read_only, _line_orbits(_fillings(), 3, 7)))


@lru_cache(maxsize=None)
def _shear_reps():
    """Representatives of filling orbits under the translations
    x -> x + c, with sizes: 161 orbits of 7 and the all-ones row, the one
    filling that every translation fixes."""
    return tuple(map(read_only, _line_orbits(_fillings(), 3, 7, False)))


@lru_cache(maxsize=None)
def _row_triple_orbits() -> tuple:
    """Orbits of 3-subsets of F_7 under x -> a x + c: (rep, weight); a
    triple goes in as its indicator row."""
    trips = combination_array(7, 3)
    rows = (trips[:, :, None] == np.arange(7)).any(axis=1)
    return tuple((tuple(trips[r].tolist()), int(w))
                 for r, w in zip(*_line_orbits(rows, 1, 3)))


def _decode_profile(code: int) -> list:
    c1, c2, c3 = code % 8, (code // 8) % 8, code // 64
    return [0] * (7 - c1 - c2 - c3) + [1] * c1 + [2] * c2 + [3] * c3


# a function equidistributed on more direction families is a
# counterexample
_MAX_EQUIDISTRIBUTED = 2


def _shear_images(rows: tuple, hits: np.ndarray) -> list:
    """The (second, third) filling pairs that hits[a, j3] stands for: the
    second row's representative a (_shear_reps) and third row j3, moved
    together by every shear of the support rows, in row-major order.  A
    shift of the second row by s moves the third by s (y3 - y1) / (y2 -
    y1) mod 7."""
    if not hits.any():
        return []
    V = _fillings()
    reps2, wts2 = _shear_reps()
    y1, y2, y3 = rows
    c = (y3 - y1) * pow(y2 - y1, -1, 7) % 7
    # [j, s]: row j shifted by s, v[x + s]; lexicographic rows' keys ascend
    lex = 4 ** np.arange(6, -1, -1)
    shifted = np.searchsorted(V @ lex, V[:, add_table(7, 1)] @ lex).tolist()
    return sorted((shifted[reps2[a]][s], shifted[b][s * c % 7])
                  for a, b in np.argwhere(hits).tolist()
                  for s in range(wts2[a]))


def _proj21_chunk(args):
    """Yields (weighted functions enumerated, weighted hypothesis
    functions, weighted equidistribution histogram, profiles,
    counterexamples) for each first-row representative of one block;
    weights count the filling orbit, the orbit of the row triple and the
    second row's orbit under shears.

    A function on the support rows is a multiset of points of F_7^2, so
    its packed line words are the sums of its three rows' words; no byte
    exceeds 21, so nothing carries.

    The shear (x, y) -> (x + t(y - y1), y), y1 the first support row,
    fixes the first row and maps every line to a line, the horizontal
    ones to themselves.  It shifts the second row by t(y2 - y1), which
    runs over F_7, and the third by t(y3 - y1).  Line sums, the has-3
    clause, the number of equidistributed directions and the value
    profiles are invariant under it, so the second row runs over the
    representatives of its translation orbits (_shear_reps), each
    weighted by its orbit's size; the third runs over every filling.  A
    counterexample at a representative stands for its images
    (_shear_images).
    """
    rows, rep_lo, rep_hi = args
    V = _fillings()
    reps, wts = _f1_orbit_reps()
    reps2, wts2 = _shear_reps()
    row_weight = dict(_row_triple_orbits())[rows]
    table = plane_word_table(7, 2)
    words = [V.astype(np.uint64) @ table[7 * r + np.arange(7)] for r in rows]
    second = words[1][reps2]
    has3 = (V == 3).any(axis=1)
    codes = ((V == 1).sum(axis=1)
             + 8 * (V == 2).sum(axis=1)
             + 64 * (V == 3).sum(axis=1))
    vals, ids = np.unique(codes, return_inverse=True)
    onehot = ids[:, None] == np.arange(len(vals))
    for ri in range(rep_lo, rep_hi):
        j1 = int(reps[ri])
        w1 = row_weight * int(wts[ri])
        first = words[0][j1] + second
        high = np.zeros((len(reps2), len(V)), np.uint64)
        equi = np.zeros((len(reps2), len(V)), np.uint8)
        # the horizontal direction has bytes {7, 7, 7, 0, 0, 0, 0}: it
        # always meets the bound and is never uniform, so counting all 8
        # directions gives the counts of the 7 others
        for k in range(8):
            s = first[:, k, None] + words[2][None, :, k]
            high |= s + uniform_word(7, 0x78)      # bit 7 set: a sum >= 8
            equi += s == uniform_word(7, 3)
        ok = (high & uniform_word(7, 0x80)) == 0
        if not has3[j1]:
            ok &= has3[reps2, None] | has3[None, :]
        weight = np.broadcast_to(wts2[:, None], ok.shape)[ok]
        hist = np.bincount(equi[ok], weight, minlength=8).astype(np.int64)
        cex = [{"rows": [int(r) for r in rows],
                "values": [V[j1].tolist(), V[j2].tolist(), V[j3].tolist()]}
               for j2, j3 in _shear_images(
                   rows, ok & (equi > _MAX_EQUIDISTRIBUTED))]
        seen = onehot[reps2].T @ ok @ onehot       # code pairs, as bools
        profiles = {tuple(sorted((int(codes[j1]), int(vals[a]),
                                  int(vals[b]))))
                    for a, b in np.argwhere(seen)}
        yield (w1 * int(wts2.sum()) * len(V), w1 * int(hist.sum()),
               w1 * hist, profiles, cex)


def verify_proj21(workers: int = 1) -> LemmaReport:
    """Functions F_7^2 -> {0..3} supported on three parallel lines with
    support-line sums exactly 7, every line sum at most 7, and some
    value 3, are equidistributed on at most two direction families.

    Support lines are taken horizontal (the affine group is transitive
    on direction families); row triples run over the 2 orbits of the
    affine line action, the first support row over the 31 filling
    orbits under the simultaneous column maps x -> a x + c, and the
    second over the 162 filling orbits under the shears that fix the
    first row, which shift the second row by every element of F_7: 161
    orbits of 7 and the all-ones row.  Each number is checked against
    the cycle index (_line_orbits), and every count is weighted by the
    orbits' sizes, so orbit_count still counts the 62 outer passes and
    the report is that of the full enumeration.
    """
    V = _fillings()
    reps, _ = _f1_orbit_reps()
    orbits = _row_triple_orbits()
    _shear_reps()                   # both built once, before the workers fork
    plane_word_table(7, 2)
    chunks = [(rep, lo, hi) for rep, _ in orbits
              for lo, hi in _blocks(len(reps), 8)]
    card = 35 * len(V) ** 3
    _, hyp_weighted, equi_hist, profiles, cex = _sweep(
        _proj21_chunk, chunks, workers, card)
    details = {
        "fillings_per_line": int(len(V)),
        "f1_orbit_reps": int(len(reps)),
        "row_triple_orbits": [
            {"rows": [int(r) for r in rep], "weight": int(w)}
            for rep, w in orbits
        ],
        "hypothesis_functions": int(hyp_weighted),
        "equidistribution_histogram": {
            str(k): int(equi_hist[k]) for k in range(8) if equi_hist[k]
        },
        "profiles": [
            [_decode_profile(c) for c in prof] for prof in sorted(profiles)
        ],
    }
    return LemmaReport(
        "proj21",
        "functions on 3 parallel support lines in F_7^2, row sums 7",
        card,
        "row triples and column maps under x -> a x + c (order 42 each)",
        len(orbits) * len(reps),
        cex, details)


# ---------------------------------------------------------------------------
# Plane concentration at p = 3: six-point sets equidistributed along two
# directions of a common plane lie in two parallel planes.

@lru_cache(maxsize=None)
def _slab_hypotheses() -> np.ndarray:
    """(2^13,) bool, read-only: slab-p3's hypothesis for each F_3^3
    zero-direction key (fourier.zero_keys), two zero directions
    orthogonal to one direction, that is two zero directions of one
    plane."""
    keys = np.arange(1 << 13, dtype=np.uint16)[:, None]
    orth = orthogonal_direction_bits(3, 3).astype(np.uint16)
    return read_only((np.bitwise_count(keys & orth) >= 2).any(axis=-1))


def _slab_chunk(args):
    """Yields (rows, hypothesis rows, counterexamples) of each block of
    WORD_BLOCK rows of rows [lo, hi) of the six-sets of F_3^3 through 0
    (_origin_sets)."""
    lo, hi = args
    sets = _origin_sets(3, 3, 6)
    for a, b in _blocks(hi - lo, WORD_BLOCK):
        words = subset_words(3, 3, *sets, lo + a, lo + b)
        hyp = _slab_hypotheses()[zero_keys(3, words, 6)]
        # inside two parallel planes: some plane count is 0
        concl = (bytes_at_least(3, words, 1) < 3).any(axis=-1)
        bad = lo + a + np.flatnonzero(hyp & ~concl)
        rows = subset_rows(3, 3, *sets, bad).tolist() if len(bad) else []
        yield len(words), int(hyp.sum()), [{"set": r} for r in rows]


def verify_slab_p3(workers: int = 1) -> LemmaReport:
    """Six-point subsets of F_3^3 equidistributed along at least two
    directions of one plane are contained in two parallel planes.
    Both predicates are translation invariant, so the sweep reads the
    sets through the origin (_origin_sweep): row ranges of 0 plus each
    5-subset of the other 26 points (_origin_sets, tables.subset_words).
    The sweep is one chunk, run in the calling process at any worker
    count; it reads the hypothesis of each row off a table indexed by
    its zero-direction key (_slab_hypotheses)."""
    (total, hyp), cex = _origin_sweep(
        _slab_chunk, [(0, math.comb(26, 5))], 3, 3, 6, workers)
    details = {
        "enumerated_sets": total,
        "hypothesis_sets": hyp,
        "planes": 13,
        "zero_directions_required": 2,
        "parallel_planes_allowed": 2,
    }
    return LemmaReport(
        "slab-p3", "6-point subsets of F_3^3", total, "none", total,
        _coord_cex(3, 3, cex), details)


# ---------------------------------------------------------------------------
# Small-space spectral-versus-tile sweeps.

_BUDGET = 10 ** 9


def _found(verdict: str) -> bool:
    """A sweep's search verdict as witness or not; an aborted search
    means the sweep decided nothing."""
    if verdict == "aborted":
        raise SweepBudgetError("budget exhausted during exhaustive sweep")
    return verdict == "witness"


def _zero_keys(p: int, d: int, size: int) -> np.ndarray:
    """The zero-direction key (fourier.zero_keys) of each set of
    _origin_sets(p, d, size), in row order, WORD_BLOCK rows at a time
    into one array of the keys' own width."""
    anchor, points, r = _origin_sets(p, d, size)
    words = partial(subset_words, p, d, anchor, points, r)
    keys = np.empty(math.comb(len(points), r),
                    dtype=zero_keys(p, words(0, 0), size).dtype)
    for lo, hi in _blocks(len(keys), WORD_BLOCK):
        keys[lo:hi] = zero_keys(p, words(lo, hi), size)
    return keys


def _search_keys(spc: Space, size: int, keys, counts) -> tuple:
    """(searched sets, nodes, {key: spectrum}) of distinct zero-direction
    keys (bit k: direction k), each with its number of sets, at a size a
    spectral set may have.

    The clique stage is keyed by (key, size, budget), as spectrum_search
    calls it, so it runs once per key, and its nodes count once per set.
    It needs |E| - 1 points in the zero set, and each zero direction
    holds p - 1 of them, so a key with fewer is answered none without a
    search.
    """
    searched = nodes = 0
    spectra = {}
    for key, count in zip(keys, counts):
        if (spc.p - 1) * key.bit_count() < size - 1:
            continue
        verdict, spectrum, n = _clique_in_zero_set(spc, key, size, _BUDGET)
        searched += count
        nodes += n * count
        if _found(verdict):
            spectra[key] = sorted(spectrum)
    return searched, nodes, spectra


# rows checked per block of _size_chunk: at fuglede-5-2's size 5, with
# 3,426 rows to check, the chunk's warm peak was 1.1 MB at blocks of
# 256, 1.5 MB at 512 and 9.0 MB with all the rows at once; the Gram
# route's scratch grows with the block
_CHECK_BLOCK = 1 << 8


def _size_chunk(args):
    """Yields (sets, searched sets, spectral sets, tiling sets, nodes,
    []) of the size-sets of F_p^d through 0 (_origin_sets), then
    (0, 0, 0, 0, 0, counterexamples) per block of checked rows; a size
    that the spectral size filter rejects is (sets, sets, 0, 0, 0, []),
    every set searched once and rejected, and builds no row.  That
    filter alone guards: a size that can tile divides p^d, and every
    divisor of p^d passes it.

    Every row is keyed by its zero directions (_zero_keys), each
    distinct key is searched once (_search_keys), and a row is spectral
    when its key has a spectrum.  At a size that can tile, a row tiles
    when it has a complement (_row_complements).  Every witness is
    checked against its own row, _CHECK_BLOCK rows at a time: the
    spectra of the rows' keys both ways in one _validate_witness_rows
    call, the complements once in one tiling_pair_rows call, which is
    symmetric as add_table is.  Counterexamples, the rows with one
    witness but not the other, come in row order, each with its key's
    spectrum or None.
    """
    p, d, size = args
    spc = Space(p, d)
    origin = _origin_sets(p, d, size)
    n = math.comb(len(origin[1]), origin[2])
    if size not in allowed_spectral_sizes(spc):
        yield n, n, 0, 0, 0, []
        return
    can_tile = size_can_tile(spc, size)
    complements = _row_complements(p, size) if can_tile else None
    keys = _zero_keys(p, d, size)
    uniq, counts = np.unique(keys, return_counts=True)
    searched, nodes, spectra = _search_keys(spc, size, uniq.tolist(),
                                            counts.tolist())
    spectral = np.isin(keys, list(spectra))
    tiles = complements[:, 0] >= 0 if can_tile else np.zeros(n, dtype=bool)
    yield n, searched, int(spectral.sum()), int(tiles.sum()), nodes, []
    checked = np.flatnonzero(spectral | tiles)
    for lo, hi in _blocks(len(checked), _CHECK_BLOCK):
        pos = checked[lo:hi]
        E = subset_rows(p, d, *origin, pos)
        s, t = spectral[pos], tiles[pos]
        if s.any():
            _validate_witness_rows(p, d, E[s],
                                   [spectra[k] for k in keys[pos[s]].tolist()])
        if t.any():
            ok = tiling_pair_rows(p, d, E[t], complements[pos[t]])
            if not ok.all():
                raise InternalCheckError(
                    "class tiling complement fails on member set "
                    f"{E[t][int(np.argmin(ok))].tolist()}")
        yield 0, 0, 0, 0, 0, [{"set": E[k].tolist(),
                               "spectral": "witness" if s[k] else "none",
                               "tile": "witness" if t[k] else "none",
                               "spectrum": spectra.get(int(keys[pos[k]]))}
                              for k in np.flatnonzero(s != t).tolist()]


def _orbits(keys: np.ndarray, images, expected: int, what: str) -> tuple:
    """(representatives, orbit, first) of rows with distinct int keys: the
    first row of each orbit, and per row its orbit and the position in
    images(rep) of the first image that hits it.  The first row with no
    orbit starts one, images(r) gives the keys of its images under the
    group, and searchsorted finds them.  An image that is no row, a row
    hit by two orbits, or an orbit count other than expected (the cycle
    index, _orbit_count) raises InternalCheckError."""
    order = np.argsort(keys)
    keys = keys[order]
    orbit, first = np.full(len(keys), -1), np.zeros(len(keys), np.intp)
    reps = []
    while (free := orbit < 0).any():
        r = int(free.argmax())
        hits = np.ravel(images(r))
        at = np.searchsorted(keys, hits).clip(max=len(keys) - 1)
        if (keys[at] != hits).any():
            raise InternalCheckError(f"row {r} of {what} maps outside the "
                                     "rows")
        hit, pos = np.unique(order[at], return_index=True)
        if (orbit[hit] >= 0).any():
            raise InternalCheckError(f"row {r} of {what} maps into another "
                                     "orbit")
        orbit[hit], first[hit] = len(reps), pos
        reps.append(r)
    if len(reps) != expected:
        raise InternalCheckError(
            f"found {len(reps)} orbits of {what}, expected {expected}")
    return reps, orbit, first


# maps per _cycle_type_counts block: a few hundred kB of scratch at p = 7
_MAP_BLOCK = 1 << 10


def _affine_orbits(p: int, rows: np.ndarray) -> tuple:
    """(representatives, orbit, map) of rows, the size-sets of F_p^2
    through 0, under the affine maps (_orbits), with per row a linear map
    x -> Mx, a row of linear_permutation_array(p, 2), such that the row
    is M(rep) - e for a point e of M(rep).  The sets through 0 of
    the affine class of E are the sets ME - e, e in ME, so the images of
    a row are its images under every M, each translated by each of its
    own points; the orbits must number affine_class_counts."""
    size = rows.shape[1]
    linear = linear_permutation_array(p, 2)

    def images(r):
        image = linear[:, rows[r]]
        # [m, j, i]: point i minus point j of image m; the keys of the
        # translates come map by map, size of them per map
        moved = difference(p, 2, image[:, None, :], image[:, :, None])
        return (np.int64(1) << moved).sum(axis=2)

    reps, orbit, first = _orbits(
        (np.int64(1) << rows).sum(axis=1), images,
        affine_class_counts(p, 2, (size,))[size], f"{size}-sets")
    return reps, orbit, first // size


def _row_complements(p: int, size: int) -> np.ndarray:
    """(rows, p^2 / size) int16: the tiling complement of each size-set of
    F_p^2 through 0 (_origin_sets), as sorted point indices, or -1 where
    the set does not tile; one tiling search per affine orbit, for a size
    that can tile.

    Tiling commutes with invertible linear maps and with translations:
    if R + A = F_p^2 exactly, so does (MR - e) + MA.  One
    tiling_search_rows call searches each orbit's representative R
    (_affine_orbits), and a row that M reaches from R gets MA.
    Complements leave here unchecked; _size_chunk checks each row
    against its own, once, as the tiling check is symmetric.
    """
    rows = subset_rows(p, 2, *_origin_sets(p, 2, size),
                       np.arange(math.comb(p * p - 1, size - 1)))
    reps, orbit, maps = _affine_orbits(p, rows)
    linear = linear_permutation_array(p, 2)
    out = np.full((len(rows), p * p // size), -1, dtype=np.int16)
    for o, (verdict, complement, _) in enumerate(
            tiling_search_rows(p, 2, rows[reps], _BUDGET)):
        if _found(verdict):
            members = np.flatnonzero(orbit == o)
            out[members] = np.sort(linear[maps[members, None], complement],
                                   axis=1)
    return out


@lru_cache(maxsize=None)
def _cycle_type_counts(p: int, d: int) -> tuple:
    """How many affine permutations have each cycle type (the sorted
    cycle lengths), as (cycle type, count) pairs; a tuple, so the cached
    value cannot be changed by a caller.

    Conjugating x -> Mx + t by the translation x -> x + s gives
    x -> Mx + t + (M - I)s, of the same cycle type, so one map is walked
    per linear map M (linear_permutation_array) and coset t + Im(M - I),
    its least point t, weighted by |Im(M - I)|; the walked map sends x
    to add_table[t, Mx].  A block of the walked maps acts as one
    permutation of maps x p^d points.  Pointer doubling finds each
    point's least orbit point: after r rounds low[x] = min(x, g x, ...,
    g^(2^r - 1) x), and 2^r >= p^d covers every cycle.  Cycle lengths
    are then the sizes of the classes of low, counted at the cycles'
    least points.
    """
    linear, table = linear_permutation_array(p, d), add_table(p, d)
    n = linear.shape[1]
    image = difference(p, d, linear, np.arange(n))          # (M - I)x
    walked, weights = [], []
    for lo, hi in _blocks(len(image), max(1, _MAP_BLOCK // n)):
        # [m, t, s]: t + (M - I)s; t is a coset's least point if no less
        cosets = table[np.arange(n)[:, None], image[lo:hi, None, :]]
        least = cosets.min(axis=2) == np.arange(n)
        m, t = np.nonzero(least)
        walked.append((lo + m) * n + t)
        weights.append(n // least.sum(axis=1)[m])
    walked, weights = np.concatenate(walked), np.concatenate(weights)
    offsets = n * np.arange(_MAP_BLOCK, dtype=np.int32)[:, None]
    # [map, l]: cycles of length l, at most p^d of them
    per_map = np.empty((len(walked), n + 1), dtype=np.int8)
    for lo, hi in _blocks(len(walked), _MAP_BLOCK):
        m, t = np.divmod(walked[lo:hi], n)
        step = (table[t[:, None], linear[m]] + offsets[:hi - lo]).ravel()
        low = np.arange(step.size, dtype=np.int32)
        for _ in range((n - 1).bit_length()):
            low = np.minimum(low, low.take(step))
            step = step.take(step)
        size = np.bincount(low, minlength=step.size)
        least = np.flatnonzero(size)
        per_map[lo:hi] = np.bincount(least // n * (n + 1) + size[least],
                                     minlength=per_map[lo:hi].size
                                     ).reshape(-1, n + 1)
    types, which = np.unique(per_map.view(np.dtype((np.void, n + 1))),
                             return_inverse=True)
    mult = np.zeros(len(types), dtype=np.int64)
    np.add.at(mult, which.ravel(), weights)
    return tuple(
        (tuple(np.repeat(np.arange(n + 1), np.frombuffer(t, np.int8)).tolist()),
         int(c)) for t, c in zip(types, mult))


def _orbit_count(types, top: int, total: int) -> int:
    """Orbits of the value rows with entries 0..top summing to total under
    a group given as (cycle type, count) pairs: a row fixed by a map is
    constant on its cycles, so the cycle index, a cycle of length l read
    as the sum over v of x^(l v), counts them at x^total (Burnside)."""
    fixed = order = 0
    for ctype, mult in types:
        poly = np.bincount([0], minlength=total + 1)
        for ln in ctype:
            poly = np.convolve(poly, np.bincount(ln * np.arange(top + 1)))
            poly = poly[:total + 1]
        fixed += mult * int(poly[total])
        order += mult
    if fixed % order:
        raise InternalCheckError("orbit count not integral")
    return fixed // order


def affine_class_counts(p: int, d: int, sizes: tuple) -> dict:
    """Number of affine equivalence classes of s-subsets of F_p^d, via
    the cycle index of the affine permutation action (d <= 2)."""
    types = _cycle_type_counts(p, d)
    return {s: _orbit_count(types, 1, s) for s in sizes}


def _translation_types(p: int, d: int) -> tuple:
    """(cycle type, count) pairs of the translations of F_p^d: the
    identity, and p^d - 1 translations with p^(d-1) cycles of length p
    each."""
    n = p ** d
    return ((1,) * n, 1), ((p,) * (n // p), n - 1)


def translation_class_counts(p: int, d: int, sizes: tuple) -> dict:
    """Number of translation classes of s-subsets of F_p^d, via the cycle
    index of the translations (_translation_types)."""
    types = _translation_types(p, d)
    return {s: _orbit_count(types, 1, s) for s in sizes}


def verify_fuglede_small(p: int, d: int, sizes, workers: int = 1) -> LemmaReport:
    """Spectral-versus-tile sweeps over small spaces.

    (3,2) and (5,2): every subset of the given sizes, both predicates,
    assert the equivalence.  (3,3): size 6 only, which cannot tile, so
    assert no spectra exist.  Both predicates are translation invariant,
    so the sweep reads the subsets through the origin: each size is one
    sweep of one chunk (_size_chunk), run in the calling process at any
    worker count.  The chunk keys every set of its size by its zero
    directions and runs the clique stage once per distinct key, over the
    whole size, and it checks each set against its own tiling complement,
    which it finds too (_row_complements): one pass groups the sets
    through the origin into affine orbits, whose number must match
    affine_class_counts, and one batched tiling search runs over the
    orbits' first sets; a set's complement is its orbit's mapped by a
    linear map.  Every witness is then checked against its own set in
    blocks of rows, a spectrum both ways and a tiling complement once,
    as add_table is symmetric.  Reports count per set, as a per-set
    search would.  A size that both size filters reject builds no set:
    its chunk counts its sets as searched once and rejected.

    (3,3) and (3,2) report every count as over all subsets and a
    counterexample with all its translates (_origin_sweep); each
    spectral six-set of F_3^3 is verified against its own set.  (5,2)
    reports the sets through the origin, its translation-anchored
    representatives.  Raises SweepBudgetError if a search runs out of
    budget.
    """
    p, d = operator.index(p), operator.index(d)
    sizes = tuple(sorted(map(operator.index, sizes)))
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes repeat: {list(sizes)}")
    if (p, d) not in ((3, 3), (3, 2), (5, 2)):
        raise ValueError(f"unsupported sweep ({p}, {d})")
    if (p, d) == (3, 3) and sizes != (6,):
        raise ValueError("F_3^3 sweep supports size 6 only")
    n = Space(p, d).order
    if not sizes or not all(1 <= s <= n for s in sizes):
        raise ValueError(f"F_{p}^{d} sweep needs sizes within 1..{n}")
    per_size, cex = {}, []
    for s in sizes:
        if p == 3:
            counts, found = _origin_sweep(_size_chunk, [(p, d, s)], p, d, s,
                                          workers)
        else:
            *counts, found = _sweep(_size_chunk, [(p, d, s)], workers,
                                    math.comb(n - 1, s - 1))
        per_size[s] = counts
        cex += found

    if d == 3:
        total, searched, spectral, _, nodes = per_size[6]
        wits = [{"set": c["set"], "spectrum": c["spectrum"]} for c in cex]
        if wits:
            _validate_witness_rows(3, 3, [w["set"] for w in wits],
                                   [w["spectrum"] for w in wits])
        details = {
            "sizes": {"6": {
                "sets": total,
                "immediate_none": total - searched,
                "searched": searched,
                "spectral": spectral,
                "nodes": nodes,
            }},
            "pruning": "off",
        }
        return LemmaReport(
            "fuglede-3-3", "6-point subsets of F_3^3", total, "none", total,
            _coord_cex(3, 3, wits), details)

    cex = [{k: c[k] for k in ("set", "spectral", "tile")} for c in cex]
    if p == 3:
        card = sum(math.comb(9, s) for s in sizes)
        details = {"sizes": {str(s): {"sets": c[0], "spectral": c[2],
                                      "tiles": c[3]}
                             for s, c in per_size.items()},
                   "pruning": "off"}
        return LemmaReport(
            "fuglede-3-2",
            f"subsets of F_3^2 of sizes {list(sizes)}",
            card, "none", card, _coord_cex(3, 2, cex), details)

    details = {
        "sizes": {str(s): {"anchored": c[0], "searched": c[1],
                           "spectral": c[2], "tiles": c[3]}
                  for s, c in per_size.items()},
        "pruning": "off",
        "affine_classes": {
            str(s): c for s, c in affine_class_counts(5, 2, sizes).items()
        },
        "translation_classes": {
            str(s): c
            for s, c in translation_class_counts(5, 2, sizes).items()
        },
    }
    card = sum(math.comb(25, s) for s in sizes)
    return LemmaReport(
        "fuglede-5-2",
        f"translation-anchored subsets of F_5^2 of sizes {list(sizes)}",
        card,
        "translations of F_5^2, order 25",
        sum(c[0] for c in per_size.values()),
        _coord_cex(5, 2, cex), details)


# ---------------------------------------------------------------------------
# Randomized falsification.

_FALSIFY_CHUNK = 2000
# rows per pruning_rule call: in falsify 7/3/21, 32 to 512 rows were no
# faster than 96; 128, 256 and 512 raised peak RSS by 0.3, 2.6 and 5 MiB.
# With the one-gather pair kernel, 192 and 384 rows were no faster in a
# perfbench falsify run, and 384 raised peak RSS by 0.7 MiB
_PRUNE_BLOCK = 96


def _choice_rows(child_seed, n: int, size: int, count: int):
    """Rows equal, once sorted, to `count` rng.choice(n, size, False) on
    Generator(PCG64(child_seed)), read off the raw words at once; None if
    a draw is rejected.  For n <= 10,000 choice draws in [0, j] for j =
    n - size .. n - 1 (Floyd: j if drawn before), then shuffles with
    draws in [0, i], i = size - 1 .. 1.  A draw below b takes the next
    32-bit word w (PCG64 gives each output low half first), m = w b, and
    is m >> 32 unless m mod 2^32 < 2^32 mod b rejects w (Lemire).  The
    draws are kept column-major, one (count,) row per draw, so Floyd's
    test against the earlier draws reduces along contiguous rows; the
    result is that buffer's transpose, a (count, size) view."""
    if n > 10_000:
        return None
    width = 2 * size - 1
    raw = np.random.PCG64(child_seed).random_raw(-(-count * width // 2))
    words = raw.astype("<u8", copy=False).view("<u4")[:count * width]
    cols = np.empty((size, count), np.int16)      # indices below 10,000
    # one pass per draw: no temporary is wider than one column
    for c, b in enumerate([*range(n - size + 1, n + 1), *range(size, 1, -1)]):
        m = words[c::width] * np.uint64(b)
        if ((m & 0xFFFFFFFF) < 2 ** 32 % b).any():
            return None
        if c < size:
            v = (m >> 32).astype(np.int16)
            cols[c] = np.where((cols[:c] == v).any(axis=0), b - 1, v)
    return cols.T


def _falsify_chunk(args):
    """Yields one tuple: (trials, outcomes, rule hits, witnesses)."""
    p, d, size, child_seed, count = args
    spc = Space(p, d)
    outcomes = {"witness": 0, "none": 0, "aborted": 0}
    if size not in allowed_spectral_sizes(spc):
        # the search's size filter rejects every trial before any rule
        outcomes["none"] = count
        yield count, outcomes, {"size_filtered": count}, []
        return
    rows = _choice_rows(child_seed, p ** d, size, count)
    if rows is None:   # a rejected draw shifts every later row's words
        rng = np.random.Generator(np.random.PCG64(child_seed))
        rows = np.empty((count, size), np.int16)
        for row in rows:
            row[:] = rng.choice(p ** d, size=size, replace=False)
    rows.sort(axis=1)
    rule = np.concatenate([pruning_rule(spc, rows[lo:hi])
                           for lo, hi in _blocks(count, _PRUNE_BLOCK)])
    hits = np.bincount(rule[rule >= 0], minlength=len(PRUNING_RULES))
    pruned = {k: int(h) for k, h in zip(PRUNING_RULES, hits) if h}
    outcomes["none"] = int(hits.sum())
    wits = []
    for row in rows[rule < 0]:
        # no rule rejects the row, so the search runs in full
        cert = spectrum_search(PointSet(spc, row.tolist()))
        outcomes[cert.verdict] += 1
        if cert.verdict == "witness":
            wits.append({
                "set": [int(i) for i in row],
                "spectrum": cert.witness.indices(),
            })
    yield count, outcomes, pruned, wits


def falsify_random(p: int, d: int, size: int, trials: int, seed: int,
                   workers: int = 1) -> LemmaReport:
    """Sample subsets of the given size and hunt for a spectrum with the
    pruned search.  Statistical evidence only: a clean run does not
    prove nonexistence, but any witness found would be a disproof.

    Sampling is chunked with a fixed chunk size; chunk generators are
    spawned from the seed by chunk index, so reports do not depend on
    the worker count.  Each chunk draws all its trials, decides the
    pruning rules for blocks of them at once, and searches only the
    trials no rule rejects.  The trials equal rng.choice draws on the
    chunk's PCG64 generator, read off its raw words (_choice_rows).
    """
    spc = Space(p, d)
    size, trials, seed = map(operator.index, (size, trials, seed))
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if size % p != 0 or not 2 <= size // p <= p - 1:
        raise ValueError(f"size must be mp with 2 <= m <= p-1, got {size}")
    if size > spc.order:
        raise ValueError(f"size {size} exceeds p^d = {spc.order}")
    blocks = list(_blocks(trials, _FALSIFY_CHUNK))
    children = np.random.SeedSequence(seed).spawn(len(blocks))
    chunks = [(p, d, size, child, hi - lo)
              for child, (lo, hi) in zip(children, blocks)]
    _, outcomes, pruned, wits = _sweep(_falsify_chunk, chunks, workers, trials)
    details = {
        "trials": trials,
        "size": size,
        "outcomes": {k: int(outcomes[k]) for k in sorted(outcomes)},
        "pruning": {k: int(pruned[k]) for k in sorted(pruned)},
        "note": ("random sampling with the pruned spectrum search; "
                 "absence of witnesses here is statistical evidence, "
                 "not an exhaustive proof"),
    }
    return LemmaReport(
        f"falsify-{p}-{d}-{size}",
        f"random {size}-point subsets of F_{p}^{d}",
        math.comb(p ** d, size),
        "none (random sampling)",
        trials, _coord_cex(p, d, wits), details, seed=seed)
