"""Exhaustive and randomized verifiers for the combinatorial statements
behind the spectral-set analysis, each producing a LemmaReport.

Every verifier runs through one driver, _sweep.  Its contract:

- the enumeration is split into a fixed chunk list that does not depend
  on the worker count (_blocks cuts a range into [lo, hi) pieces);
- a chunk is the unit of scheduling and a block the unit of memory:
  slab-p3 and each searched size of fuglede-3-3, fuglede-3-2 and
  fuglede-5-2 are one chunk, which walks blocks of rows, so these sweeps
  fork nothing at any worker count;
- each chunk returns a tuple, and the tuples are folded field by field
  in chunk order: numbers and arrays add, lists concatenate, sets unite
  and dicts merge key by key, so keys with a zero count stay in place;
- field 0 counts what the chunk enumerated, sets or functions, and a
  total that differs from the expected one raises InternalCheckError (a
  miscount);
- counterexamples leave the chunks as point-index lists and become
  coordinate rows in one place, _coord_cex;
- a sweep of translation-invariant counts reads only the sets through
  the origin and reports them as over all sets (_origin_sweep, and
  _per_set for fuglede-3-3 and fuglede-3-2);
- lm1, lm2, slab-p3 and the fuglede sweeps read the sets anchor + S, S
  over the r-subsets of a point list, through tables.subset_words and
  subset_rows; the sets through the origin are _origin_sets;
- the fuglede sweeps share one chunk per size, _size_chunk: it keys
  every set of the size by its zero directions and searches each
  distinct key once, and it checks each set against its own tiling
  complement, which the calling process finds with one tiling search per
  affine orbit of the sets through the origin (_row_complements).

The deterministic part of a report is therefore identical no matter how
many workers ran it.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .parallel import run_chunks
from .sets import PointSet
from .space import Space
from .spectral import (PRUNING_RULES, InternalCheckError,
                       _clique_in_zero_set, _validate_witness_rows,
                       allowed_spectral_sizes, pruning_rule, spectrum_search)
from .tables import (
    WORD_BLOCK,
    add_table,
    affine_permutation_array,
    bytes_at_least,
    combination_array,
    coords_matrix,
    difference,
    direction_masks,
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
    """Outcome of one verification run.

    counterexamples and details hold only JSON-ready values so the
    deterministic payload can be serialized and hashed directly.
    """

    lemma_id: str
    space_description: str
    space_cardinality: int
    symmetry_group: str
    orbit_count: int
    counterexamples: list
    details: dict
    elapsed_seconds: float
    workers: int
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def result_dict(self) -> dict:
        """Deterministic payload; wall time and worker count stay out."""
        out = {
            "counterexamples": self.counterexamples,
            "details": self.details,
            "lemma_id": self.lemma_id,
            "orbit_count": self.orbit_count,
            "space_cardinality": self.space_cardinality,
            "space_description": self.space_description,
            "symmetry_group": self.symmetry_group,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


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
    """Result tuples folded field by field, in order (_fold)."""
    results = iter(results)
    total = list(next(results))
    for res in results:
        total = [_fold(a, b) for a, b in zip(total, res)]
    return total


def _sweep(fn, chunks: list, workers: int, expected: int) -> list:
    """Run fn over the fixed chunk list and fold its result tuples field
    by field in chunk order; field 0 must total expected."""
    total = _fold_all(run_chunks(fn, chunks, workers))
    if total[0] != expected:
        raise InternalCheckError(
            f"{fn.__name__} enumerated {total[0]}, expected {expected}")
    return total


# ---------------------------------------------------------------------------
# Translation-invariant counts over the k-sets of F_p^d, n = p^d points:
# (E, e in E) -> (E - e, e) makes k C(n, k) = n C(n - 1, k - 1), so a count
# over all k-sets is n/k of its count over the k-sets through 0.

@lru_cache(maxsize=None)
def _through_origin(n: int, size: int) -> np.ndarray:
    """The size-subsets of range(n) that contain 0, lexicographic."""
    return read_only(np.pad(combination_array(n - 1, size - 1) + 1,
                            ((0, 0), (1, 0))))


def _origin_sets(p: int, d: int, size: int) -> tuple:
    """The size-sets of F_p^d through 0 as (anchor, points, r) of
    tables.subset_words: 0 plus each (size - 1)-subset of the other
    points, in the row order of _through_origin."""
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
    """_planar_eval over rows [lo, hi) of the sets anchor + S, S over
    the r-subsets of points (tables.subset_words), _EVAL_BLOCK rows at a
    time, with counterexamples as sorted index lists."""
    anchor, points, r, lo, hi = args

    def block(a, b):
        words = subset_words(7, 2, anchor, points, r, a, b)
        *res, viol = _planar_eval(words, 3 if len(anchor) + r == 5 else 4)
        sets = subset_rows(7, 2, anchor, points, r,
                           [a + j for j in viol]).tolist() if viol else []
        return [*res, [{"set": row} for row in sets]]

    return _fold_all(block(lo + a, lo + b)
                     for a, b in _blocks(hi - lo, _EVAL_BLOCK))


# direct-mode rows per chunk
_TAIL_BLOCK = 1 << 18

# anchor triangle (0,0), (1,0), (0,1): first nonzero noncollinear triple
_ANCHOR = (0, 1, 7)


def _planar_report(lemma_id, set_size, mode, workers):
    t0 = perf_counter()
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
        _coord_cex(7, 2, cex), details, round(perf_counter() - t0, 3), workers)


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


def _orbit_reps(V: np.ndarray, base: int):
    """Orbit representatives of value rows on F_7 under x -> a x + c:
    their positions in V, and the orbit sizes.  A key reads a row as
    base-`base` digits, position 0 most significant; a representative's
    own key is the smallest of its orbit."""
    powers = base ** np.arange(6, -1, -1, dtype=np.int64)
    keys = V[:, affine_permutation_array(7, 1)] @ powers     # (rows, 42)
    reps = np.flatnonzero(V @ powers == keys.min(axis=1))
    weights = 1 + (np.diff(np.sort(keys[reps], axis=1)) != 0).sum(axis=1)
    if int(weights.sum()) != len(V):
        raise InternalCheckError("orbits do not partition")
    return reps, weights


@lru_cache(maxsize=None)
def _f1_orbit_reps():
    """Representatives of filling orbits under x -> a x + c, with sizes."""
    return tuple(map(read_only, _orbit_reps(_fillings(), 4)))


@lru_cache(maxsize=None)
def _row_triple_orbits() -> tuple:
    """Orbits of 3-subsets of F_7 under x -> a x + c: (rep, weight)."""
    trips = list(itertools.combinations(range(7), 3))
    # a triple goes in as the row 1 - indicator, in base 2: its members
    # are the 0 digits, so the smallest key is the lexicographically
    # smallest sorted triple of its orbit
    rows = np.ones((len(trips), 7), np.int64)
    rows[np.arange(len(trips))[:, None], trips] = 0
    reps, weights = _orbit_reps(rows, 2)
    return tuple((trips[r], int(w)) for r, w in zip(reps, weights))


def _decode_profile(code: int) -> list:
    c1, c2, c3 = code % 8, (code // 8) % 8, code // 64
    return [0] * (7 - c1 - c2 - c3) + [1] * c1 + [2] * c2 + [3] * c3


def _proj21_chunk(args):
    """(weighted functions enumerated, weighted hypothesis functions,
    weighted equidistribution histogram, profiles, counterexamples) for
    one block of first-row representatives; weights count both the
    filling orbit and the orbit of the row triple.

    A function on the support rows is a multiset of points of F_7^2, so
    its packed line words are the sums of its three rows' words; no byte
    exceeds 21, so nothing carries.
    """
    rows, rep_lo, rep_hi = args
    V = _fillings()
    reps, wts = _f1_orbit_reps()
    row_weight = dict(_row_triple_orbits())[rows]
    table = plane_word_table(7, 2)
    words = [V.astype(np.uint64) @ table[7 * r + np.arange(7)] for r in rows]
    has3 = (V == 3).any(axis=1)
    codes = ((V == 1).sum(axis=1)
             + 8 * (V == 2).sum(axis=1)
             + 64 * (V == 3).sum(axis=1))
    vals, ids = np.unique(codes, return_inverse=True)
    onehot = ids[:, None] == np.arange(len(vals))
    enumerated = hyp_weighted = 0
    equi_hist = np.zeros(8, np.int64)
    profiles: set = set()
    cex = []
    for ri in range(rep_lo, rep_hi):
        j1 = int(reps[ri])
        w1 = row_weight * int(wts[ri])
        first = words[0][j1] + words[1]
        high = np.zeros((len(V), len(V)), np.uint64)
        equi = np.zeros((len(V), len(V)), np.uint8)
        # the horizontal direction has bytes {7, 7, 7, 0, 0, 0, 0}: it
        # always meets the bound and is never uniform, so counting all 8
        # directions gives the counts of the 7 others
        for k in range(8):
            s = first[:, k, None] + words[2][None, :, k]
            high |= s + uniform_word(7, 0x78)      # bit 7 set: a sum >= 8
            equi += s == uniform_word(7, 3)
        ok = (high & uniform_word(7, 0x80)) == 0
        if not has3[j1]:
            ok &= has3[:, None] | has3[None, :]
        enumerated += w1 * len(V) ** 2
        hyp_weighted += w1 * int(np.count_nonzero(ok))
        equi_hist += w1 * np.bincount(equi[ok], minlength=8)
        for j2, j3 in np.argwhere(ok & (equi > 2)):
            cex.append({
                "rows": [int(r) for r in rows],
                "values": [V[j1].tolist(), V[j2].tolist(), V[j3].tolist()],
            })
        seen = onehot.T @ ok @ onehot              # code pairs, as bools
        profiles |= {tuple(sorted((int(codes[j1]), int(vals[a]),
                                   int(vals[b]))))
                     for a, b in np.argwhere(seen)}
    return enumerated, hyp_weighted, equi_hist, profiles, cex


def verify_proj21(workers: int = 1) -> LemmaReport:
    """Functions F_7^2 -> {0..3} supported on three parallel lines with
    support-line sums exactly 7, every line sum at most 7, and some
    value 3, are equidistributed on at most two direction families.

    Support lines are taken horizontal (the affine group is transitive
    on direction families); row triples run over orbit representatives
    of the affine line action, and the first support row over filling
    orbits under the simultaneous column maps x -> a x + c.
    """
    t0 = perf_counter()
    V = _fillings()
    reps, _ = _f1_orbit_reps()
    orbits = _row_triple_orbits()
    plane_word_table(7, 2)          # built once, before the workers fork
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
        cex,
        details,
        round(perf_counter() - t0, 3),
        workers)


# ---------------------------------------------------------------------------
# Plane concentration at p = 3: six-point sets equidistributed along two
# directions of a common plane lie in two parallel planes.

def _zero_bits(p: int, words: np.ndarray, size: int) -> np.ndarray:
    """(rows,) <u2 keys of the packed plane words of size-sets: bit k is
    set when the set has size / p points on each plane of direction k,
    that is when its Fourier transform vanishes along direction k.
    Every swept space has at most 16 directions."""
    zero = np.packbits(words == uniform_word(p, size // p), axis=-1,
                       bitorder="little")
    bits = np.zeros((len(words), 2), dtype=np.uint8)
    bits[:, :zero.shape[1]] = zero
    return bits.view("<u2")[:, 0]


@lru_cache(maxsize=None)
def _slab_hypotheses() -> np.ndarray:
    """(2^13,) bool, read-only: slab-p3's hypothesis for each _zero_bits
    key, two zero directions orthogonal to one direction, that is two
    zero directions of one plane."""
    keys = np.arange(1 << 13, dtype=np.uint16)[:, None]
    orth = orthogonal_direction_bits(3, 3).astype(np.uint16)
    return read_only((np.bitwise_count(keys & orth) >= 2).any(axis=-1))


def _slab_chunk(args):
    """(rows, hypothesis rows, counterexamples) of rows [lo, hi) of the
    six-sets of F_3^3 through 0 (_origin_sets), WORD_BLOCK rows at a
    time."""
    lo, hi = args
    sets = _origin_sets(3, 3, 6)

    def block(a, b):
        words = subset_words(3, 3, *sets, a, b)
        hyp = _slab_hypotheses()[_zero_bits(3, words, 6)]
        # inside two parallel planes: some plane count is 0
        concl = (bytes_at_least(3, words, 1) < 3).any(axis=-1)
        bad = a + np.flatnonzero(hyp & ~concl)
        rows = subset_rows(3, 3, *sets, bad).tolist() if len(bad) else []
        return len(words), int(hyp.sum()), [{"set": r} for r in rows]

    return tuple(_fold_all(block(lo + a, lo + b)
                           for a, b in _blocks(hi - lo, WORD_BLOCK)))


def verify_slab_p3(workers: int = 1) -> LemmaReport:
    """Six-point subsets of F_3^3 equidistributed along at least two
    directions of one plane are contained in two parallel planes.
    Both predicates are translation invariant, so the sweep reads the
    sets through the origin (_origin_sweep): row ranges of 0 plus each
    5-subset of the other 26 points (_origin_sets, tables.subset_words).
    The sweep is one chunk, run in the calling process at any worker
    count; it reads the hypothesis of each row off a table of its zero
    directions (_slab_hypotheses)."""
    t0 = perf_counter()
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
        _coord_cex(3, 3, cex), details, round(perf_counter() - t0, 3), workers)


# ---------------------------------------------------------------------------
# Small-space spectral-versus-tile sweeps.

_BUDGET = 10 ** 9


def _found(verdict: str) -> bool:
    """A sweep's search verdict as witness or not; an aborted search
    means the sweep decided nothing."""
    if verdict == "aborted":
        raise SweepBudgetError("budget exhausted during exhaustive sweep")
    return verdict == "witness"


def _pointset(spc: Space, row) -> PointSet:
    return PointSet(spc, sum(1 << int(i) for i in row))


def _zero_keys(p: int, d: int, size: int) -> np.ndarray:
    """The zero-direction key (_zero_bits) of each set of
    _origin_sets(p, d, size), in row order, WORD_BLOCK rows at a time."""
    anchor, points, r = _origin_sets(p, d, size)
    keys = np.empty(math.comb(len(points), r), dtype=np.uint16)
    for lo, hi in _blocks(len(keys), WORD_BLOCK):
        keys[lo:hi] = _zero_bits(
            p, subset_words(p, d, anchor, points, r, lo, hi), size)
    return keys


def _search_keys(spc: Space, size: int, keys, counts) -> tuple:
    """(searched sets, nodes, {key: spectrum}) of distinct zero-direction
    keys (bit k: direction k), each with its number of sets, at a size a
    spectral set may have.

    The clique stage is a function of (zero set, size, budget) alone, so
    it runs once per key, and its nodes count once per set.  It needs
    |E| - 1 points in the zero set, and each zero direction holds p - 1
    of them, so a key with fewer is answered none without a search.
    """
    dmasks = direction_masks(spc.p, spc.d)
    searched = nodes = 0
    spectra = {}
    for key, count in zip(keys, counts):
        if (spc.p - 1) * key.bit_count() < size - 1:
            continue
        zmask = sum(m for k, m in enumerate(dmasks) if key >> k & 1)
        verdict, spectrum, n = _clique_in_zero_set(spc, zmask, size, _BUDGET)
        searched += count
        nodes += n * count
        if _found(verdict):
            spectra[key] = sorted(spectrum)
    return searched, nodes, spectra


# rows checked per block of _size_chunk: at fuglede-5-2's size 5, with
# 3,426 rows to check, blocks of 512 peaked at 1.4 MB of scratch, and
# all the rows at once at 9.0 MB
_CHECK_BLOCK = 1 << 9


def _size_chunk(args):
    """(sets, nodes, {size: counts}, counterexamples) of the size-sets of
    F_p^d through 0 (_origin_sets), given each row's tiling complement
    (_row_complements), or None where the size cannot tile.

    At a size a spectral set may have, every row is keyed by its zero
    directions (_zero_keys) and each distinct key is searched once
    (_search_keys); every other size is spectral nowhere, the search's
    size filter.  A row tiles when it has a complement.  Every witness
    is checked against its own row, both ways, _CHECK_BLOCK rows at a
    time: the spectrum of a row's key in one _validate_witness_rows call,
    the row's complement in one tiling_pair_rows call each way.
    Counterexamples, the rows with one witness but not the other, come
    in row order, each with its spectrum or None.
    """
    p, d, size, complements = args
    spc = Space(p, d)
    origin = _origin_sets(p, d, size)
    n = math.comb(len(origin[1]), origin[2])
    searched, nodes, found = n, 0, {}         # found: {row: spectrum}
    if size in allowed_spectral_sizes(spc):
        keys = _zero_keys(p, d, size)
        uniq, counts = np.unique(keys, return_counts=True)
        searched, nodes, spectra = _search_keys(spc, size, uniq.tolist(),
                                                counts.tolist())
        hit = np.flatnonzero(np.isin(keys, list(spectra)))
        found = dict(zip(hit.tolist(), map(spectra.get, keys[hit].tolist())))
    spectral = np.zeros(n, dtype=bool)
    spectral[list(found)] = True
    tiles = (np.zeros(n, dtype=bool) if complements is None
             else complements[:, 0] >= 0)

    def block(pos):
        E = subset_rows(p, d, *origin, pos)
        s, t = spectral[pos], tiles[pos]
        if s.any():
            _validate_witness_rows(p, d, E[s],
                                   [found[i] for i in pos[s].tolist()])
        if t.any():
            A = complements[pos[t]]
            ok = (tiling_pair_rows(p, d, E[t], A)
                  & tiling_pair_rows(p, d, A, E[t]))
            if not ok.all():
                raise InternalCheckError(
                    "class tiling complement fails on member set "
                    f"{E[t][int(np.argmin(ok))].tolist()}")
        return [{"set": E[k].tolist(),
                 "spectral": "witness" if s[k] else "none",
                 "tile": "witness" if t[k] else "none",
                 "spectrum": found.get(int(pos[k]))}
                for k in np.flatnonzero(s != t).tolist()]

    checked = np.flatnonzero(spectral | tiles)
    cex = [c for lo, hi in _blocks(len(checked), _CHECK_BLOCK)
           for c in block(checked[lo:hi])]
    return n, nodes, {str(size): {
        "anchored": n, "searched": searched,
        "spectral": int(spectral.sum()), "tiles": int(tiles.sum())}}, cex


# maps per _cycle_type_counts block: a few hundred kB of scratch at p = 7
_MAP_BLOCK = 1 << 10


def _affine_orbits(p: int, size: int) -> tuple:
    """(representatives, orbit, map) of the rows of _through_origin(p^2,
    size) under the affine maps of F_p^2: the first row of each orbit,
    and per row its orbit's position and a linear map x -> Mx, a row of
    affine_permutation_array(p, 2)[::p^2], with R = M(rep) - e for some
    point e of M(rep).

    The sets through 0 of the affine class of a row are the sets ME - e,
    e in ME, so one pass finds every orbit.  Every row is keyed by its
    bitmask once.  The first row with no orbit yet is mapped by every M,
    each image is translated by each of its own points, and every row
    hit joins the orbit, with the first map that hits it.
    """
    rows = _through_origin(p * p, size)
    keys = (np.int64(1) << rows).sum(axis=1)
    order = np.argsort(keys)
    keys = keys[order]
    linear = affine_permutation_array(p, 2)[::p * p]
    orbit = np.full(len(rows), -1)
    maps = np.zeros(len(rows), dtype=np.intp)
    reps = []
    while (free := orbit < 0).any():
        r = int(free.argmax())
        images = linear[:, rows[r]]
        # [m, j, i]: point i minus point j of image m; the keys of the
        # translates come map by map, size of them per map
        moved = difference(p, 2, images[:, None, :], images[:, :, None])
        hits = (np.int64(1) << moved).sum(axis=2).ravel()
        at = np.searchsorted(keys, hits).clip(max=len(keys) - 1)
        if (keys[at] != hits).any():
            raise InternalCheckError(f"row {r} of {size}-sets maps outside "
                                     "the rows")
        hit, first = np.unique(order[at], return_index=True)
        if (orbit[hit] >= 0).any():
            raise InternalCheckError(f"row {r} of {size}-sets maps into "
                                     "another orbit")
        orbit[hit], maps[hit] = len(reps), first // size
        reps.append(r)
    return reps, orbit, maps


def _row_complements(p: int, size: int) -> np.ndarray:
    """(rows, p^2 / size) int16: the tiling complement of each row of
    _through_origin(p^2, size), as sorted point indices, or -1 where the
    row does not tile; one tiling search per affine orbit, for a size
    that can tile.

    Tiling commutes with invertible linear maps and with translations:
    if R + A = F_p^2 exactly, so does (MR - e) + MA.  The orbits
    (_affine_orbits) must number affine_class_counts.  One
    tiling_search_rows call searches each orbit's representative R, and
    a row that M reaches from R gets MA.  Complements leave here
    unchecked; _size_chunk checks each row against its own, both ways.
    """
    reps, orbit, maps = _affine_orbits(p, size)
    want = affine_class_counts(p, 2, (size,))[size]
    if len(reps) != want:
        raise InternalCheckError(f"found {len(reps)} affine orbits of "
                                 f"{size}-sets, expected {want}")
    rows = _through_origin(p * p, size)
    linear = affine_permutation_array(p, 2)[::p * p]
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
    per coset t + Im(M - I), its least point t, weighted by |Im(M - I)|.
    A block of the walked maps acts as one permutation of maps x p^d
    points.  Pointer doubling finds each point's least orbit point:
    after r rounds low[x] = min(x, g x, ..., g^(2^r - 1) x), and
    2^r >= p^d covers every cycle.  Cycle lengths are then the sizes of
    the classes of low, counted at the cycles' least points.
    """
    perms = affine_permutation_array(p, d)
    n = perms.shape[1]
    image = difference(p, d, perms[::n], np.arange(n))      # (M - I)x
    walked, weights = [], []
    for lo, hi in _blocks(len(image), max(1, _MAP_BLOCK // n)):
        # [m, t, s]: t + (M - I)s; t is a coset's least point if no less
        cosets = add_table(p, d)[np.arange(n)[:, None], image[lo:hi, None, :]]
        least = cosets.min(axis=2) == np.arange(n)
        m, t = np.nonzero(least)
        walked.append((lo + m) * n + t)
        weights.append(n // least.sum(axis=1)[m])
    walked, weights = np.concatenate(walked), np.concatenate(weights)
    offsets = n * np.arange(_MAP_BLOCK, dtype=np.int32)[:, None]
    # [map, l]: cycles of length l, at most p^d of them
    per_map = np.empty((len(walked), n + 1), dtype=np.int8)
    for lo, hi in _blocks(len(walked), _MAP_BLOCK):
        step = (perms[walked[lo:hi]] + offsets[:hi - lo]).ravel()
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


def affine_class_counts(p: int, d: int, sizes: tuple) -> dict:
    """Number of affine equivalence classes of s-subsets of F_p^d, via
    the cycle index of the affine permutation action (d <= 2)."""
    types = _cycle_type_counts(p, d)
    order = sum(mult for _, mult in types)
    out = {}
    for s in sizes:
        total = 0
        for ctype, mult in types:
            poly = np.zeros(s + 1, np.int64)
            poly[0] = 1
            for ln in ctype:
                f = np.zeros(min(ln, s) + 1, np.int64)
                f[0] = 1
                if ln <= s:
                    f[ln] = 1
                poly = np.convolve(poly, f)[:s + 1]
            total += mult * int(poly[s])
        if total % order:
            raise InternalCheckError("orbit count not integral")
        out[s] = total // order
    return out


def translation_class_counts(p: int, d: int, sizes: tuple) -> dict:
    """Number of translation classes of s-subsets of F_p^d."""
    n = p ** d
    out = {}
    for s in sizes:
        total = math.comb(n, s)
        if s % p == 0:
            # nonzero translations have n/p cycles of length p
            total += (n - 1) * math.comb(n // p, s // p)
        if total % n:
            raise InternalCheckError("orbit count not integral")
        out[s] = total // n
    return out


def verify_fuglede_small(p: int, d: int, sizes, workers: int = 1) -> LemmaReport:
    """Spectral-versus-tile sweeps over small spaces.

    (3,2) and (5,2): every subset of the given sizes, both predicates,
    assert the equivalence.  (3,3): size 6 only, which cannot tile, so
    assert no spectra exist.  Both predicates are translation invariant,
    so the sweep reads the subsets through the origin, one chunk per size
    (_size_chunk).  The chunk keys every set of its size by its zero
    directions and runs the clique stage once per distinct key, over the
    whole size, and it checks each set against its own tiling complement.
    The calling process finds those complements (_row_complements): one
    pass groups the sets through the origin into affine orbits, whose
    number must match affine_class_counts, and one batched tiling search
    runs over the orbits' first sets; a set's complement is its orbit's
    mapped by a linear map.  Every witness is then checked against its
    own set, both ways, in blocks of rows.  Reports count per set, as a
    per-set search would.  A size that both size filters reject builds
    no set: the calling process counts its sets as searched once and
    rejected, so such a size is no chunk.

    (3,3) reports every count as over all six-sets (_per_set) and a
    spectral set with all its translates, each verified against its own
    set; (3,2) reports every count as over all subsets and a
    counterexample with all its translates; (5,2) reports the sets
    through the origin, its translation-anchored representatives.
    Raises SweepBudgetError if a search runs out of budget.
    """
    t0 = perf_counter()
    p, d = operator.index(p), operator.index(d)
    sizes = tuple(sorted(map(operator.index, sizes)))
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes repeat: {list(sizes)}")
    if (p, d) not in ((3, 3), (3, 2), (5, 2)):
        raise ValueError(f"unsupported sweep ({p}, {d})")
    if (p, d) == (3, 3) and sizes != (6,):
        raise ValueError("F_3^3 sweep supports size 6 only")
    spc = Space(p, d)
    n = spc.order
    if not sizes or not all(1 <= s <= n for s in sizes):
        raise ValueError(f"F_{p}^{d} sweep needs sizes within 1..{n}")
    searched = [s for s in sizes
                if s in allowed_spectral_sizes(spc) or size_can_tile(spc, s)]
    anchored = {s: math.comb(n - 1, s - 1) for s in sizes}
    nodes, per_size, cex = 0, {}, []
    if searched:
        plane_word_table(p, d), direction_masks(p, d)
        chunks = [(p, d, s, _row_complements(p, s)
                   if size_can_tile(spc, s) else None) for s in searched]
        _, nodes, per_size, cex = _sweep(_size_chunk, chunks, workers,
                                         sum(anchored[s] for s in searched))
    per_size.update((str(s), {"anchored": anchored[s], "searched": anchored[s],
                              "spectral": 0, "tiles": 0})
                    for s in sizes if s not in searched)

    if d == 3:
        # translation invariant: counted over the sets through the origin
        total, searched, nodes = (
            _per_set(c, n, 6)
            for c in (per_size["6"]["anchored"], per_size["6"]["searched"],
                      nodes))
        wits = _translates(3, 3, [{"set": c["set"], "spectrum": c["spectrum"]}
                                  for c in cex])
        if wits:
            _validate_witness_rows(3, 3, [w["set"] for w in wits],
                                   [w["spectrum"] for w in wits])
        details = {
            "sizes": {"6": {
                "sets": total,
                "immediate_none": total - searched,
                "searched": searched,
                "spectral": len(wits),
                "nodes": nodes,
            }},
            "pruning": "off",
        }
        return LemmaReport(
            "fuglede-3-3", "6-point subsets of F_3^3", total, "none", total,
            _coord_cex(3, 3, wits), details, round(perf_counter() - t0, 3),
            workers)

    cex = [{k: c[k] for k in ("set", "spectral", "tile")} for c in cex]
    if p == 3:
        # translation invariant: counted over the sets through the origin
        per_size = {k: {"sets": _per_set(c["anchored"], 9, int(k)),
                        "spectral": _per_set(c["spectral"], 9, int(k)),
                        "tiles": _per_set(c["tiles"], 9, int(k))}
                    for k, c in per_size.items()}
        card = sum(math.comb(9, s) for s in sizes)
        details = {"sizes": per_size, "pruning": "off"}
        return LemmaReport(
            "fuglede-3-2",
            f"subsets of F_3^2 of sizes {list(sizes)}",
            card, "none", card, _coord_cex(3, 2, _translates(3, 2, cex)),
            details, round(perf_counter() - t0, 3), workers)

    details = {
        "sizes": per_size,
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
        sum(anchored.values()),
        _coord_cex(5, 2, cex), details,
        round(perf_counter() - t0, 3), workers)


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
    p, d, size, child_seed, count = args
    spc = Space(p, d)
    outcomes = {"witness": 0, "none": 0, "aborted": 0}
    if size not in allowed_spectral_sizes(spc):
        # the search's size filter rejects every trial before any rule
        outcomes["none"] = count
        return count, outcomes, {"size_filtered": count}, []
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
        cert = spectrum_search(_pointset(spc, row))
        outcomes[cert.verdict] += 1
        if cert.verdict == "witness":
            wits.append({
                "set": [int(i) for i in row],
                "spectrum": cert.witness.indices(),
            })
    return count, outcomes, pruned, wits


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
    t0 = perf_counter()
    size, trials = operator.index(size), operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    if size % p != 0 or not 2 <= size // p <= p - 1:
        raise ValueError(f"size must be mp with 2 <= m <= p-1, got {size}")
    spc = Space(p, d)
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
        trials, _coord_cex(p, d, wits), details,
        round(perf_counter() - t0, 3), workers, seed=seed)
