"""Exhaustive and randomized verifiers for the combinatorial statements
behind the spectral-set analysis, each producing a LemmaReport.

Every verifier runs through one driver, _sweep.  Its contract:

- the enumeration is split into a fixed chunk list that does not depend
  on the worker count (_blocks cuts a range into [lo, hi) pieces);
- each chunk returns a tuple, and the tuples are folded field by field
  in chunk order: numbers and arrays add, lists concatenate, sets unite
  and dicts merge key by key, so keys with a zero count stay in place;
- chunks that share a key may run as one task, which returns one tuple
  per chunk (lm1 and lm2 direct); the fold is still in chunk order;
- field 0 counts the sets the chunk enumerated, and a total that differs
  from the expected one raises InternalCheckError (a miscount);
- counterexamples leave the chunks as point-index lists and become
  coordinate rows in one place, _coord_cex.

The deterministic part of a report is therefore identical no matter how
many workers ran it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .fourier import zero_directions
from .parallel import run_chunks
from .sets import PointSet
from .space import Space
from .spectral import (PRUNING_RULES, InternalCheckError,
                       _clique_in_zero_set, _validate_witness_rows,
                       allowed_spectral_sizes, pruning_rule, spectrum_search)
from .tables import (
    add_table,
    affine_permutation_array,
    bytes_at_least,
    combination_array,
    coords_matrix,
    direction_masks,
    direction_orthogonality,
    min_images,
    plane_word_table,
    plane_words,
    uniform_word,
)
from .tiling import size_can_tile, tiling_pair_rows, tiling_search

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


def _sweep(fn, chunks: list, workers: int, expected: int | None = None,
           group=None) -> list:
    """Run fn over the fixed chunk list and fold its result tuples field
    by field in chunk order; field 0 must total expected, if given.

    With group, the chunks that share group(chunk) run as one task: fn
    takes their list, in chunk order, and returns one result per chunk.
    """
    if group is None:
        results = run_chunks(fn, chunks, workers)
    else:
        groups: dict = {}
        for c in chunks:
            groups.setdefault(group(c), []).append(c)
        tasks = list(groups.values())
        done = dict(zip(itertools.chain(*tasks),
                        itertools.chain(*run_chunks(fn, tasks, workers))))
        results = [done[c] for c in chunks]
    total = list(results[0])
    for res in results[1:]:
        total = [_fold(a, b) for a, b in zip(total, res)]
    if expected is not None and total[0] != expected:
        raise InternalCheckError(
            f"{fn.__name__} enumerated {total[0]} sets, expected {expected}")
    return total


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


# rows per _planar_eval call: (4096, 8) words stay in cache
_EVAL_BLOCK = 1 << 12


def _prefix_eval(prefixes: list, tails: np.ndarray, no_k: int) -> list:
    """One _planar_eval result per prefix over the rows prefix + tail,
    with counterexamples as sorted index lists.  The tail words are
    summed once per block of tails; each prefix adds its own word."""
    table = plane_word_table(7, 2)
    lead = [table[list(pre)].sum(axis=0) for pre in prefixes]
    out = [None] * len(prefixes)
    for a, b in _blocks(len(tails), _EVAL_BLOCK):
        tail_words = plane_words(7, 2, tails[a:b])
        for k, pre in enumerate(prefixes):
            *res, viol = _planar_eval(tail_words + lead[k], no_k)
            res.append([{"set": sorted(int(v) for v in (*pre, *tails[a + j]))}
                        for j in viol])
            out[k] = res if out[k] is None else [
                _fold(x, y) for x, y in zip(out[k], res)]
    return out


# direct-mode tails per chunk; stratum selects from the chunk list
_TAIL_BLOCK = 1 << 18


def _direct_chunk_list(size: int) -> list:
    """Chunks (size, i0, i1, lo, hi): the sets [i0, i1] + tail, tail in
    rows [lo, hi) of the (size - 2)-subsets of {i1 + 1 .. 48}."""
    r = size - 2
    return [(size, i0, i1, lo, hi)
            for i0 in range(50 - size) for i1 in range(i0 + 1, 49 - r)
            for lo, hi in _blocks(math.comb(48 - i1, r), _TAIL_BLOCK)]


def _direct_task(chunks: list) -> list:
    """One result per chunk of chunks, which share (size, i1, lo, hi)."""
    size, _, i1, lo, hi = chunks[0]
    r = size - 2
    # the r-subsets of {i1 + 1 .. 48} are the last rows of those of
    # range(49), in the same order
    start = math.comb(49, r) - math.comb(48 - i1, r)
    tails = combination_array(49, r)[start + lo:start + hi]
    return _prefix_eval([(c[1], i1) for c in chunks], tails,
                        3 if size == 5 else 4)


# anchor triangle (0,0), (1,0), (0,1): first nonzero noncollinear triple
_ANCHOR = (0, 1, 7)


def _anchored_chunk(tail_size: int):
    rest = np.array([i for i in range(49) if i not in _ANCHOR], np.intp)
    tails = rest[combination_array(46, tail_size)]
    return _prefix_eval([_ANCHOR], tails, 3 if tail_size == 2 else 4)[0]


def _planar_report(lemma_id, set_size, mode, workers, stratum=None):
    t0 = perf_counter()
    plane_word_table(7, 2)          # built once, before a pool forks
    card = math.comb(49, set_size)
    desc = f"{set_size}-point subsets of F_7^2"
    extra = {}
    if mode == "reduced":
        tail_size = set_size - 3
        n, hyp, hist, triples, cex = _sweep(
            _anchored_chunk, [tail_size], workers, math.comb(46, tail_size))
        extra["anchor"] = _coord_rows(7, 2, _ANCHOR)
        # |AGL(2,7)| = 49 * 48 * 42
        group = "AGL(2,7), order 98784, anchored triangle"
    elif mode == "direct":
        chunks = _direct_chunk_list(set_size)
        if stratum is not None:
            k, m = stratum
            chunks = chunks[k::m]
            if not chunks:
                raise ValueError(f"stratum {k} mod {m} selects no chunk")
            extra["stratum"] = [int(k), int(m)]
            desc += f", chunk stratum {k} mod {m}"
        n, hyp, hist, triples, cex = _sweep(
            _direct_task, chunks, workers,
            card if stratum is None else None, group=lambda c: (c[0], *c[2:]))
        card = card if stratum is None else n
        group = "none"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    histogram = {str(k): int(hist[k]) for k in range(9) if hist[k]}
    details = {"mode": mode, "enumerated_sets": n, "hypothesis_sets": hyp,
               "collinear_triples": triples,
               "direction_histogram": histogram, **extra}
    return LemmaReport(
        lemma_id, desc, card, group, n, _coord_cex(7, 2, cex), details,
        round(perf_counter() - t0, 3), workers)


def verify_lm1(workers: int = 1, mode: str = "direct") -> LemmaReport:
    """Every 5-point subset of F_7^2 with no 3 collinear points
    determines at least 6 directions."""
    return _planar_report("lm1", 5, mode, workers)


def verify_lm2(workers: int = 1, mode: str = "reduced",
               stratum: tuple | None = None) -> LemmaReport:
    """Every 7-point subset of F_7^2 with no 4 collinear points
    determines at least 6 directions.

    mode "reduced" anchors a noncollinear triple at
    {(0,0),(1,0),(0,1)}: the affine group is sharply transitive on
    ordered triangles, and every no-4-collinear set contains a
    noncollinear triple, so the anchored supersets cover every
    hypothesis set up to affine equivalence.  mode "direct" enumerates
    all C(49,7) subsets; stratum=(k, m) restricts it to every m-th
    chunk of the fixed partition, for spot agreement checks.
    """
    if stratum is not None:
        if mode != "direct":
            raise ValueError("stratum applies to direct mode only")
        k, m = stratum
        if not 0 <= k < m:
            raise ValueError("stratum must be (k, m) with 0 <= k < m")
    return _planar_report("lm2", 7, mode, workers, stratum)


# ---------------------------------------------------------------------------
# Projection lemma: functions F_7^2 -> {0..3} on three parallel support
# lines with line sums 7, all line sums <= 7 and a value 3 equidistribute
# on at most two direction families.

@lru_cache(maxsize=None)
def _fillings() -> np.ndarray:
    """All rows v in {0..3}^7 with sum 7, lexicographic."""
    rows = [v for v in itertools.product(range(4), repeat=7) if sum(v) == 7]
    return np.array(rows, np.int8)


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
    return _orbit_reps(_fillings(), 4)


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
    """(raw pairs, weighted functions, weighted equidistribution
    histogram, profiles, counterexamples) for one block of first-row
    representatives; weights count both the filling orbit and the orbit
    of the row triple.

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
    hyp_raw = 0
    hyp_weighted = 0
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
        n_ok = int(np.count_nonzero(ok))
        hyp_raw += n_ok
        hyp_weighted += w1 * n_ok
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
    return hyp_raw, hyp_weighted, equi_hist, profiles, cex


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
    plane_word_table(7, 2)          # built once, before a pool forks
    chunks = [(rep, lo, hi) for rep, _ in orbits
              for lo, hi in _blocks(len(reps), 8)]
    _, hyp_weighted, equi_hist, profiles, cex = _sweep(
        _proj21_chunk, chunks, workers)
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
    card = 35 * len(V) ** 3
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

_SLAB_BLOCK = 1 << 15


def _slab_chunk(args):
    lo, hi = args
    combs = combination_array(27, 6)[lo:hi]
    words = plane_words(3, 3, combs)                   # (rows, 13)
    # equidistributed along a direction: two points on each of its planes
    zero = words == uniform_word(3, 2)
    orth = direction_orthogonality(3, 3).astype(np.int8)
    per_plane = zero @ orth                            # orth is symmetric
    hyp = (per_plane >= 2).any(axis=-1)
    # inside two parallel planes: some plane count is 0
    concl = (bytes_at_least(3, words, 1) < 3).any(axis=-1)
    viol = hyp & ~concl
    return hi - lo, int(hyp.sum()), [{"set": r.tolist()} for r in combs[viol]]


def verify_slab_p3(workers: int = 1) -> LemmaReport:
    """Six-point subsets of F_3^3 equidistributed along at least two
    directions of one plane are contained in two parallel planes."""
    t0 = perf_counter()
    card = math.comb(27, 6)
    combination_array(27, 6)
    plane_word_table(3, 3), direction_orthogonality(3, 3)
    total, hyp, cex = _sweep(
        _slab_chunk, list(_blocks(card, _SLAB_BLOCK)), workers, card)
    details = {
        "enumerated_sets": total,
        "hypothesis_sets": hyp,
        "planes": 13,
        "zero_directions_required": 2,
        "parallel_planes_allowed": 2,
    }
    return LemmaReport(
        "slab-p3", "6-point subsets of F_3^3", card, "none", card,
        _coord_cex(3, 3, cex), details, round(perf_counter() - t0, 3), workers)


# ---------------------------------------------------------------------------
# Small-space spectral-versus-tile sweeps.

def _immediate_none(spc: Space, rows: np.ndarray) -> tuple:
    """(n_dirs, n_rows) zero directions of every index row, and the rows
    whose spectrum search answers none without searching.

    At a size a spectral set may have, the clique stage needs |E| - 1
    points in the zero set, and each zero direction holds p - 1 of them.
    Other sizes are left to the search's own size filter.
    """
    zero = zero_directions(spc.p, spc.d, rows)
    size = rows.shape[1]
    few = (spc.p - 1) * zero.sum(axis=0) < size - 1
    return zero, few & (size in allowed_spectral_sizes(spc))


_BUDGET = 10 ** 9


def _found(verdict: str) -> bool:
    """A sweep's search verdict as witness or not; an aborted search
    means the sweep decided nothing."""
    if verdict == "aborted":
        raise SweepBudgetError("budget exhausted during exhaustive sweep")
    return verdict == "witness"


def _pointset(spc: Space, row) -> PointSet:
    return PointSet(spc, sum(1 << int(i) for i in row))


def _groups(keys: np.ndarray) -> tuple:
    """(first row, members) of each distinct key, in key order."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    members = np.split(np.argsort(inverse.ravel(), kind="stable"),
                       np.cumsum(np.bincount(inverse.ravel()))[:-1])
    return first, members


def _spectra_by_zero_set(spc: Space, rows: np.ndarray,
                         zero: np.ndarray) -> tuple:
    """Spectral verdicts of index rows of one allowed size, from their
    zero directions (n_dirs, n_rows).

    The clique stage is a function of (zero set, size, budget) alone, so
    it runs once per distinct zero set, and each row of the group counts
    its nodes.  A group's spectrum is still checked against every row of
    the group, both ways: one _validate_witness_rows call takes all the
    rows of the chunk that have one.
    Returns (nodes, {row position: spectrum indices}) in row order.
    """
    dmasks = direction_masks(spc.p, spc.d)
    keys = (np.int64(1) << np.arange(len(zero), dtype=np.int64)) @ zero
    nodes = 0
    spectra = {}
    for col, members in zip(*_groups(keys)):
        zmask = sum(itertools.compress(dmasks, zero[:, col]))
        verdict, spectrum, n = _clique_in_zero_set(spc, zmask, rows.shape[1],
                                                   _BUDGET)
        nodes += n * len(members)
        if _found(verdict):
            spectra.update(dict.fromkeys(members.tolist(), sorted(spectrum)))
    spectra = dict(sorted(spectra.items()))
    if spectra:
        _validate_witness_rows(spc.p, spc.d, rows[list(spectra)],
                               list(spectra.values()))
    return nodes, spectra


# bounded like the clique stage; F_5^2 has 2,130 classes of 5-sets
@lru_cache(maxsize=4096)
def _class_tiling(spc: Space, rep: tuple):
    """tiling_search on the representative of one translation class."""
    return tiling_search(_pointset(spc, rep))


def _tiles_by_class(spc: Space, rows: np.ndarray) -> np.ndarray:
    """Tiling verdict of every index row, searched once per translation
    class.

    A complement A of the class representative R = E + t tiles with E
    too, since E + A = R + A - t.  Every member E is still checked as
    an exact tiling pair with A, both ways, before it counts as a tile:
    one tiling_pair_rows call each way takes all the members of the
    chunk's tiling classes.
    """
    reps = min_images(add_table(spc.p, spc.d), rows)
    members, complements = [], []
    for first, group in zip(*_groups(reps)):
        cert = _class_tiling(spc, tuple(reps[first].tolist()))
        if _found(cert.verdict):
            members.extend(group.tolist())
            complements.extend([cert.witness.indices()] * len(group))
    tiles = np.zeros(len(rows), dtype=bool)
    if members:
        E = rows[members]
        ok = (tiling_pair_rows(spc.p, spc.d, E, complements)
              & tiling_pair_rows(spc.p, spc.d, complements, E))
        if not ok.all():
            raise InternalCheckError(
                "class tiling complement fails on member set "
                f"{E[int(np.argmin(ok))].tolist()}")
        tiles[members] = True
    return tiles


def _fug33_chunk(args):
    lo, hi = args
    spc = Space(3, 3)
    combs = combination_array(27, 6)[lo:hi]
    zero, none = _immediate_none(spc, combs)
    keep = np.flatnonzero(~none)
    nodes, spectra = _spectra_by_zero_set(spc, combs[keep], zero[:, keep])
    wits = [{"set": combs[keep[i]].tolist(), "spectrum": spectrum}
            for i, spectrum in spectra.items()]
    return hi - lo, len(keep), nodes, wits


def _spectral_vs_tile(spc: Space, rows: np.ndarray) -> tuple:
    """Both verdicts for every index row; rows that _immediate_none
    flags skip the spectral search.

    At an allowed size the spectral side is the clique stage, once per
    distinct zero set (_spectra_by_zero_set); every other size is
    spectral nowhere, the search's size filter.  The tiling side
    searches once per translation class (_tiles_by_class).  Every
    witness is verified against its own set, both ways, in one batched
    call per side.
    Returns ({"searched", "spectral", "tiles"} counts, counterexamples).
    """
    zero, skip_spectral = _immediate_none(spc, rows)
    searched = np.flatnonzero(~skip_spectral)
    spectral = np.zeros(len(rows), dtype=bool)
    if rows.shape[1] in allowed_spectral_sizes(spc):
        _, spectra = _spectra_by_zero_set(spc, rows[searched],
                                          zero[:, searched])
        spectral[searched[list(spectra)]] = True
    tiles = _tiles_by_class(spc, rows)
    cex = [{"set": [int(i) for i in rows[k]],
            "spectral": "witness" if spectral[k] else "none",
            "tile": "witness" if tiles[k] else "none"}
           for k in np.flatnonzero(spectral != tiles)]
    return {"searched": len(searched), "spectral": int(spectral.sum()),
            "tiles": int(tiles.sum())}, cex


def _fug32_chunk(size: int):
    rows = combination_array(9, size)
    counts, cex = _spectral_vs_tile(Space(3, 2), rows)
    del counts["searched"]
    return len(rows), {str(size): {"sets": len(rows), **counts}}, cex


# size 5, C(24, 4) = 10,626 anchored sets, is nearly all the work: it
# splits into six chunks, so two workers both get a share
_FUG52_BLOCK = 1 << 11


def _fug52_both_filtered(size: int) -> bool:
    """Both searches reject every set of this size in F_5^2 at once."""
    spc = Space(5, 2)
    return (size not in allowed_spectral_sizes(spc)
            and not size_can_tile(spc, size))


def _fug52_chunk(args):
    size, lo, hi = args
    if _fug52_both_filtered(size):
        # the counts of the per-set loop: each set is searched once,
        # and both searches reject it by size
        return hi - lo, {str(size): {"anchored": hi - lo, "searched": hi - lo,
                                     "spectral": 0, "tiles": 0}}, []
    tails = combination_array(24, size - 1)[lo:hi].astype(np.int16) + 1
    rows = np.hstack([np.zeros((tails.shape[0], 1), np.int16), tails])
    counts, cex = _spectral_vs_tile(Space(5, 2), rows)
    return hi - lo, {str(size): {"anchored": hi - lo, **counts}}, cex


@lru_cache(maxsize=None)
def _cycle_type_counts(p: int, d: int) -> tuple:
    """How many affine permutations have each cycle type (the sorted
    cycle lengths), as (cycle type, count) pairs; a tuple, so the cached
    value cannot be changed by a caller.

    All the permutations act as one permutation of maps x p^d points.
    Pointer doubling finds each point's least orbit point: after r
    rounds low[x] = min(x, g x, ..., g^(2^r - 1) x), and 2^r >= p^d
    covers every cycle.  Cycle lengths are then the sizes of the classes
    of low, counted at the cycles' least points.
    """
    perms = affine_permutation_array(p, d)
    maps, n = perms.shape
    step = (perms + n * np.arange(maps, dtype=np.int32)[:, None]).ravel()
    low = np.arange(maps * n, dtype=np.int32)
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low.take(step))
        step = step.take(step)
    size = np.bincount(low, minlength=maps * n)
    least = np.flatnonzero(size)
    # [map, l]: cycles of length l, at most p^d of them
    per_map = np.bincount(least // n * (n + 1) + size[least],
                          minlength=maps * (n + 1)).astype(np.int8)
    types, mult = np.unique(per_map.view(np.dtype((np.void, n + 1))),
                            return_counts=True)
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

    (3,2): every subset of the given sizes, both predicates, assert the
    equivalence.  (5,2): translation-anchored representatives (subsets
    containing the origin), covering every set up to translation; both
    predicates are translation invariant.  (3,3): size 6 only, assert no
    spectra exist.

    Each chunk runs the spectral clique stage once per distinct zero set
    and, in (3,2) and (5,2), the tiling search once per translation class
    (memoized per process), then verifies every witness against its own
    set, both ways.  Reports count per set, as a per-set search would.
    Raises SweepBudgetError if a search runs out of budget.
    """
    t0 = perf_counter()
    sizes = tuple(sorted(int(s) for s in sizes))
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes repeat: {list(sizes)}")
    key = (p, d)
    if key == (3, 3):
        if sizes != (6,):
            raise ValueError("F_3^3 sweep supports size 6 only")
        card = math.comb(27, 6)
        combination_array(27, 6)
        plane_word_table(3, 3), direction_masks(3, 3)
        total, searched, nodes, wits = _sweep(
            _fug33_chunk, list(_blocks(card, _SLAB_BLOCK)), workers, card)
        cex = _coord_cex(3, 3, wits)
        details = {
            "sizes": {"6": {
                "sets": total,
                "immediate_none": total - searched,
                "searched": searched,
                "spectral": len(cex),
                "nodes": nodes,
            }},
            "pruning": "off",
        }
        return LemmaReport(
            "fuglede-3-3", "6-point subsets of F_3^3", card, "none", card,
            cex, details, round(perf_counter() - t0, 3), workers)

    if key == (3, 2):
        if not sizes or not all(1 <= s <= 9 for s in sizes):
            raise ValueError("F_3^2 sweep needs sizes within 1..9")
        card = sum(math.comb(9, s) for s in sizes)
        _, per_size, cex = _sweep(_fug32_chunk, list(sizes), workers, card)
        details = {"sizes": per_size, "pruning": "off"}
        return LemmaReport(
            "fuglede-3-2",
            f"subsets of F_3^2 of sizes {list(sizes)}",
            card, "none", card, _coord_cex(3, 2, cex), details,
            round(perf_counter() - t0, 3), workers)

    if key == (5, 2):
        if not sizes or not all(1 <= s <= 25 for s in sizes):
            raise ValueError("F_5^2 sweep needs sizes within 1..25")
        chunks = []
        for s in sizes:
            total = math.comb(24, s - 1)
            if _fug52_both_filtered(s):
                # no set of this size is built, so it is one chunk
                chunks.append((s, 0, total))
            else:
                combination_array(24, s - 1)
                chunks += [(s, lo, hi)
                           for lo, hi in _blocks(total, _FUG52_BLOCK)]
        plane_word_table(5, 2), direction_masks(5, 2)
        anchored, per_size, cex = _sweep(
            _fug52_chunk, chunks, workers,
            sum(math.comb(24, s - 1) for s in sizes))
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
            anchored, _coord_cex(5, 2, cex), details,
            round(perf_counter() - t0, 3), workers)

    raise ValueError(f"unsupported sweep ({p}, {d})")


# ---------------------------------------------------------------------------
# Randomized falsification.

_FALSIFY_CHUNK = 2000
# rows whose pruning rules are decided in one call; the packed plane
# counts of a block are gathered as (size, rows, n_dirs) 8-byte words,
# 0.9 MiB at 96 rows in falsify 7/3/21, so larger blocks raise peak
# memory (max RSS +0.4 MiB at 128 rows) and save no time
_PRUNE_BLOCK = 96


def _choice_rows(child_seed, n: int, size: int, count: int):
    """Rows equal, once sorted, to `count` rng.choice(n, size, False) on
    Generator(PCG64(child_seed)), read off the raw words at once; None if
    a draw is rejected.  For n <= 10,000 choice draws in [0, j] for j =
    n - size .. n - 1 (Floyd: j if drawn before), then shuffles with
    draws in [0, i], i = size - 1 .. 1.  A draw below b takes the next
    32-bit word w (PCG64 gives each output low half first), m = w b, and
    is m >> 32 unless m mod 2^32 < 2^32 mod b rejects w (Lemire)."""
    if n > 10_000:
        return None
    width = 2 * size - 1
    raw = np.random.PCG64(child_seed).random_raw(-(-count * width // 2))
    words = raw.astype("<u8", copy=False).view("<u4")[:count * width]
    rows = np.empty((count, size), np.int16)      # indices below 10,000
    # one pass per draw: no temporary is wider than one column
    for c, b in enumerate([*range(n - size + 1, n + 1), *range(size, 1, -1)]):
        m = words[c::width] * np.uint64(b)
        if ((m & 0xFFFFFFFF) < 2 ** 32 % b).any():
            return None
        if c < size:
            v = (m >> 32).astype(np.int16)
            rows[:, c] = np.where((rows[:, :c] == v[:, None]).any(1), b - 1, v)
    return rows


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
    pruned = {"size_filtered": 0}
    pruned.update((k, int(h)) for k, h in zip(PRUNING_RULES, hits) if h)
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
