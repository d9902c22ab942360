"""Spectral pairs: exact verification and exhaustive spectrum search.

A set A is a spectrum of E iff the characters indexed by A form an
orthogonal basis of L^2(E).  For odd p this is equivalent to |A| = |E|
together with fhat_E(a1 - a2) = 0 for all distinct a1, a2 in A.
spectral_pair_rows decides this for many (E, A) index-row pairs at once
by two routes that share no difference step, the difference-set
criterion over E's fourier.zero_keys bits and the definitional Gram
orthogonality test on exact residue counts, and insists they agree on
every row.  verify_spectral_pair is its one-row call.

spectrum_search reduces spectrum existence to finding a |E|-clique in
the Cayley graph generated by the zero set of fhat_E, anchored at 0.
The search is deterministic: candidates are ordered by descending
degree (ties by point index) and subtrees are explored in that order
with greedy-coloring upper bounds.

Everything after the zero set, that is the candidate list, adjacency,
degree order and clique search, is a function of (zero directions,
size, budget) alone.  That clique stage is memoized per process and
keyed by the direction key, an int with bit k for direction k, so sets
that share a zero set (all translates of a set, and most sets of a
sweep) search once; spectrum_search reads the key off its zero set,
and the exhaustive sweeps key every set of a size with zero_keys, so
both meet the same cache entries.  Witness validation is not shared:
every witness is re-verified against its own set, by both routes and
both ways, on a cache hit too; a sweep checks the witnesses of a block
of rows in one batched call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier import zero_keys, zero_set
from .geometry import _plane_direction_counts
from .sets import PointSet, bit_rows
from .tables import (add_table, bytes_at_least, coords_matrix, dir_of_index,
                     direction_points, pair_directions, pair_indices,
                     pair_line_ids, plane_words, scale_tables)


class InternalCheckError(RuntimeError):
    """Two routes that must agree disagreed; an implementation bug."""


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome of spectrum_search or tiling_search.

    size_filtered marks a set rejected by the search's size rule before
    any search work; its verdict is "none" and nodes_explored is 0.
    """
    verdict: str                      # "witness" | "none" | "aborted"
    witness: PointSet | None
    nodes_explored: int
    size_filtered: bool = False

    @property
    def pruning_stats(self) -> dict:
        # always empty: no search applies a pruning rule (callers decide
        # the rules in batches with pruning_rule); kept because
        # perfbench's tracer still iterates over it
        return {}


@lru_cache(maxsize=None)
def allowed_spectral_sizes(space) -> frozenset:
    """Sizes a spectral set may have: 1, multiples mp with m <= p^(d-2), or p^d."""
    p, d = space.p, space.d
    sizes = {1, space.order}
    if d >= 2:
        sizes.update(m * p for m in range(1, p ** (d - 2) + 1))
    return frozenset(sizes)


# residues held at once by the Gram route; at n = 343 a one-row call
# takes its 58,653 pairs in blocks of about 11,000
_GRAM_BLOCK = 4_000_000


def _pair_criterion(p: int, d: int, E_rows: np.ndarray,
                    A_rows: np.ndarray) -> np.ndarray:
    """Difference-set route, per row: every a_i - a_j lies in the zero
    set of E.

    Each pair's direction is read off the line through it, one gather
    from the point-pair table (tables.pair_directions), and tested as a
    bit of its row's key (fourier.zero_keys), so this route shares no
    difference step with the Gram route's coordinate rows.
    """
    keys = zero_keys(p, plane_words(p, d, E_rows), E_rows.shape[1])
    dirs = pair_directions(p, d, A_rows).astype(keys.dtype)
    return (keys[:, None] >> dirs & 1).all(axis=1)


def _pair_gram(p: int, d: int, E_rows: np.ndarray,
               A_rows: np.ndarray) -> np.ndarray:
    """Definitional route, per row: pairwise character orthogonality
    over E by residue counts."""
    coords = coords_matrix(p, d).astype(np.int32)
    n, m = E_rows.shape
    ec = coords[E_rows]                                 # (n, m, d)
    ac = coords[A_rows]
    ii, jj = pair_indices(A_rows.shape[1])
    ok = np.ones(n, dtype=bool)
    step = max(1, _GRAM_BLOCK // max(1, n * m))
    for lo in range(0, len(ii), step):
        diffs = (ac[:, ii[lo:lo + step]] - ac[:, jj[lo:lo + step]]) % p
        r = ec @ diffs.transpose(0, 2, 1)               # (n, m, pairs)
        r %= p
        k = r.shape[-1]
        # [row, pair]: how often each residue occurs
        r += p * np.arange(n * k, dtype=np.int32).reshape(n, 1, k)
        counts = np.bincount(r.ravel(), minlength=p * n * k).reshape(n, k, p)
        ok &= (counts == counts[..., :1]).all(axis=(1, 2))
    return ok


def spectral_pair_rows(p: int, d: int, E_rows, A_rows) -> np.ndarray:
    """Exact spectral-pair test of each row pair (E_rows[i], A_rows[i]).

    E_rows and A_rows hold the point indices of sets, shapes (n, m) and
    (n, k); the result holds n bools.  Both routes decide every row,
    in blocks of about _GRAM_BLOCK residues, and a row on which they
    disagree raises InternalCheckError naming it.
    """
    E_rows = np.asarray(E_rows, dtype=np.int64)
    A_rows = np.asarray(A_rows, dtype=np.int64)
    n, m = E_rows.shape
    if A_rows.shape[1] != m:
        return np.zeros(n, dtype=bool)
    if m <= 1:
        return np.ones(n, dtype=bool)
    out = np.empty(n, dtype=bool)
    step = max(1, _GRAM_BLOCK // (m * m * (m - 1) // 2))
    for lo in range(0, n, step):
        E, A = E_rows[lo:lo + step], A_rows[lo:lo + step]
        crit = _pair_criterion(p, d, E, A)
        gram = _pair_gram(p, d, E, A)
        split = np.flatnonzero(crit != gram)
        if len(split):
            i = int(split[0])
            raise InternalCheckError(
                f"criterion test ({crit[i]}) and Gram test ({gram[i]}) "
                f"disagree on row {lo + i}")
        out[lo:lo + step] = crit
    return out


def verify_spectral_pair(E: PointSet, A: PointSet) -> bool:
    """Exact spectral-pair test; the two internal routes must agree."""
    if E.space != A.space:
        raise ValueError("mismatched spaces")
    return bool(spectral_pair_rows(E.space.p, E.space.d, [E.indices()],
                                   [A.indices()])[0])


def symmetry_check(E: PointSet, A: PointSet) -> bool:
    """Given a verified spectral pair (E, A), check the swapped pair (A, E)."""
    if not verify_spectral_pair(E, A):
        raise ValueError("symmetry_check expects a verified spectral pair")
    return verify_spectral_pair(A, E)


# ---------------------------------------------------------------------------
# search


class _Budget(Exception):
    pass


def _clique_of_size(adj: list, need: int, budget: int):
    """Find a clique of the given size; adj are bitmasks over candidate slots.

    Returns (slots or None, nodes).  Deterministic: slots are branched in
    ascending slot order, which the caller arranges to be the descending
    degree order.
    """
    nodes = 0

    def color_bound(P: int) -> int:
        colors = 0
        rest = P
        while rest:
            colors += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~adj[v]
                avail ^= low
                rest ^= low
        return colors

    def extend(P: int, need: int):
        nonlocal nodes
        if need == 0:
            return []
        nodes += 1
        if nodes > budget:
            raise _Budget
        if P.bit_count() < need or color_bound(P) < need:
            return None
        while P:
            if P.bit_count() < need:
                return None
            low = P & -P
            v = low.bit_length() - 1
            P ^= low
            sub = extend(P & adj[v], need - 1)
            if sub is not None:
                return [v] + sub
        return None

    try:
        got = extend((1 << len(adj)) - 1, need)
    except _Budget:
        return "aborted", None, nodes
    return ("witness", got, nodes) if got is not None else ("none", None, nodes)


PRUNING_RULES = ("line_concentration", "plane_concentration",
                 "plane_directions")


def pruning_rule(space, rows: np.ndarray) -> np.ndarray:
    """Necessary conditions for spectral sets of size mp, 2 <= m <= p-1.

    rows holds index rows of one size mp, shape (n, mp).  Returns, per
    row, the position in PRUNING_RULES of the first rule that rejects
    it, or -1 where none does: rule 0 for every row at m = p - 1, read
    off no table, since any two points are t = 2 points on a line.
    """
    p, d = space.p, space.d
    m = rows.shape[-1] // p
    # line concentration: some line holds t = min(m, p - m) + 1 points,
    # that is, C(t, 2) sorted line ids are equal
    t = min(m, p - m) + 1
    if t == 2:
        return np.zeros(rows.shape[:-1], dtype=int)
    ids = pair_line_ids(p, d, rows)        # read by the line and plane rules
    r = t * (t - 1) // 2 - 1
    s = np.sort(ids, axis=-1)
    hit = (s[..., r:] == s[..., :-r]).any(axis=-1)
    rule = np.where(hit, 0, -1)
    if d == 3:
        # the plane rules see only the rows line concentration passed
        rest = np.flatnonzero(rule < 0)
        kept = rows[rest]
        words = plane_words(p, 3, kept)                    # (n, n_dirs)
        per_plane = _plane_direction_counts(p, 3, ids[rest] // p ** 3)
        fired = np.array([
            bytes_at_least(p, words, p + 1).any(axis=-1),
            per_plane.max(axis=-1) > p,
        ])
        rule[rest] = np.where(fired.any(axis=0), fired.argmax(axis=0) + 1, -1)
    return rule


def spectrum_search(E: PointSet, budget: int = 10 ** 9) -> SearchCertificate:
    """Exhaustive search for a spectrum of E, anchored at 0.

    Returns a certificate with verdict witness/none/aborted.  The size
    filter (spectral sets have size 1, mp with m <= p^(d-2), or p^d)
    always applies and marks the certificate size_filtered.  Any
    witness is re-verified, and its swap (A, E) is verified too, before
    return.
    """
    space = E.space
    n = E.size
    if n not in allowed_spectral_sizes(space):
        return SearchCertificate("none", None, 0, size_filtered=True)
    dirs = dir_of_index(space.p, space.d)[zero_set(E).indices()]
    key = sum(1 << k for k in set(dirs.tolist()))
    verdict, spectrum, nodes = _clique_in_zero_set(space, key, n, budget)
    if verdict != "witness":
        return SearchCertificate(verdict, None, nodes)
    witness = PointSet(space, spectrum)
    _validate_witness(E, witness)
    return SearchCertificate("witness", witness, nodes)


# bounded: a sweep meets a few hundred keys, but a long sampling run
# can meet a new one on every trial
@lru_cache(maxsize=4096)
def _clique_in_zero_set(space, key: int, n: int, budget: int) -> tuple:
    """Clique stage of spectrum_search: an n-clique containing 0 in the
    Cayley graph on the zero set of direction key `key` (bit k for
    canonical direction k), tables.direction_points.

    Returns (verdict, spectrum indices as a tuple or None, nodes).  The
    result is a function of the four arguments alone, so it is cached.
    """
    ci = direction_points(space.p, space.d, key)
    if len(ci) < n - 1:
        return "none", None, 0
    # adjacency over candidate slots, ordered by descending degree then index
    zbits = np.zeros(space.order, dtype=bool)
    zbits[ci] = True
    # differences ci[i] - ci[j] by two one-axis takes, then a take of the
    # bits: np.ix_ or fancy indexing with the int16 differences is
    # several times slower, and one flat intp index (tables.difference)
    # took 241 against 159 us at k = 294
    diff = add_table(space.p, space.d).take(ci, 0).take(
        scale_tables(space.p, space.d)[space.p - 1][ci], 1)
    adj_bool = zbits.take(diff)
    np.fill_diagonal(adj_bool, False)
    order = np.lexsort((ci, -adj_bool.sum(axis=1)))
    adj = bit_rows(adj_bool[order][:, order])
    verdict, slots, nodes = _clique_of_size(adj, n - 1, budget)
    if verdict != "witness":
        return verdict, None, nodes
    return verdict, (0, *ci[order[slots]].tolist()), nodes


def _validate_witness(E: PointSet, A: PointSet) -> None:
    if not verify_spectral_pair(E, A):
        raise InternalCheckError("search produced a non-verifying witness")
    if not verify_spectral_pair(A, E):
        raise InternalCheckError("witness fails the swapped-pair check")


def _validate_witness_rows(p: int, d: int, E_rows, A_rows) -> None:
    """_validate_witness for many witnesses: each A_rows[i] is checked
    against its own set E_rows[i], both ways, in one spectral_pair_rows
    call."""
    E_rows = np.asarray(E_rows, dtype=np.int64)
    A_rows = np.asarray(A_rows, dtype=np.int64)
    n = len(E_rows)
    ok = spectral_pair_rows(p, d, np.concatenate([E_rows, A_rows]),
                            np.concatenate([A_rows, E_rows]))
    for half, what in ((ok[:n], "search produced a non-verifying witness"),
                       (ok[n:], "witness fails the swapped-pair check")):
        if not half.all():
            raise InternalCheckError(f"{what} (row {int(np.argmin(half))})")
