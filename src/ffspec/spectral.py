"""Spectral pairs: exact verification and exhaustive spectrum search.

A set A is a spectrum of E iff the characters indexed by A form an
orthogonal basis of L^2(E).  For odd p this is equivalent to |A| = |E|
together with fhat_E(a1 - a2) = 0 for all distinct a1, a2 in A; the
verifier computes both the difference-set criterion and the definitional
Gram orthogonality test on exact residue counts and insists they agree.

spectrum_search reduces spectrum existence to finding a |E|-clique in
the Cayley graph generated by the zero set of fhat_E, anchored at 0.
The search is deterministic: candidates are ordered by descending
degree (ties by point index) and subtrees are explored in that order
with greedy-coloring upper bounds.

Everything after the zero set, that is the candidate list, adjacency,
degree order and clique search, is a function of (zero set, size,
budget) alone.  That clique stage is memoized per process, so sets that
share a zero set (all translates of a set, and most sets of a sweep)
search once; the exhaustive sweeps also group their sets by zero set
and call it once per group.  Witness validation is not shared: every
witness is re-verified against its own set, by both routes and both
ways, on a cache hit too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fourier import zero_set
from .geometry import _direction_counts, _plane_direction_counts
from .sets import PointSet
from .space import coords_to_index, index_to_coords
from .tables import coords_matrix, difference, line_sups, plane_counts


class InternalCheckError(RuntimeError):
    """Two routes that must agree disagreed; an implementation bug."""


@dataclass(frozen=True)
class SpectralCertificate:
    verdict: str                      # "witness" | "none" | "aborted"
    witness: PointSet | None
    nodes_explored: int
    pruning_stats: dict = field(default_factory=dict, compare=False)


@lru_cache(maxsize=None)
def allowed_spectral_sizes(space) -> frozenset:
    """Sizes a spectral set may have: 1, multiples mp with m <= p^(d-2), or p^d."""
    p, d = space.p, space.d
    sizes = {1, space.order}
    if d >= 2:
        sizes.update(m * p for m in range(1, p ** (d - 2) + 1))
    return frozenset(sizes)


def _pair_criterion(E: PointSet, A: PointSet) -> bool:
    """Difference-set route: every a_i - a_j lies in the zero set of E.

    Differences are taken on coordinate tuples, not on the coordinate
    table the Gram route uses, so the two routes share no difference step.
    """
    if A.size != E.size:
        return False
    if A.size <= 1:
        return True
    p, d = E.space.p, E.space.d
    z = zero_set(E).mask
    pts = [index_to_coords(i, p, d) for i in A.indices()]
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if not z >> coords_to_index([x - y for x, y in zip(a, b)], p) & 1:
                return False
    return True


# bounded: at n = 343 one entry holds 0.9 MB
@lru_cache(maxsize=32)
def _pairs(n: int) -> tuple:
    """np.triu_indices(n, 1), read-only: the index pairs i < j of an
    n-point set."""
    ii, jj = np.triu_indices(n, k=1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _pair_gram(E: PointSet, A: PointSet) -> bool:
    """Definitional route: pairwise character orthogonality over E by residue counts."""
    if A.size != E.size:
        return False
    if A.size <= 1:
        return True
    space = E.space
    p = space.p
    coords = coords_matrix(p, space.d).astype(np.int64)
    ec = coords[np.array(E.indices(), dtype=np.int64)]
    ac = coords[np.array(A.indices(), dtype=np.int64)]
    ii, jj = _pairs(len(ac))
    diffs = (ac[ii] - ac[jj]) % p                       # (n_pairs, d)
    step = max(1, 4_000_000 // max(1, len(ec)))
    for lo in range(0, len(diffs), step):
        chunk = diffs[lo:lo + step]
        r = (ec @ chunk.T) % p                          # (|E|, chunk)
        # row k: how often each residue occurs for pair k
        counts = np.bincount((r + p * np.arange(len(chunk))).ravel(),
                             minlength=p * len(chunk)).reshape(-1, p)
        if not (counts == counts[:, :1]).all():
            return False
    return True


def verify_spectral_pair(E: PointSet, A: PointSet) -> bool:
    """Exact spectral-pair test; the two internal routes must agree."""
    if E.space != A.space:
        raise ValueError("mismatched spaces")
    crit = _pair_criterion(E, A)
    gram = _pair_gram(E, A)
    if crit != gram:
        raise InternalCheckError(
            f"criterion test ({crit}) and Gram test ({gram}) disagree")
    return crit


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
                 "plane_directions", "slab_parity")


def pruning_rule(space, rows: np.ndarray) -> np.ndarray:
    """Necessary conditions for spectral sets of size mp, 2 <= m <= p-1.

    rows holds index rows of one size mp, shape (n, mp).  Returns, per
    row, the position in PRUNING_RULES of the first rule that rejects
    it, or -1 where none does.
    """
    p, d = space.p, space.d
    m = rows.shape[-1] // p
    ls = line_sups(p, d, rows)
    rule = np.where(ls > min(m, p - m), 0, -1)
    if d == 3:
        # the plane rules see only the rows line concentration passed
        rest = np.flatnonzero(rule < 0)
        sub = rows[rest]
        counts = plane_counts(p, 3, sub)                   # (n_dirs, n, p)
        per_plane = _plane_direction_counts(p, 3, _direction_counts(p, 3, sub))
        fired = np.array([
            counts.max(axis=(0, 2)) > p,
            per_plane.max(axis=-1) > p,
            # parity obstruction for sets inside m parallel planes with
            # line concentration exactly 2
            (ls[rest] == 2) & (m % 2 == 1)
            & ((counts > 0).sum(axis=-1).min(axis=0) <= m),
        ])
        rule[rest] = np.where(fired.any(axis=0), fired.argmax(axis=0) + 1, -1)
    return rule


def spectrum_search(E: PointSet, budget: int = 10 ** 9,
                    pruning: bool = False) -> SpectralCertificate:
    """Exhaustive search for a spectrum of E, anchored at 0.

    Returns a certificate with verdict witness/none/aborted.  The size
    filter (spectral sets have size 1, mp with m <= p^(d-2), or p^d)
    always applies; the optional pruning applies line/plane
    concentration necessary conditions before searching.  Any witness
    is re-verified, and its swap (A, E) is verified too, before return.
    """
    space = E.space
    n = E.size
    stats: dict = {"size_filtered": False}
    if n not in allowed_spectral_sizes(space):
        stats["size_filtered"] = True
        return SpectralCertificate("none", None, 0, stats)
    if n == 1:
        witness = PointSet.from_indices(space, [0])
        _validate_witness(E, witness)
        return SpectralCertificate("witness", witness, 0, stats)
    if pruning and n % space.p == 0 and 2 <= n // space.p <= space.p - 1:
        rule = int(pruning_rule(space, np.array([E.indices()]))[0])
        if rule >= 0:
            stats[PRUNING_RULES[rule]] = 1
            return SpectralCertificate("none", None, 0, stats)
    return _spectrum_in_zero_set(E, zero_set(E).mask, budget, stats)


def _spectrum_in_zero_set(E: PointSet, zmask: int, budget: int,
                          stats: dict) -> SpectralCertificate:
    """Tail of spectrum_search for a set whose zero set zmask is known:
    the clique stage, then validation of any witness against E itself."""
    space = E.space
    verdict, spectrum, nodes = _clique_in_zero_set(space, zmask, E.size, budget)
    if verdict != "witness":
        return SpectralCertificate(verdict, None, nodes, stats)
    witness = PointSet.from_indices(space, spectrum)
    _validate_witness(E, witness)
    return SpectralCertificate("witness", witness, nodes, stats)


# bounded: a sweep meets a few hundred zero sets, but a long sampling
# run can meet a new one on every trial
@lru_cache(maxsize=4096)
def _clique_in_zero_set(space, zmask: int, n: int, budget: int) -> tuple:
    """Clique stage of spectrum_search: an n-clique containing 0 in the
    Cayley graph on the zero set zmask.

    Returns (verdict, spectrum indices as a tuple or None, nodes).  The
    result is a function of the four arguments alone, so it is cached.
    """
    cand = PointSet(space, zmask).indices()
    if len(cand) < n - 1:
        return "none", None, 0
    # adjacency over candidate slots, ordered by descending degree then index
    ci = np.array(cand, dtype=np.int64)
    k = len(cand)
    zbits = np.zeros(space.order, dtype=bool)
    zbits[ci] = True
    adj_bool = zbits[difference(space.p, space.d, ci[:, None], ci)]
    np.fill_diagonal(adj_bool, False)
    degree = adj_bool.sum(axis=1)
    order = sorted(range(k), key=lambda s: (-int(degree[s]), cand[s]))
    adj_sorted = adj_bool[np.ix_(order, order)]
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in adj_sorted]
    verdict, slots, nodes = _clique_of_size(adj, n - 1, budget)
    if verdict != "witness":
        return verdict, None, nodes
    return verdict, (0, *(cand[order[s]] for s in slots)), nodes


def _validate_witness(E: PointSet, A: PointSet) -> None:
    if not verify_spectral_pair(E, A):
        raise InternalCheckError("search produced a non-verifying witness")
    if not verify_spectral_pair(A, E):
        raise InternalCheckError("witness fails the swapped-pair check")
