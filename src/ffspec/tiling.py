"""Translational tilings: exact verification and exact-cover search.

A tiles F_p^d by E iff the translates E + a, a in A, partition the
space.  tiling_search_rows runs a deterministic exact-cover backtrack
over translates for each row of a block of sets of one size, with the
translate by 0 forced first (a tiling exists iff one containing 0
does).  Every node branches on the uncovered point with the fewest
covering translates still disjoint from the cover, ties to the lowest
index, and tries those translates in ascending index; a point with
none ends the branch (minimum remaining values, as in Knuth's Dancing
Links).  The counts are kept incrementally, as bit planes over the
points.  The translate bitmasks of a block of rows, and the covering
translates of each point, are packed from one add_table gather by
sets.bit_rows; only the backtrack runs row by row.  It returns bare
complements: a caller checks them, tiling_search with
verify_tiling_pair both ways, the exhaustive sweeps with one batched
tiling_pair_rows call each way.
"""
from __future__ import annotations

from functools import reduce
from operator import and_, or_

import numpy as np

from .sets import PointSet, bit_rows
from .space import Space
from .spectral import InternalCheckError, SearchCertificate
from .tables import add_table

# rows per mask build: the one hit table of _translate_masks, which
# serves the translate and the covering masks in turn, holds 7.5 MB at
# p^d = 343
_MASK_BLOCK = 64


def size_can_tile(space, size: int) -> bool:
    """Size test of tiling_search: a tile's size divides p^d."""
    return size > 0 and space.order % size == 0


def tiling_pair_rows(p: int, d: int, E_rows, A_rows) -> np.ndarray:
    """Exact tiling-pair test of each row pair (E_rows[i], A_rows[i]):
    the translates E + a, a in A, partition the space.

    E_rows and A_rows hold the point indices of sets, shapes (n, m) and
    (n, k); the result holds n bools.  A row passes exactly when its
    m * k sums, read from add_table, are the p^d points.
    """
    E_rows = np.asarray(E_rows, dtype=np.int64)
    A_rows = np.asarray(A_rows, dtype=np.int64)
    n, order = len(E_rows), p ** d
    if E_rows.shape[1] * A_rows.shape[1] != order:
        return np.zeros(n, dtype=bool)
    sums = add_table(p, d)[E_rows[:, :, None], A_rows[:, None, :]]
    return (np.sort(sums.reshape(n, order), axis=1)
            == np.arange(order)).all(axis=1)


def verify_tiling_pair(E: PointSet, A: PointSet) -> bool:
    """Exact test that the translates E + a, a in A, partition the space."""
    if E.space != A.space:
        raise ValueError("mismatched spaces")
    return bool(tiling_pair_rows(E.space.p, E.space.d, [E.indices()],
                                 [A.indices()])[0])


def _translate_masks(table: np.ndarray) -> tuple:
    """The translate and covering bitmasks of a (rows, n, m) translate
    table [r, a, j] = point j of E_r + a, as nested lists of ints:
    masks[r][a] has bit x set for x in E_r + a, and covers[r][x] has
    bit a set for the same pairs.  One boolean hit table, (rows, n, n),
    serves both: filled as [r, a, x] and packed, then cleared, filled
    as [r, x, a] and packed (packing a transposed view is an order of
    magnitude slower).  Its flat positions are computed in place in
    one index array the size of table."""
    n = table.shape[1]
    shift = n * n * np.arange(len(table))[:, None, None]
    a = np.arange(n)[:, None]
    hit = np.zeros(len(table) * n * n, dtype=bool)
    at = table.astype(np.intp)
    at += shift + n * a                      # [r, a, x]
    hit[at] = True
    masks = bit_rows(hit.reshape(-1, n, n))
    at -= shift + n * a
    at *= n
    at += shift + a                          # [r, x, a]
    hit[...] = False
    hit[at] = True
    del at                                   # before the second packing
    return masks, bit_rows(hit.reshape(-1, n, n))


def _backtrack(points: np.ndarray, masks: list, covers: list,
               full: int, budget: int) -> tuple:
    """(verdict, complement, nodes) of one set's exact-cover search;
    points[a] lists the points of E + a.

    A node has chosen translate a.  It drops from avail the translates
    that meet E + a, those that cover one of its points, and keeps each
    uncovered point's count of covering translates left in avail as
    bit planes, complemented: bit x of zeros[k] is clear when bit k of
    x's count is set.  Counts start at m = |E|.  A translate b that
    leaves avail takes one off each of its uncovered points; it has
    none when E + b = E + a, that is when b - a is a period of E.  When
    fewer translates stay than leave, the counts are summed afresh from
    those that stay.  If E is a coset of its periods, every uncovered
    point keeps all m translates, so no count ever moves.
    """
    nodes = 0
    aborted = False
    cover_of = covers.__getitem__
    m = points.shape[1]
    # the periods of E: the translates b with E + b = E
    periods = reduce(and_, map(cover_of, points[0].tolist()))
    coset = periods.bit_count() == m

    def extend(cover: int, avail: int, zeros: list, a: int,
               chosen: list):
        nonlocal nodes, aborted
        nodes += 1
        if nodes > budget:
            aborted = True
            return None
        cover |= masks[a]
        if cover == full:
            return chosen
        best = full ^ cover                  # uncovered
        if not coset:
            on = points[a].tolist()
            gone = avail & reduce(or_, map(cover_of, on))
            avail ^= gone
            rest = gone & ~reduce(and_, map(cover_of, on))
            if rest:
                if rest.bit_count() <= avail.bit_count():
                    zeros, down = list(zeros), True
                else:
                    zeros, down, rest = [full] * len(zeros), False, avail
                while rest:
                    low = rest & -rest
                    carry = masks[low.bit_length() - 1] & best
                    rest ^= low
                    k = 0
                    while carry:             # one bit-sliced step
                        qk = zeros[k]
                        zeros[k] = qk ^ carry
                        carry &= qk if down else ~qk
                        k += 1
            # narrow best to the uncovered points of fewest translates,
            # high bit first; if that count is 0, no candidate is left
            for qk in reversed(zeros):
                if best & qk:
                    best &= qk
        rest = covers[(best & -best).bit_length() - 1] & avail
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            rest ^= low
            got = extend(cover, avail, zeros, b, chosen + [b])
            if got is not None or aborted:
                return got
        return None

    got = extend(0, full, [0 if m >> k & 1 else full
                           for k in range(m.bit_length())], 0, [0])
    if aborted:
        return "aborted", None, nodes
    if got is None:
        return "none", None, nodes
    return "witness", sorted(got), nodes


def tiling_search_rows(p: int, d: int, rows, budget: int = 10 ** 9) -> list:
    """Search a tiling complement, anchored at 0, for each index row.

    rows has shape (n, m), and m must be a size that can tile.  Each row
    gets its own budget.  Returns n (verdict, complement, nodes) triples:
    "witness" with the complement's sorted point indices, or "none" or
    "aborted" with None.  Complements are returned unverified.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, size = p ** d, rows.shape[1]
    if not size_can_tile(Space(p, d), size):
        raise ValueError(f"size {size} cannot tile p^d = {n}")
    out = []
    for lo in range(0, len(rows), _MASK_BLOCK):
        # [r, a, j]: point j of E_r + a
        table = add_table(p, d)[:, rows[lo:lo + _MASK_BLOCK]]
        table = table.transpose(1, 0, 2)
        masks, covers = _translate_masks(table)
        out.extend(_backtrack(*row, (1 << n) - 1, budget)
                   for row in zip(table, masks, covers))
    return out


def tiling_search(E: PointSet, budget: int = 10 ** 9) -> SearchCertificate:
    """Search for a tiling complement of E, anchored at 0: the one-row
    call of tiling_search_rows, with E's size filter first and its
    witness verified both ways."""
    space = E.space
    if not size_can_tile(space, E.size):
        return SearchCertificate("none", None, 0, size_filtered=True)
    ((verdict, complement, nodes),) = tiling_search_rows(
        space.p, space.d, [E.indices()], budget)
    if verdict != "witness":
        return SearchCertificate(verdict, None, nodes)
    witness = PointSet(space, complement)
    if not verify_tiling_pair(E, witness):
        raise InternalCheckError("search produced a non-verifying tiling")
    if not verify_tiling_pair(witness, E):
        raise InternalCheckError("tiling witness fails the swapped-pair check")
    return SearchCertificate("witness", witness, nodes)
