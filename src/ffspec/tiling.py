"""Translational tilings: exact verification and exact-cover search.

A tiles F_p^d by E iff the translates E + a, a in A, partition the
space.  tiling_search_rows runs a deterministic exact-cover backtrack
over translates for each row of a block of sets of one size: branch on
the lowest-index uncovered point, candidate translates in ascending
index order, with the translate by 0 forced first (a tiling exists iff
one containing 0 does).  The translate bitmasks of a block of rows come
from one np.packbits pass and their covering lists from one argsort;
only the backtrack runs row by row.  It returns bare complements: a
caller checks them, tiling_search with verify_tiling_pair both ways,
the exhaustive sweeps with one batched tiling_pair_rows call each way.
"""
from __future__ import annotations

import numpy as np

from .sets import PointSet
from .space import Space
from .spectral import InternalCheckError, SearchCertificate
from .tables import add_table

# rows per mask build: the hit table of _translate_masks holds 8.4 MB
# at p^d = 343
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


def _translate_masks(table: np.ndarray) -> list:
    """Bitmask of every translate in a (rows, p^d, m) translate table,
    as nested lists of ints: entry [r][a] has bit x set for x in E_r + a.
    """
    rows, n, _ = table.shape
    # whole 64-bit words per mask, low bits first
    hit = np.zeros((rows, n, -(-n // 64) * 64), dtype=bool)
    np.put_along_axis(hit, table, True, axis=2)
    words = np.packbits(hit, axis=2, bitorder="little").view("<u8")
    masks = words[..., 0].astype(object)
    for k in range(1, words.shape[2]):
        masks |= words[..., k].astype(object) << 64 * k
    return masks.tolist()


def _backtrack(masks: list, covers: list, full: int, budget: int) -> tuple:
    """(verdict, complement, nodes) of one set's exact-cover search."""
    nodes = 0
    aborted = False

    def extend(cover: int, chosen: list):
        nonlocal nodes, aborted
        nodes += 1
        if nodes > budget:
            aborted = True
            return None
        if cover == full:
            return chosen
        uncov = ~cover & full
        x = (uncov & -uncov).bit_length() - 1
        for a in covers[x]:
            t = masks[a]
            if t & cover:
                continue
            got = extend(cover | t, chosen + [a])
            if got is not None or aborted:
                return got
        return None

    got = extend(masks[0], [0])
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
        # covers[r][x]: the translates a = x - e that cover x, ascending;
        # each x occurs once per e in E_r's table, in ascending rows a
        covers = (np.argsort(table.reshape(len(table), n * size), axis=1,
                             kind="stable") // size).reshape(table.shape)
        out.extend(_backtrack(masks, cov, (1 << n) - 1, budget)
                   for masks, cov in zip(_translate_masks(table),
                                         covers.tolist()))
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
    witness = PointSet.from_indices(space, complement)
    if not verify_tiling_pair(E, witness):
        raise InternalCheckError("search produced a non-verifying tiling")
    if not verify_tiling_pair(witness, E):
        raise InternalCheckError("tiling witness fails the swapped-pair check")
    return SearchCertificate("witness", witness, nodes)
