"""Translational tilings: exact verification and exact-cover search.

A tiles F_p^d by E iff the translates E + a, a in A, partition the
space.  tiling_search runs a deterministic exact-cover backtrack over
translates: branch on the lowest-index uncovered point, candidate
translates in ascending index order, with the translate by 0 forced
first (a tiling exists iff one containing 0 does).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sets import PointSet
from .spectral import InternalCheckError
from .tables import add_table


@dataclass(frozen=True)
class TilingCertificate:
    verdict: str                      # "witness" | "none" | "aborted"
    witness: PointSet | None
    nodes_explored: int
    stats: dict = field(default_factory=dict, compare=False)


def _translates(E: PointSet) -> np.ndarray:
    """(p^d, |E|) table: row a holds the point indices of E + a."""
    return add_table(E.space.p, E.space.d)[:, E.indices()]


def _mask(row: np.ndarray) -> int:
    m = 0
    for v in row.tolist():
        m |= 1 << v
    return m


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


def tiling_search(E: PointSet, budget: int = 10 ** 9) -> TilingCertificate:
    """Search for a tiling complement of E, anchored at 0."""
    space = E.space
    n = space.order
    if not size_can_tile(space, E.size):
        return TilingCertificate("none", None, 0, {"size_filtered": True})
    table = _translates(E)
    masks = [_mask(row) for row in table]
    # covers[x]: the translates a = x - e that cover x, ascending; each
    # x occurs |E| times in the table, once per e, in ascending rows a
    covers = (np.argsort(table.ravel(), kind="stable")
              // E.size).reshape(n, E.size).tolist()
    full = (1 << n) - 1
    nodes = 0
    budget_hit = False

    def extend(cover: int, chosen: list):
        nonlocal nodes, budget_hit
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return None
        if cover == full:
            return list(chosen)
        uncov = ~cover & full
        x = (uncov & -uncov).bit_length() - 1
        for a in covers[x]:
            t = masks[a]
            if t & cover:
                continue
            got = extend(cover | t, chosen + [a])
            if got is not None:
                return got
            if budget_hit:
                return None
        return None

    got = extend(masks[0], [0])
    if budget_hit:
        return TilingCertificate("aborted", None, nodes)
    if got is None:
        return TilingCertificate("none", None, nodes)
    witness = PointSet.from_indices(space, sorted(got))
    if not verify_tiling_pair(E, witness):
        raise InternalCheckError("search produced a non-verifying tiling")
    if not verify_tiling_pair(witness, E):
        raise InternalCheckError("tiling witness fails the swapped-pair check")
    return TilingCertificate("witness", witness, nodes)
