"""The space F_p^d and its point indexing.

Points are indexed 0 .. p^d - 1 with coordinate 0 in the least
significant base-p digit, so index = sum(coords[i] * p**i).  Every
operation works on these indices and reads the cached tables in
tables.py; tables.coords_matrix gives the coordinates of an index, and
coords_to_index is the one conversion back.  All arithmetic is exact
integer arithmetic mod p.  This module imports no other module of the
package.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class Space:
    """The vector space F_p^d, for p in {3, 5, 7} and d in {1, 2, 3}.

    Library entry points construct a Space before they build a lookup
    table, so this check also bounds every table size.
    """

    p: int
    d: int

    def __post_init__(self):
        # operator.index takes numpy integers and rejects 7.0 before any
        # table is sized by it
        object.__setattr__(self, "p", operator.index(self.p))
        object.__setattr__(self, "d", operator.index(self.d))
        if self.p not in (3, 5, 7):
            raise ValueError(f"p must be the prime 3, 5 or 7, got {self.p}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")

    @property
    def order(self) -> int:
        return self.p ** self.d


def coords_to_index(coords, p: int) -> int:
    """The index of a coordinate row, each entry reduced mod p."""
    idx = 0
    for c in reversed(coords):
        idx = idx * p + operator.index(c) % p
    return idx
