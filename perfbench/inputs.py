"""Workload inputs: the lemma lists, their pinned result hashes, the
falsify setting and the seeded analyze set generator.

Nothing here imports ffspec, so the generator can be tested and the
pins read without the package under test.
"""
from __future__ import annotations

import numpy as np

# Each verify job runs in a fresh process.  "cli" jobs go through
# ffspec.cli.main(["verify", "--lemma", id, "--threads", n]) at the
# README sizes; the one "library" job calls
# ffspec.verify_fuglede_small(5, 2, sizes, workers=n).
#
# The workload leaves out proj21 (45 s at 2 workers) and runs
# fuglede-5-2 on sizes (5, 20) instead of (5, 10, 15, 20) (19 s): at
# full size one traced run (2-worker, 1-worker and traced 1-worker
# passes) would not fit the 180 s a run may take.  Size 5 keeps the
# deep spectral and tiling searches, size 20 keeps the stratum where
# both size filters reject every set (42,504 of the 3.31 M such sets
# at full size).
FUGLEDE_5_2_SIZES = (5, 20)

VERIFY_JOBS = (
    ("lm1", "cli"),
    ("lm2", "cli"),
    ("slab-p3", "cli"),
    ("fuglede-3-3", "cli"),
    ("fuglede-3-2", "cli"),
    ("fuglede-5-2", "library"),
)

# sha256 of each report's "result", dumped with sorted keys and
# (",", ":") separators as ffspec.cli does.  Measured on the code the
# benchmark was defined on; a verdict-preserving change keeps them.
PINNED_SHA256 = {
    "lm1": "3930b815879fd0352ec21891b6488963b2d01f290dbbc1a8e1770a7cd23ed6bb",
    "lm2": "8ccd09b36506b9da08242a1a95adcbddb3549b8abf8aacd81c621e6ea9699921",
    "slab-p3": "a8101140a3ce17291e2cbe1b0bcff2d3e53edd4f8b26d7972d93236b31f6c884",
    "fuglede-3-3": "ab0d8ef5e0d25459e4dd45e41267efb33515570306a1288ff98022fb9d99e365",
    "fuglede-3-2": "2dfb9d7fc56884769dd2f8c7e88f04ffc4a2d07a8ea3254bc8d6665c890eece6",
    # sizes (5, 20) only, so not the README run's hash
    "fuglede-5-2": "519b43c8422bf3bad40f8c1895c05257177c547daa81a3ca9afa331d54f83a7c",
}

# ffspec falsify --p 7 --d 3 --size 21 --trials N --seed S --threads 1
FALSIFY_ARGS = {"p": 7, "d": 3, "size": 21}
FALSIFY_TRIALS = 8000

# ---------------------------------------------------------------------------
# analyze batch

CLASSES = ("graph", "ppoint", "lines", "mp")

# Verdicts are recorded (verdicts.json) for batch seeds 0..47, 1,200
# sets each.  A run's --seed picks batch seed % ANALYZE_BATCHES, so
# every seed is checked against recorded verdicts.
ANALYZE_BATCHES = 48


def analyze_batch_seed(seed: int) -> int:
    return seed % ANALYZE_BATCHES


def _graph(rng, p):
    """(a) {(x, y, f(x, y))} for a random f: F_p^2 -> F_p."""
    f = rng.integers(0, p, size=(p, p))
    return [(x, y, int(f[x, y])) for x in range(p) for y in range(p)]


def _points(rng, p, size):
    idx = rng.choice(p ** 3, size=size, replace=False)
    return [(int(i) % p, int(i) // p % p, int(i) // (p * p)) for i in idx]


def _ppoint(rng, p):
    """(b) p random points of F_5^3 (p is always 5 here)."""
    return _points(rng, p, p)


def _lines(rng, p):
    """(c) union of m pairwise disjoint random affine lines, 1 <= m < p."""
    m = int(rng.integers(1, p))
    used: set = set()
    while len(used) < m * p:
        v = rng.integers(0, p, size=3)
        if not v.any():
            continue
        b = rng.integers(0, p, size=3)
        line = {tuple(int(c) for c in (b + t * v) % p) for t in range(p)}
        if used.isdisjoint(line):
            used |= line
    return list(used)


def _mp(rng, p):
    """(d) m*p random points, 2 <= m < p."""
    return _points(rng, p, int(rng.integers(2, p)) * p)


_GENERATORS = {"graph": _graph, "ppoint": _ppoint, "lines": _lines, "mp": _mp}


def analyze_sets(seed: int, count: int) -> list:
    """The first `count` sets of the batch for `seed`: (class, p, rows).

    Classes and fields rotate in a fixed order, so every prefix holds
    the classes in equal shares, and set i depends only on seed and i.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for i in range(count):
        cls = CLASSES[i % len(CLASSES)]
        p = 5 if cls == "ppoint" else (5, 7)[(i // len(CLASSES)) % 2]
        out.append((cls, p, sorted(_GENERATORS[cls](rng, p))))
    return out


def set_file_text(p: int, rows) -> str:
    """Set file in the format ffspec.read_set parses."""
    body = "".join(" ".join(str(c) for c in row) + "\n" for row in rows)
    return f"p {p}\nd 3\n{body}"


def spectral_size_filtered(p: int, size: int) -> bool:
    """Spectral sets in F_p^3 have size 1, m*p with m <= p, or p^3."""
    return not (size in (1, p ** 3) or (size % p == 0 and size // p <= p))


def tile_size_filtered(p: int, size: int) -> bool:
    return size == 0 or p ** 3 % size != 0
