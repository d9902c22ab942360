"""Acceptance suite: one criterion per test, one printed status line each.

The exhaustive verifiers are run once per worker count (1, 4, 8) in a
shared fixture; the per-criterion tests read the 4-worker reports and the
determinism criterion compares the result payloads across all three.
"""
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import oracles as O
from ffspec import (
    PointSet,
    QuotientFunction,
    Space,
    all_directions,
    convolve,
    falsify_random,
    float_dft,
    indicator,
    plancherel_check,
    spectrum_search,
    symmetry_check,
    verify_fuglede_small,
    verify_lm1,
    verify_lm2,
    verify_proj21,
    verify_slab_p3,
    zero_set,
)

WORKERS = (1, 4, 8)


def crit(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for w in WORKERS:
        out["lm1", w] = verify_lm1(workers=w)
        out["lm2", w] = verify_lm2(workers=w)
        out["proj21", w] = verify_proj21(workers=w)
        out["slab", w] = verify_slab_p3(workers=w)
        out["f33", w] = verify_fuglede_small(3, 3, (6,), workers=w)
        out["f32", w] = verify_fuglede_small(3, 2, (3, 6), workers=w)
        out["f52", w] = verify_fuglede_small(5, 2, (5, 10, 15, 20),
                                             workers=w)
    return out


def test_criterion_01_five_point_directions(sweeps):
    rep = sweeps["lm1", 4]
    d = rep.details
    ok = (rep.passed
          and d["mode"] == "direct"
          and d["enumerated_sets"] == 1906884
          and all(int(k) >= 6 for k in d["direction_histogram"])
          and rep.elapsed_seconds < 60)
    crit(1, ok, "5-point no-3-collinear subsets of F_7^2 determine >= 6 "
         "directions, exhaustive, 0 counterexamples")


def test_criterion_02_seven_point_directions(sweeps):
    red = sweeps["lm2", 4]
    direct = verify_lm2(workers=4, mode="direct")
    dd, dr = direct.details, red.details
    # orbit accounting: each hypothesis set holds 35 triples, the
    # collinear ones are not anchors, and ordered anchors come in 6s
    agree = 6 * (35 * dd["hypothesis_sets"] - dd["collinear_triples"]) \
        == 98784 * dr["hypothesis_sets"]
    ok = (red.passed and direct.passed
          and dd["enumerated_sets"] == math.comb(49, 7)
          and all(int(k) >= 6 for k in dd["direction_histogram"])
          and all(int(k) >= 6 for k in dr["direction_histogram"])
          and agree
          and red.elapsed_seconds < 300
          and direct.elapsed_seconds < 1800)
    crit(2, ok, "7-point no-4-collinear subsets of F_7^2 determine >= 6 "
         "directions, direct and reduced runs agree")


def test_criterion_03_projection_functions(sweeps):
    rep = sweeps["proj21", 4]
    d = rep.details
    hist_total = sum(int(v) for v in
                     d["equidistribution_histogram"].values())
    ok = (rep.passed
          and d["fillings_per_line"] == 1128 == O.filling_count(4, 7, 7)
          and hist_total == d["hypothesis_functions"]
          and max(int(k) for k in d["equidistribution_histogram"]) <= 2
          and rep.elapsed_seconds < 3600)
    crit(3, ok, "3-line support functions with value 3 equidistribute on "
         "<= 2 direction families, 0 counterexamples")


def test_criterion_04_slab_containment(sweeps):
    rep = sweeps["slab", 4]
    ok = (rep.passed
          and rep.details["enumerated_sets"] == 296010
          and rep.elapsed_seconds < 600)
    crit(4, ok, "6-point subsets of F_3^3 equidistributed along 2 plane "
         "directions lie in 2 parallel planes, exhaustive")


def test_criterion_05_no_spectra_f33(sweeps):
    rep = sweeps["f33", 4]
    rec = rep.details["sizes"]["6"]
    ok = (rep.passed
          and rep.details["pruning"] == "off"
          and rec["sets"] == 296010
          and rec["spectral"] == 0
          and rec["immediate_none"] + rec["searched"] == 296010
          and rep.elapsed_seconds < 900)
    crit(5, ok, "no 6-point subset of F_3^3 admits a spectrum, "
         "exhaustive with pruning off")


def test_criterion_06_small_space_equivalence(sweeps):
    f32 = sweeps["f32", 4]
    f52 = sweeps["f52", 4]
    s32 = f32.details["sizes"]
    s52 = f52.details["sizes"]
    ok = (f32.passed and f52.passed
          and s32["3"] == {"sets": 84, "spectral": 84, "tiles": 84}
          and s32["6"] == {"sets": 84, "spectral": 0, "tiles": 0}
          and all(s52[k]["anchored"] == math.comb(24, int(k) - 1)
                  and s52[k]["spectral"] == s52[k]["tiles"]
                  for k in ("5", "10", "15", "20"))
          and f52.details["affine_classes"] == {
              "5": 11, "10": 319, "15": 319, "20": 11}
          and f52.elapsed_seconds < 1800)
    crit(6, ok, "spectral iff tile for all 168 sets in F_3^2 and all "
         "translation-anchored sets of sizes 5/10/15/20 in F_5^2")


def test_criterion_07_exact_float_agreement():
    spc = Space(7, 3)
    rng = np.random.default_rng(20260707)
    disagreements = 0
    for _ in range(10_000):
        size = int(rng.integers(1, 40))
        idxs = np.sort(rng.choice(343, size, replace=False))
        E = PointSet.from_indices(spc, [int(i) for i in idxs])
        raw = np.abs(float_dft(E)) * 343
        zmask = np.zeros(343, bool)
        for pt in zero_set(E):
            zmask[pt.index] = True
        float_zero = raw < 1e-9
        float_zero[0] = False
        disagreements += int((float_zero != zmask).sum())
    crit(7, disagreements == 0, "exact residue-count zero test agrees "
         "with |float DFT| < 1e-9 on 10^4 random subsets of F_7^3")


def test_criterion_08_plancherel():
    spc = Space(7, 3)
    rng = np.random.default_rng(20260708)
    worst = 0.0
    for _ in range(1000):
        vals = tuple(int(v) for v in rng.integers(0, 10, size=343))
        worst = max(worst, plancherel_check(QuotientFunction(spc, vals)))
    crit(8, worst <= 1e-9, "Plancherel relative error <= 1e-9 on 10^3 "
         "random integer functions on F_7^3")


def test_criterion_09_direction_counts():
    ok = True
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            n = len(all_directions(Space(p, d)))
            ok &= n == (p ** d - 1) // (p - 1)
    ok &= len(all_directions(Space(7, 3))) == 57
    ok &= len(all_directions(Space(7, 2))) == 8
    crit(9, ok, "direction counts match (p^d - 1)/(p - 1) for all "
         "supported spaces, including 57 and 8")


def test_criterion_10_spectrum_symmetry():
    pairs = []
    spc32 = Space(3, 2)
    for size in range(1, 10):
        for combo in itertools.combinations(range(9), size):
            E = PointSet.from_indices(spc32, combo)
            cert = spectrum_search(E)
            if cert.verdict == "witness":
                pairs.append((E, cert.witness))
    for p, d in ((5, 3), (7, 3)):
        spc = Space(p, d)
        line = PointSet.from_coords(spc, [(t, 0, 0) for t in range(p)])
        plane = PointSet.from_coords(
            spc, [(0, y, z) for y in range(p) for z in range(p)])
        for E in (line, plane):
            cert = spectrum_search(E)
            assert cert.verdict == "witness"
            pairs.append((E, cert.witness))
    spc52 = Space(5, 2)
    rng = np.random.default_rng(20260710)
    found = 0
    while found < 30:
        tail = np.sort(rng.choice(np.arange(1, 25), 4, replace=False))
        E = PointSet.from_indices(spc52, [0] + [int(t) for t in tail])
        cert = spectrum_search(E)
        if cert.verdict == "witness":
            pairs.append((E, cert.witness))
            found += 1
    failures = sum(not symmetry_check(E, A) for E, A in pairs)
    crit(10, len(pairs) >= 100 and failures == 0,
         f"swapped pair verifies for all {len(pairs)} spectral pairs "
         "produced in this suite")


def test_criterion_11_two_line_identity():
    rng = np.random.default_rng(20260711)
    deviations = 0
    for _ in range(100):
        p = int(rng.choice([5, 7]))
        spc = Space(p, 2)
        dirs = [dr.rep for dr in all_directions(spc)]
        vi = int(rng.integers(len(dirs)))
        v = dirs[vi]
        u = next(d for d in dirs if d.coords != v.coords)
        k = int(rng.integers(1, p + 1))
        offs = rng.choice(p, k, replace=False)
        B = PointSet.from_points(
            spc, [u.scale(int(c)) + v.scale(t)
                  for c in offs for t in range(p)])
        K = dirs[int(rng.choice(
            [i for i in range(len(dirs)) if i != vi]))]
        L_fn = indicator(PointSet.from_points(
            spc, [v.scale(t) for t in range(p)]))
        K_fn = indicator(PointSet.from_points(
            spc, [K.scale(t) for t in range(p)]))
        bl = convolve(indicator(B), L_fn)
        bk = convolve(indicator(B), K_fn)
        total = sum(x * x for x in bl.values) + \
            sum(x * x for x in bk.values)
        deviations += total != k * p ** 3 + k * k * p * p
    crit(11, deviations == 0, "union of k parallel lines satisfies the "
         "exact two-line convolution identity k p^3 + k^2 p^2, 100 cases")


def test_criterion_12_randomized_falsification():
    configs = [(5, 10), (5, 15), (7, 14), (7, 21), (7, 28)]
    ok = True
    for i, (p, size) in enumerate(configs):
        rep = falsify_random(p, 3, size, 100_000, 20260712 + i, workers=4)
        d = rep.details
        ok &= (rep.passed
               and d["trials"] == 100_000
               and d["outcomes"].get("witness", 0) == 0
               and d["outcomes"].get("aborted", 0) == 0
               and "statistical evidence" in d["note"]
               and "not an exhaustive proof" in d["note"])
    crit(12, ok, "10^5 random trials per configuration find no spectrum "
         "at sizes 2p/3p in F_5^3 and 2p/3p/4p in F_7^3")


def test_criterion_13_worker_determinism(sweeps):
    ok = True
    for key in ("lm1", "lm2", "proj21", "slab", "f33", "f32", "f52"):
        dumps = {
            json.dumps(sweeps[key, w].result_dict(), sort_keys=True,
                       separators=(",", ":"))
            for w in WORKERS
        }
        ok &= len(dumps) == 1
    crit(13, ok, "result payloads byte-identical across 1, 4 and 8 "
         "workers for every exhaustive report")


# sha256 of each README lemma's result payload, serialized as the CLI
# serializes it (sorted keys, no whitespace)
README_SHA256 = {
    "lm1": "3930b815879fd0352ec21891b6488963b2d01f290dbbc1a8e1770a7cd23ed6bb",
    "lm2": "8ccd09b36506b9da08242a1a95adcbddb3549b8abf8aacd81c621e6ea9699921",
    "proj21": "c9c1f548673f83b825272874e1f1fbf3ddd2f6474aba22e95b68279d5def4b40",
    "slab": "a8101140a3ce17291e2cbe1b0bcff2d3e53edd4f8b26d7972d93236b31f6c884",
    "f33": "ab0d8ef5e0d25459e4dd45e41267efb33515570306a1288ff98022fb9d99e365",
    "f32": "2dfb9d7fc56884769dd2f8c7e88f04ffc4a2d07a8ea3254bc8d6665c890eece6",
    "f52": "47f58a976d2c3d8e86311eb16860598aea50fc85cc0c0c3a9306d8a3b9856ee1",
}


@pytest.mark.parametrize("key", list(README_SHA256))
def test_readme_lemma_result_pinned(sweeps, key):
    canonical = json.dumps(sweeps[key, 1].result_dict(), sort_keys=True,
                           separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == \
        README_SHA256[key]
