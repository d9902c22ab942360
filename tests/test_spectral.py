import sys

import numpy as np
import pytest

import oracles as O
from ffspec import (
    InternalCheckError,
    PointSet,
    Space,
    allowed_spectral_sizes,
    spectrum_search,
    symmetry_check,
    translate,
    verify_spectral_pair,
    zero_set,
)
from ffspec import spectral as spectral_mod
from ffspec.spectral import PRUNING_RULES, pruning_rule, spectral_pair_rows


def line(spc, vec):
    return PointSet.from_points(
        spc, [spc.point(vec).scale(t) for t in range(spc.p)])


def plane_x1_zero(spc):
    return PointSet.from_coords(
        spc, [(0, y, z) for y in range(spc.p) for z in range(spc.p)])


def random_subset(rng, spc, size):
    idxs = rng.choice(spc.order, size=size, replace=False)
    return PointSet.from_indices(spc, sorted(int(i) for i in idxs))


class TestVerify:
    def test_line_self_pair(self):
        spc = Space(7, 3)
        L = line(spc, (1, 0, 0))
        assert verify_spectral_pair(L, L)
        assert O.is_spectral_pair(
            7, 3, [pt.coords for pt in L], [pt.coords for pt in L])

    def test_plane_self_pair(self):
        spc = Space(7, 3)
        P = plane_x1_zero(spc)
        assert verify_spectral_pair(P, P)

    def test_trivial_pairs(self):
        spc = Space(3, 2)
        full = PointSet.full(spc)
        assert verify_spectral_pair(full, full)
        single = PointSet.from_indices(spc, [4])
        other = PointSet.from_indices(spc, [7])
        assert verify_spectral_pair(single, other)

    def test_size_mismatch(self):
        spc = Space(7, 3)
        assert not verify_spectral_pair(
            line(spc, (1, 0, 0)), PointSet.from_indices(spc, [0, 1]))

    def test_non_pair(self):
        spc = Space(7, 3)
        L = line(spc, (1, 0, 0))
        # differences of A stay orthogonal to L, where fhat_L never vanishes
        A = PointSet.from_coords(spc, [(0, t, 0) for t in range(7)])
        got = verify_spectral_pair(L, A)
        assert got == O.is_spectral_pair(
            7, 3, [pt.coords for pt in L], [pt.coords for pt in A])
        assert not got

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError):
            verify_spectral_pair(
                PointSet.from_indices(Space(3, 2), [0]),
                PointSet.from_indices(Space(5, 2), [0]))

    def test_dual_route_battery(self, rng):
        # both internal routes must agree on every call; any split raises
        checked = 0
        for p, d in [(5, 3), (7, 3)]:
            spc = Space(p, d)
            for _ in range(250):
                se = int(rng.integers(1, 11))
                match = rng.random() < 0.5
                sa = se if match else int(rng.integers(1, 11))
                E = random_subset(rng, spc, se)
                A = random_subset(rng, spc, sa)
                verify_spectral_pair(E, A)
                checked += 1
        assert checked == 500

    def test_oracle_subsample(self, rng):
        spc = Space(5, 3)
        for _ in range(40):
            size = int(rng.integers(2, 6))
            E = random_subset(rng, spc, size)
            A = random_subset(rng, spc, size)
            assert verify_spectral_pair(E, A) == O.is_spectral_pair(
                5, 3, [pt.coords for pt in E], [pt.coords for pt in A])

    def test_route_disagreement_trips(self, monkeypatch):
        spc = Space(7, 3)
        L = line(spc, (1, 0, 0))
        real = spectral_mod._pair_criterion
        monkeypatch.setattr(spectral_mod, "_pair_criterion",
                            lambda p, d, E, A: np.zeros(len(E), dtype=bool))
        with pytest.raises(InternalCheckError, match="row 0"):
            verify_spectral_pair(L, L)

        def flip_row_1(p, d, E, A):
            got = real(p, d, E, A)
            got[1] = not got[1]
            return got

        # rows 0 and 2 agree; the split on row 1 alone trips
        monkeypatch.setattr(spectral_mod, "_pair_criterion", flip_row_1)
        rows = np.array([L.indices()] * 3)
        with pytest.raises(InternalCheckError, match="row 1"):
            spectral_pair_rows(7, 3, rows, rows)


def _line_rows(rng, p, d, vec_a, vec_b, n):
    """n row pairs (E, A): E a random translate of the line along
    vec_a, A one of the line along vec_b."""
    pts = O.all_points(p, d)
    out = []
    for _ in range(n):
        e0, a0 = (pts[int(i)] for i in rng.integers(p ** d, size=2))
        out.append([sorted(O.point_index(p, [(b + t * v) % p
                                             for b, v in zip(base, vec)])
                           for t in range(p))
                    for base, vec in ((e0, vec_a), (a0, vec_b))])
    return np.array(out)


def _random_rows(rng, p, d, size, n):
    return np.array([np.sort(rng.choice(p ** d, size, replace=False))
                     for _ in range(n)])


class TestPairRows:
    @pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7)
                                     for d in (1, 2, 3)])
    def test_rows_match_oracle(self, rng, p, d):
        pts = O.all_points(p, d)
        unit = (1,) + (0,) * (d - 1)
        # a line along e1 has the line along e1 as a spectrum; along any
        # w with w . e1 = 0 it does not (d >= 2)
        other = unit if d == 1 else (0, 1) + (0,) * (d - 2)
        pairs = _line_rows(rng, p, d, unit, unit, 6)
        skew = _line_rows(rng, p, d, unit, other, 3)
        E = np.concatenate([skew[:, 0], pairs[:, 0],
                            _random_rows(rng, p, d, p, 6)])
        A = np.concatenate([skew[:, 1], pairs[:, 1],
                            _random_rows(rng, p, d, p, 6)])
        got = spectral_pair_rows(p, d, E, A)
        want = [O.is_spectral_pair(p, d, [pts[i] for i in e],
                                   [pts[i] for i in a])
                for e, a in zip(E, A)]
        assert got.tolist() == want
        # for d >= 2 the leading rows fail and the rows after them pass
        assert got[:3].tolist() == [d == 1] * 3 and got[3:9].all()
        # size-1 rows are spectral pairs; mismatched sizes never are
        singles = _random_rows(rng, p, d, 1, 4)
        assert spectral_pair_rows(p, d, singles, singles[::-1]).all()
        assert not spectral_pair_rows(p, d, E[:, :2], A).any()

    def test_blocks_agree_with_one_pass(self, rng, monkeypatch):
        # a tiny block splits rows and, within a row, pairs; results and
        # the row named in a disagreement are those of one pass
        E = _random_rows(rng, 5, 3, 5, 20)
        pairs = _line_rows(rng, 5, 3, (1, 0, 0), (1, 0, 0), 20)
        E = np.concatenate([E, pairs[:, 0]])
        A = np.concatenate([E[:20][::-1], pairs[:, 1]])
        whole = spectral_pair_rows(5, 3, E, A)
        assert whole[20:].all() and not whole[:20].all()
        monkeypatch.setattr(spectral_mod, "_GRAM_BLOCK", 7)
        assert spectral_pair_rows(5, 3, E, A).tolist() == whole.tolist()
        real = spectral_mod._pair_criterion
        marked = E[13].tolist()
        assert [r.tolist() for r in E].count(marked) == 1

        def flip_row_13(p, d, E, A):
            got = real(p, d, E, A)
            for i, row in enumerate(E):
                if row.tolist() == marked:
                    got[i] = not got[i]
            return got

        monkeypatch.setattr(spectral_mod, "_pair_criterion", flip_row_13)
        with pytest.raises(InternalCheckError, match="row 13"):
            spectral_pair_rows(5, 3, E, A)


class TestSymmetry:
    def test_on_witnesses(self):
        spc = Space(7, 3)
        for E in (line(spc, (1, 0, 0)), plane_x1_zero(spc)):
            cert = spectrum_search(E)
            assert cert.verdict == "witness"
            assert symmetry_check(E, cert.witness)

    def test_rejects_non_pair(self):
        spc = Space(7, 3)
        L = line(spc, (1, 0, 0))
        A = PointSet.from_indices(spc, [0, 1])
        with pytest.raises(ValueError):
            symmetry_check(L, A)


class TestAllowedSizes:
    def test_pinned(self):
        assert allowed_spectral_sizes(Space(7, 3)) == frozenset(
            {1, 343} | {7 * m for m in range(1, 8)})
        assert allowed_spectral_sizes(Space(3, 2)) == frozenset({1, 3, 9})
        assert allowed_spectral_sizes(Space(5, 2)) == frozenset({1, 5, 25})

    def test_search_filters_size(self):
        spc = Space(7, 2)
        E = PointSet.from_indices(spc, [0, 1, 2, 3])
        cert = spectrum_search(E)
        assert cert.verdict == "none"
        assert cert.nodes_explored == 0
        assert cert.pruning_stats["size_filtered"]


class TestSearch:
    def test_line_witness_anchored(self):
        spc = Space(7, 3)
        L = line(spc, (1, 0, 0))
        cert = spectrum_search(L)
        assert cert.verdict == "witness"
        assert cert.witness.contains(spc.zero())
        assert cert.witness.size == 7
        assert verify_spectral_pair(L, cert.witness)

    def test_translation_invariance_of_witnesses(self, monkeypatch):
        spc = Space(5, 3)
        L = line(spc, (1, 2, 0))
        M = translate(L, spc.point((1, 1, 1)))
        validated = []

        def counting(E, A):
            validated.append((E, A))
            return verify_spectral_pair(E, A)

        monkeypatch.setattr(spectral_mod, "verify_spectral_pair", counting)
        stage = spectral_mod._clique_in_zero_set
        stage.cache_clear()
        base = spectrum_search(L)
        shifted = spectrum_search(M)
        assert base.verdict == shifted.verdict == "witness"
        # zero set is translation invariant, so the clique stage is reused
        assert zero_set(L) == zero_set(M)
        assert stage.cache_info().hits == 1
        assert base.witness == shifted.witness
        assert base.nodes_explored == shifted.nodes_explored
        # each witness is checked against its own set, both ways round
        w = base.witness
        assert validated == [(L, w), (w, L), (M, w), (w, M)]
        assert verify_spectral_pair(M, base.witness)

    def test_singleton(self):
        spc = Space(3, 3)
        cert = spectrum_search(PointSet.from_indices(spc, [13]))
        assert cert.verdict == "witness"
        assert cert.witness.indices() == [0]

    def test_budget_abort(self):
        spc = Space(7, 3)
        P = plane_x1_zero(spc)
        spectral_mod._clique_in_zero_set.cache_clear()
        cert = spectrum_search(P, budget=1)
        assert cert.verdict == "aborted"
        assert cert.nodes_explored == 2
        # the budget is part of the clique stage's cache key
        full = spectrum_search(P)
        assert full.verdict == "witness"
        assert spectrum_search(P, budget=1) == cert
        assert spectrum_search(P) == full

    def test_recursion_limit_restored(self):
        spc = Space(7, 3)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        stage = spectral_mod._clique_in_zero_set
        stage.cache_clear()
        try:
            # a 343-point spectrum recurses 342 levels deep; the whole
            # search fits in about 350 frames, under the limit of 1000
            cert = spectrum_search(PointSet.full(spc))
            assert cert.verdict == "witness"
            assert stage.cache_info().misses == 1
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_small_zero_set_immediate_none(self):
        spc = Space(5, 3)
        # 3 collinear points force fhat != 0 off a tiny set of directions
        E = PointSet.from_coords(
            spc, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0),
                  (1, 1, 1), (2, 3, 4), (3, 2, 1), (4, 4, 2), (1, 2, 3)])
        cert = spectrum_search(E)
        assert cert.verdict == "none"
        assert zero_set(E).size < E.size - 1
        assert cert.nodes_explored == 0


def _line_violator(rng, spc, size, m):
    """Random set of size mp with min(m, p-m)+1 points on one line."""
    p = spc.p
    want = min(m, p - m) + 1
    base = spc.point_at(int(rng.integers(spc.order)))
    vec = spc.point_at(int(rng.integers(1, spc.order)))
    pts = {(base + vec.scale(t)).index for t in range(want)}
    while len(pts) < size:
        pts.add(int(rng.integers(spc.order)))
    return PointSet.from_indices(spc, sorted(pts))


def _plane_violator(rng, spc):
    """Size-2p set in F_5^3 with p+1 points in one plane, no 3 collinear."""
    p = spc.p
    while True:
        in_plane = rng.choice(p * p, size=p + 1, replace=False)
        E = PointSet.from_indices(
            spc, sorted(int(i) for i in in_plane))  # plane x3 = 0
        from ffspec import line_sup
        if line_sup(E) <= 2:
            break
    pts = set(E.indices())
    while len(pts) < 2 * p:
        pts.add(int(rng.integers(spc.order)))
    return PointSet.from_indices(spc, sorted(pts))


class TestSyntheticViolators:
    def test_line_violators_full_search(self, rng):
        spc = Space(5, 3)
        for _ in range(400):
            E = _line_violator(rng, spc, 10, 2)
            assert spectrum_search(E).verdict == "none"

    def test_line_violators_pruned(self, rng):
        spc = Space(7, 3)
        for _ in range(400):
            E = _line_violator(rng, spc, 21, 3)
            cert = spectrum_search(E, pruning=True)
            assert cert.verdict == "none"

    def test_pruned_matches_full(self, rng):
        spc = Space(5, 3)
        for _ in range(100):
            E = _line_violator(rng, spc, 10, 2)
            assert spectrum_search(E, pruning=True).verdict == \
                spectrum_search(E).verdict == "none"

    def test_plane_violators(self, rng):
        spc = Space(5, 3)
        for _ in range(100):
            E = _plane_violator(rng, spc)
            pruned = spectrum_search(E, pruning=True)
            assert pruned.verdict == "none"
            # p + 1 points in the plane x3 = 0: line concentration fires
            # first if the added points complete a line of 3, otherwise
            # plane concentration
            fired = {k for k, v in pruned.pruning_stats.items() if v}
            assert fired in ({"line_concentration"}, {"plane_concentration"})
            assert spectrum_search(E).verdict == "none"


def _oracle_rule(p, pts):
    """First pruning rule that rejects a size-mp set of F_p^3, or None.

    Slab parity is left out: no set sampled here reaches it.
    """
    m = len(pts) // p
    if O.line_sup(p, 3, pts) > min(m, p - m):
        return "line_concentration"
    if O.plane_sup_3d(p, pts) > p:
        return "plane_concentration"
    dirs = O.direction_set(p, pts)
    normals = {O.canon_dir(p, v) for v in O.all_points(p, 3) if any(v)}
    if any(sum(1 for v in dirs
               if sum(a * b for a, b in zip(v, nrm)) % p == 0) > p
           for nrm in normals):
        return "plane_directions"
    return None


class TestPruningRule:
    def test_batch_matches_search_and_oracle(self, rng):
        # random 21-point sets of F_7^3 are rejected by line concentration,
        # plane concentration and plane directions in about 62/30/8 ratio
        spc = Space(7, 3)
        pts = O.all_points(7, 3)
        rows = np.array([np.sort(rng.choice(spc.order, 21, replace=False))
                         for _ in range(80)])
        rule = pruning_rule(spc, rows)
        names = [PRUNING_RULES[k] if k >= 0 else None for k in rule]
        assert {"line_concentration", "plane_concentration",
                "plane_directions"} <= set(names)
        for row, name in zip(rows, names):
            assert name == _oracle_rule(7, [pts[i] for i in row])
            cert = spectrum_search(
                PointSet.from_indices(spc, row.tolist()), pruning=True)
            fired = {k for k, v in cert.pruning_stats.items() if v}
            assert fired == ({name} if name else set())
        # the decision of a row does not depend on its block
        assert [int(pruning_rule(spc, rows[i:i + 1])[0])
                for i in range(len(rows))] == rule.tolist()
