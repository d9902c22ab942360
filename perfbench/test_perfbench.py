"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import compare
import inputs
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# analyze generator


def test_generator_is_deterministic_per_seed():
    assert inputs.analyze_sets(7, 48) == inputs.analyze_sets(7, 48)
    assert inputs.analyze_sets(7, 48) != inputs.analyze_sets(8, 48)


def test_generator_prefix_does_not_depend_on_count():
    assert inputs.analyze_sets(3, 20) == inputs.analyze_sets(3, 60)[:20]


def test_generator_classes():
    sets = inputs.analyze_sets(11, 400)
    for i, (cls, p, rows) in enumerate(sets):
        assert cls == inputs.CLASSES[i % 4]
        assert len(set(rows)) == len(rows)
        assert all(len(r) == 3 and all(0 <= c < p for c in r) for r in rows)
        if cls == "graph":
            assert len(rows) == p * p
            assert sorted((x, y) for x, y, _ in rows) == [
                (x, y) for x in range(p) for y in range(p)]
        elif cls == "ppoint":
            assert (p, len(rows)) == (5, 5)
        elif cls == "lines":
            assert len(rows) % p == 0 and len(rows) < p * p
        else:
            assert len(rows) % p == 0 and 2 <= len(rows) // p < p
    assert {p for cls, p, _ in sets if cls != "ppoint"} == {5, 7}


def test_set_file_text_round_trips_through_read_set(tmp_path):
    ffspec = _import_ffspec()
    cls, p, rows = inputs.analyze_sets(5, 1)[0]
    path = tmp_path / "s.txt"
    path.write_text(inputs.set_file_text(p, rows))
    E = ffspec.read_set(path)
    assert sorted(tuple(r) for r in E.coord_rows()) == rows


# ---------------------------------------------------------------------------
# tracing


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds aa [2, 3]) and b [5, 9]
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    t.enter()                 # root at 0
    t.enter()                 # a at 1
    t.enter()                 # aa at 2
    t.exit("aa")              # 3
    t.exit("a")               # 4
    t.enter()                 # b at 5
    t.exit("b")               # 9
    t.exit("root")            # 10
    assert t.total == {"root": 10, "a": 3, "aa": 1, "b": 4}
    assert t.self_s == {"root": 3, "a": 2, "aa": 1, "b": 4}
    assert t.calls == {"root": 1, "a": 1, "aa": 1, "b": 1}


def test_self_time_aggregates_repeated_names():
    # x [0, 4] holds x [1, 2]: the inner call is not counted twice
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 4]))
    t.enter()
    t.enter()
    t.exit("x")
    t.exit("x")
    assert t.total["x"] == 5 and t.self_s["x"] == 4 and t.calls["x"] == 2


def test_merge_sums_snapshots():
    a = {"calls": {"s": 1}, "total": {"s": 1.0}, "self": {"s": 0.5},
         "counts": {"n": 2}, "durations": {"d": [1.0]}}
    b = {"calls": {"s": 2}, "total": {"s": 2.0}, "self": {"s": 1.0},
         "counts": {"n": 3}, "durations": {"d": [2.0]}}
    m = tracing.merge([a, b])
    assert m["calls"]["s"] == 3 and m["self"]["s"] == 1.5
    assert m["counts"]["n"] == 5 and m["durations"]["d"] == [1.0, 2.0]


def _import_ffspec():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import ffspec
    return ffspec


def test_install_wraps_callers_bindings_and_uninstall_restores(tmp_path):
    ffspec = _import_ffspec()
    import ffspec.cli
    import ffspec.lemmas
    import ffspec.spectral

    before = (ffspec.cli.spectrum_search, ffspec.lemmas.spectrum_search,
              ffspec.spectral.zero_set, ffspec.lemmas.PointSet,
              ffspec.lemmas.run_chunks, ffspec.verify_fuglede_small)
    t = tracing.Tracer()
    patches = tracing.install(t, pool_workers=1)
    try:
        assert ffspec.cli.spectrum_search is not before[0]
        assert ffspec.lemmas.spectrum_search is not before[1]
        path = tmp_path / "line.txt"
        path.write_text(inputs.set_file_text(7, [(i, 0, 0) for i in range(7)]))
        assert ffspec.cli.main(["analyze", "--set", str(path),
                                "--report", str(tmp_path / "r.json")]) == 0
    finally:
        tracing.uninstall(patches)
    after = (ffspec.cli.spectrum_search, ffspec.lemmas.spectrum_search,
             ffspec.spectral.zero_set, ffspec.lemmas.PointSet,
             ffspec.lemmas.run_chunks, ffspec.verify_fuglede_small)
    assert after == before
    assert t.calls["spectral.search"] == 1 and t.calls["tiling.search"] == 1
    # the line's zero set is searched by cli and again inside the search
    assert t.calls["fourier.zero_set"] >= 2
    assert t.counts["fourier.zero_set_nonempty"] == t.calls["fourier.zero_set"]
    assert t.calls["spectral.validate"] >= 2 and t.calls["tiling.verify"] == 2


# ---------------------------------------------------------------------------
# correctness gate


def test_pins_match_the_hashes_measured_on_the_seed_code():
    # proj21 (c9c1f548673f) and fuglede-5-2 at README size (47f58a976d2c)
    # are not run, so they have no pin
    prefixes = {"lm1": "3930b815879f", "lm2": "8ccd09b36506",
                "slab-p3": "a8101140a3ce", "fuglede-3-3": "ab0d8ef5e0d2",
                "fuglede-3-2": "2dfb9d7fc568"}
    for lemma, prefix in prefixes.items():
        assert inputs.PINNED_SHA256[lemma].startswith(prefix)
    assert sorted(inputs.PINNED_SHA256) == sorted(lemma for lemma, _ in inputs.VERIFY_JOBS)
    assert all(len(pin) == 64 for pin in inputs.PINNED_SHA256.values())


class FakeRun(run.Run):
    """A Run whose workers return a canned verify result."""

    def __init__(self, sha):
        super().__init__(ROOT, ROOT, Namespace(workload="verify", seed=0,
                                                seconds=1, trace=0))
        self.sha = sha

    def spawn(self, job):
        return {"ops": [{"seconds": 1.0, "rc": 0, "sha256": self.sha,
                         "result": {}}], "trace": None}


def test_a_changed_verify_hash_counts_as_failed():
    good = FakeRun(inputs.PINNED_SHA256["lm1"])
    run.verify_pass(good, [("lm1", "cli")], 2)
    assert (good.attempted, len(good.failures)) == (1, 0)
    bad = FakeRun("0" * 64)
    run.verify_pass(bad, [("lm1", "cli")], 2)
    assert (bad.attempted, len(bad.failures)) == (1, 1)


def test_analyze_checks_catch_verdict_changes():
    sets = [("graph", 5, [(x, y, 0) for x in range(5) for y in range(5)])]
    ok = {"rc": 0, "size": 25, "verdict": "ww", "witness_ok": True}
    r = FakeRun("")
    run.check_analyze(r, sets, [ok], "ww")
    assert not r.failures
    run.check_analyze(r, sets, [dict(ok, verdict="wn")], None)
    run.check_analyze(r, sets, [ok], "nw")
    run.check_analyze(r, sets, [ok], "")
    run.check_analyze(r, sets, [dict(ok, witness_ok=False)], None)
    run.check_analyze(r, sets, [dict(ok, rc=2)], None)
    assert r.attempted == 6 and len(r.failures) == 5


def test_every_seed_maps_to_a_recorded_analyze_batch():
    recorded = run.load_verdicts()
    assert sorted(map(int, recorded)) == list(range(inputs.ANALYZE_BATCHES))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    count = round(spec["run_seconds"] * run.ANALYZE_SETS_PER_S)
    assert all(len(v) >= 2 * count for v in recorded.values())
    for seed in (0, 47, 48, 1000, 2 ** 31):
        assert str(inputs.analyze_batch_seed(seed)) in recorded
    assert inputs.analyze_batch_seed(5) == 5


def test_analyze_refuses_a_batch_without_recorded_verdicts():
    # 36 s needs 1,224 sets; 1,200 per batch are recorded
    r = run.Run(ROOT, ROOT, Namespace(workload="analyze", seed=53, seconds=36, trace=0))
    r.spawn = lambda job: pytest.fail("no worker may start")
    with pytest.raises(run.RunAborted, match="batch seed 5"):
        run.run_analyze(r)


# ---------------------------------------------------------------------------
# benchmark definition and compare


def test_benchmark_json_matches_the_metrics_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_quantile():
    assert run.quantile([3.0], 0.9) == 3.0
    assert run.quantile([1.0, 2.0], 0.5) == 1.5
    assert run.quantile(list(range(11)), 0.9) == pytest.approx(9.0)


def _record(tmp, name, stamp, value):
    tmp.mkdir(exist_ok=True)
    (tmp / f"{name}.json").write_text(json.dumps(
        {"stamp": stamp, "metrics": {"wall_s": value}}))


def test_compare_refuses_runs_with_different_stamps(tmp_path, capsys):
    stamp = {"workload": "falsify", "trace": 0, "seed": 1, "nproc": 2}
    _record(tmp_path / "a", "r1", stamp, 1.0)
    _record(tmp_path / "b", "r1", dict(stamp, seed=2), 1.01)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    _record(tmp_path / "c", "r1", dict(stamp, nproc=4), 1.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 2
    _record(tmp_path / "d", "r1", stamp, 2.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "d")]) == 1
