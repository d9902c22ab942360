"""ffspec benchmark: verify, falsify and analyze workloads.

    python3 perfbench/run.py --workload verify|falsify|analyze \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is imported
from ./src.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; the last line of
stdout is one JSON object (correct, attempted, failed, metrics).  The
lines before it give every metric with its unit and sample count, the
environment stamp and any failed check.  A full record of each run is
written to .perfbench/runs/ for perfbench/compare.py.

perfbench/README.md says why each workload exists and what each metric
should respond to.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import inputs
import tracing

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0            # a run must end within 180 s
MIN_SETUPS = 8                 # set-up samples per untraced run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PRUNING_RULES = ("line_concentration", "plane_concentration",
                 "plane_directions", "slab_parity")
LEMMA_METRICS = {"lm1": "lemmas.lm1_s", "fuglede-3-3": "lemmas.fuglede_3_3_s",
                 "fuglede-5-2": "lemmas.fuglede_5_2_s"}

PER_LAYER = (
    ("tables.cold_s", "s"), ("tables.bytes", "B"),
    ("parallel.chunks", "count"), ("parallel.chunk_p50_s", "s"),
    ("parallel.chunk_max_s", "s"), ("parallel.efficiency", "ratio"),
    ("lemmas.chunk_self_s", "s"), ("lemmas.driver_s", "s"),
    ("lemmas.sets", "count"), ("lemmas.sets_per_s", "1/s"),
    ("lemmas.lm1_s", "s"), ("lemmas.fuglede_3_3_s", "s"),
    ("lemmas.fuglede_5_2_s", "s"),
    ("sets.pointsets", "count"), ("sets.pointset_s", "s"),
    ("sets.read_set_s", "s"),
    ("fourier.zero_set_calls", "count"), ("fourier.zero_set_s", "s"),
    ("fourier.zero_set_nonempty_frac", "ratio"),
    ("geometry.line_sup_calls", "count"), ("geometry.line_sup_s", "s"),
    ("geometry.direction_stats_s", "s"), ("geometry.plane_sup_s", "s"),
    ("spectral.search_calls", "count"), ("spectral.search_self_s", "s"),
    ("spectral.size_filtered_frac", "ratio"), ("spectral.nodes", "count"),
    ("spectral.nodes_per_search", "count"),
    *((f"spectral.pruned.{rule}", "count") for rule in PRUNING_RULES),
    ("spectral.pruned_frac", "ratio"), ("spectral.validate_s", "s"),
    ("tiling.search_calls", "count"), ("tiling.search_self_s", "s"),
    ("tiling.nodes", "count"), ("tiling.nodes_per_s", "1/s"),
    ("tiling.size_filtered_frac", "ratio"), ("tiling.verify_s", "s"),
    ("cli.report_s", "s"), ("cli.report_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
    ("census.fuglede_3_3.immediate_none", "count"),
    ("census.fuglede_3_3.searched", "count"),
    ("census.fuglede_3_3.nodes", "count"),
    ("census.fuglede_5_2.sets", "count"),
    ("census.fuglede_5_2.both_filtered", "count"),
    *((f"census.analyze.{cls}.{what}", "count")
      for cls in inputs.CLASSES for what in ("sets", "spectral_nodes",
                                             "tiling_nodes")),
)

# Work per run, sized from --seconds on a 2-core x86-64 host so that a
# run takes about that long.  The work depends only on --seconds and
# --seed, never on measured speed, so two commits do the same work.
VERIFY_WORKERS = 2
VERIFY_PASS_S = 10.0           # one pass of the verify lemmas at 2 workers
FALSIFY_CALL_S = 2.2           # one falsify call of FALSIFY_TRIALS trials
ANALYZE_SETS_PER_S = 34        # analyze calls per second
TRACED_ANALYZE_SHARE = 0.25    # traced runs analyze this share, twice


class RunAborted(Exception):
    """The run cannot go on (time limit or a worker that died)."""


def quantile(xs, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Run:
    """State of one benchmark run: worker processes, samples, checks."""

    def __init__(self, root: Path, work: Path, args):
        self.root = root
        self.work = work
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.setups: list = []
        self.rss_kib: list = []
        self.attempted = 0
        self.failures: list = []
        self._jobs = 0
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env.pop("FFSPEC_THREADS", None)
        self.env = env

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def spawn(self, job: dict) -> dict:
        """Run one job in a fresh worker process and return its output."""
        self._jobs += 1
        job_path = self.work / f"job{self._jobs}.json"
        out_path = self.work / f"out{self._jobs}.json"
        job = dict(job, report=str(self.work / f"report{self._jobs}.json"))
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RunAborted("run time limit reached")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunAborted("run time limit reached") from None
        finally:
            # pool workers share the worker's process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out_path.is_file():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            raise RunAborted(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
        out = json.loads(out_path.read_text())
        src = (self.root / "src").resolve()
        if src not in Path(out["ffspec_file"]).resolve().parents:
            raise RunAborted(f"imported ffspec from {out['ffspec_file']}, not ./src")
        out["setup_s"] = out["ready"] - start
        self.setups.append(out["setup_s"])
        self.rss_kib.append(out["peak_rss_kib"])
        return out

    def probe_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            self.spawn({"kind": "probe"})


# ---------------------------------------------------------------------------
# verify


def _verify_job(lemma: str, kind: str, workers: int, trace: bool) -> dict:
    if kind == "cli":
        job = {"kind": "cli",
               "argv": ["verify", "--lemma", lemma, "--threads", str(workers)]}
    else:
        job = {"kind": "library", "sizes": list(inputs.FUGLEDE_5_2_SIZES),
               "workers": workers}
    return dict(job, trace=trace, pool_workers=VERIFY_WORKERS)


def verify_pass(run: Run, jobs, workers: int, trace: bool = False) -> dict:
    """One pass over the lemma list, each lemma in a fresh process."""
    seconds, results, traces = {}, {}, []
    for lemma, kind in jobs:
        out = run.spawn(_verify_job(lemma, kind, workers, trace))
        op = out["ops"][0]
        pin = inputs.PINNED_SHA256[lemma]
        sha = op.get("sha256")
        run.check(op["rc"] == 0 and sha == pin and op.get("meta_sha256", sha) == sha,
                  f"verify {lemma} at {workers} worker(s): rc {op['rc']}, "
                  f"result_sha256 {sha} != pinned {pin}")
        seconds[lemma] = op["seconds"]
        results[lemma] = op.get("result", {})
        if out["trace"] is not None:
            traces.append(out["trace"])
    return {"seconds": seconds, "results": results, "traces": traces}


def run_verify(run: Run) -> tuple:
    jobs = inputs.VERIFY_JOBS
    if not run.args.trace:
        passes = max(1, round(run.args.seconds / VERIFY_PASS_S))
        per_pass = [verify_pass(run, jobs, VERIFY_WORKERS) for _ in range(passes)]
        run.probe_setups()
        samples = {lemma: [p["seconds"][lemma] for p in per_pass] for lemma, _ in jobs}
        return [sum(p["seconds"].values()) for p in per_pass], samples, {}

    two = verify_pass(run, jobs, VERIFY_WORKERS)
    one = verify_pass(run, jobs, 1)
    traced = verify_pass(run, jobs, 1, trace=True)
    for lemma, _ in jobs:
        run.check(one["results"][lemma] == two["results"][lemma]
                  == traced["results"][lemma],
                  f"verify {lemma}: result differs between 1 and 2 workers")
    t1, t2 = one["seconds"], two["seconds"]
    long = [lemma for lemma in t2 if t2[lemma] >= 1.0]
    extra = {
        "parallel.efficiency": (sum(t1[k] for k in long)
                                / (2 * sum(t2[k] for k in long))) if long else 0.0,
        "trace.overhead_frac": (sum(traced["seconds"].values()) / sum(t1.values()) - 1),
        "lemmas.sets_per_s": (sum(r.get("orbit_count", 0) for r in two["results"].values())
                              / sum(t2.values())),
    }
    for lemma, name in LEMMA_METRICS.items():
        if lemma in t2:
            extra[name] = t2[lemma]
    res = traced["results"]
    if "fuglede-3-3" in res:
        rec = res["fuglede-3-3"]["details"]["sizes"]["6"]
        for key in ("immediate_none", "searched", "nodes"):
            extra[f"census.fuglede_3_3.{key}"] = rec[key]
    if "fuglede-5-2" in res:
        sizes = res["fuglede-5-2"]["details"]["sizes"]
        extra["census.fuglede_5_2.sets"] = sum(r["anchored"] for r in sizes.values())
        # in F_5^2 both filters pass exactly the sizes dividing 25
        extra["census.fuglede_5_2.both_filtered"] = sum(
            r["anchored"] for s, r in sizes.items() if 25 % int(s))
    return traced["traces"], {}, extra


# ---------------------------------------------------------------------------
# falsify


def falsify_call(run: Run, trace: bool) -> dict:
    a = inputs.FALSIFY_ARGS
    argv = ["falsify", "--p", str(a["p"]), "--d", str(a["d"]),
            "--size", str(a["size"]), "--trials", str(inputs.FALSIFY_TRIALS),
            "--seed", str(run.args.seed), "--threads", "1"]
    return run.spawn({"kind": "cli", "argv": argv, "trace": trace, "pool_workers": 1})


def run_falsify(run: Run) -> tuple:
    # a traced run alternates untraced and traced calls: U T U T
    calls = (max(3, round(run.args.seconds / FALSIFY_CALL_S))
             if not run.args.trace else 4)
    outs = [falsify_call(run, trace=bool(run.args.trace and i % 2))
            for i in range(calls)]
    first = outs[0]["ops"][0].get("sha256")
    for i, out in enumerate(outs):
        op = out["ops"][0]
        outcomes = op.get("result", {}).get("details", {}).get("outcomes", {})
        run.check(op["rc"] == 0 and outcomes.get("witness", 1) == 0
                  and outcomes.get("aborted", 1) == 0 and op.get("sha256") == first,
                  f"falsify call {i}: rc {op['rc']}, outcomes {outcomes}, "
                  f"sha256 {op.get('sha256')} vs first call {first}")
    times = [out["ops"][0]["seconds"] for out in outs]
    if not run.args.trace:
        run.probe_setups()
        return times, {}, {}
    untraced = statistics.median(times[0::2])
    extra = {
        "trace.overhead_frac": statistics.median(times[1::2]) / untraced - 1,
        "lemmas.sets_per_s": inputs.FALSIFY_TRIALS / untraced,
    }
    # per-layer counts describe one call of FALSIFY_TRIALS trials
    return [outs[1]["trace"]], {}, extra


# ---------------------------------------------------------------------------
# analyze


def load_verdicts() -> dict:
    path = HERE / "verdicts.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_analyze(run: Run, sets: list, ops: list, recorded) -> None:
    """Per-set checks; `recorded` holds two verdict letters per set, or
    is None while the verdicts are being recorded."""
    for i, ((cls, p, rows), op) in enumerate(zip(sets, ops)):
        verdict = op.get("verdict", "??")
        want = recorded[2 * i:2 * i + 2] if recorded is not None else verdict
        size = len(rows)
        problems = []
        if op["rc"] != 0:
            problems.append(f"exit code {op['rc']}")
        if op.get("size") != size:
            problems.append(f"size {op.get('size')} != {size}")
        if (verdict[0] == "f") != inputs.spectral_size_filtered(p, size):
            problems.append("spectral size filter")
        if (verdict[1] == "f") != inputs.tile_size_filtered(p, size):
            problems.append("tiling size filter")
        if cls == "graph" and verdict[1] != "w":
            problems.append("a graph over F_p^2 must tile")
        if not op.get("witness_ok", True):
            problems.append("witness does not verify")
        if verdict != want:
            problems.append(f"verdict {verdict} != recorded {want}")
        run.check(not problems, f"analyze seed {run.args.seed} set {i} ({cls}, p={p}): "
                  + "; ".join(problems))


def analyze_batch(run: Run, count: int) -> tuple:
    sets = inputs.analyze_sets(inputs.analyze_batch_seed(run.args.seed), count)
    files = []
    set_dir = run.work / "sets"
    set_dir.mkdir(exist_ok=True)
    for i, (cls, p, rows) in enumerate(sets):
        path = set_dir / f"{i:05d}.txt"
        path.write_text(inputs.set_file_text(p, rows))
        files.append((str(path), cls))
    return sets, files


def run_analyze(run: Run) -> tuple:
    share = TRACED_ANALYZE_SHARE if run.args.trace else 1.0
    count = max(len(inputs.CLASSES),
                round(run.args.seconds * ANALYZE_SETS_PER_S * share))
    batch = inputs.analyze_batch_seed(run.args.seed)
    recorded = load_verdicts().get(str(batch), "")
    if len(recorded) < 2 * count:
        raise RunAborted(f"verdicts.json records {len(recorded) // 2} verdicts for "
                         f"batch seed {batch}; this run needs {count}")
    sets, files = analyze_batch(run, count)
    job = {"kind": "analyze", "sets": files, "pool_workers": 1}
    if not run.args.trace:
        # half the set-up samples before the loop, half after
        for _ in range(MIN_SETUPS // 2):
            run.spawn({"kind": "probe"})
    out = run.spawn(dict(job, trace=False))
    ops = out["ops"]
    check_analyze(run, sets, ops, recorded)
    times = [op["seconds"] for op in ops]
    if not run.args.trace:
        run.probe_setups()
        per_class = {cls: [op["seconds"] for op in ops if op["class"] == cls]
                     for cls in inputs.CLASSES}
        return times, per_class, {}
    # untraced and traced passes alternate (U T U T): per set, the
    # tracing overhead is small next to the host's drift between passes
    passes = [out] + [run.spawn(dict(job, trace=t)) for t in (True, False, True)]
    for o in passes[1:]:
        check_analyze(run, sets, o["ops"], recorded)
    cols = [[op["seconds"] for op in o["ops"]] for o in passes]
    ratios = [(t1 + t2) / (u1 + u2) for u1, t1, u2, t2 in zip(*cols)]
    extra = {"trace.overhead_frac": statistics.median(ratios) - 1}
    traced = passes[1]
    for cls in inputs.CLASSES:
        mine = [op for op in traced["ops"] if op["class"] == cls]
        extra[f"census.analyze.{cls}.sets"] = len(mine)
        extra[f"census.analyze.{cls}.spectral_nodes"] = sum(op.get("nodes", [0, 0])[0] for op in mine)
        extra[f"census.analyze.{cls}.tiling_nodes"] = sum(op.get("nodes", [0, 0])[1] for op in mine)
    return [traced["trace"]], {}, extra


# Untraced, a workload returns (operation seconds, {part: seconds},
# {}); traced, ([tracer snapshot, ...], {}, {per-layer metric: value}).
WORKLOADS = {"verify": run_verify, "falsify": run_falsify, "analyze": run_analyze}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(traces: list, extra: dict) -> dict:
    tr = tracing.merge(traces)
    calls, self_s, counts = tr["calls"], tr["self"], tr["counts"]
    chunks = tr["durations"].get("lemmas.chunk.pooled", [])

    def ratio(a, b):
        return a / b if b else 0.0

    searches = calls["spectral.search"]
    pruned = sum(counts[f"spectral.pruned.{rule}"] for rule in PRUNING_RULES)
    m = {
        "tables.cold_s": self_s["tables.cold"],
        "tables.bytes": counts["tables.bytes"],
        "parallel.chunks": len(chunks),
        "parallel.chunk_p50_s": statistics.median(chunks) if chunks else 0.0,
        "parallel.chunk_max_s": max(chunks, default=0.0),
        "lemmas.chunk_self_s": self_s["lemmas.chunk"] + self_s["lemmas.chunk.pooled"],
        "lemmas.driver_s": self_s["lemmas.driver"],
        "lemmas.sets": counts["lemmas.sets"],
        "sets.pointsets": calls["sets.pointset"],
        "sets.pointset_s": self_s["sets.pointset"],
        "sets.read_set_s": self_s["sets.read_set"],
        "fourier.zero_set_calls": calls["fourier.zero_set"],
        "fourier.zero_set_s": self_s["fourier.zero_set"],
        "fourier.zero_set_nonempty_frac": ratio(counts["fourier.zero_set_nonempty"],
                                                calls["fourier.zero_set"]),
        "geometry.line_sup_calls": calls["geometry.line_sup"],
        "geometry.line_sup_s": self_s["geometry.line_sup"],
        "geometry.direction_stats_s": self_s["geometry.direction_stats"],
        "geometry.plane_sup_s": self_s["geometry.plane_sup"],
        "spectral.search_calls": searches,
        "spectral.search_self_s": self_s["spectral.search"],
        "spectral.size_filtered_frac": ratio(counts["spectral.size_filtered"], searches),
        "spectral.nodes": counts["spectral.nodes"],
        "spectral.nodes_per_search": ratio(counts["spectral.nodes"], searches),
        "spectral.pruned_frac": ratio(pruned, searches),
        "spectral.validate_s": self_s["spectral.validate"],
        "tiling.search_calls": calls["tiling.search"],
        "tiling.search_self_s": self_s["tiling.search"],
        "tiling.nodes": counts["tiling.nodes"],
        "tiling.nodes_per_s": ratio(counts["tiling.nodes"], self_s["tiling.search"]),
        "tiling.size_filtered_frac": ratio(counts["tiling.size_filtered"],
                                           calls["tiling.search"]),
        "tiling.verify_s": self_s["tiling.verify"],
        "cli.report_s": self_s["cli.main"],
        "cli.report_bytes": counts["cli.report_bytes"],
    }
    for rule in PRUNING_RULES:
        m[f"spectral.pruned.{rule}"] = counts[f"spectral.pruned.{rule}"]
    m.update(extra)
    return {name: m.get(name, 0) for name, _ in PER_LAYER}


def end_to_end(run: Run, times: list) -> dict:
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(times),
        "peak_rss_mib": max(run.rss_kib) / 1024,
    }


def stamp(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "seed": args.seed,
        "verify_workers": VERIFY_WORKERS,
        "verify_jobs": [list(j) for j in inputs.VERIFY_JOBS],
        "fuglede_5_2_sizes": list(inputs.FUGLEDE_5_2_SIZES),
        "falsify": dict(inputs.FALSIFY_ARGS, trials=inputs.FALSIFY_TRIALS, workers=1),
        "analyze_sets_per_s": ANALYZE_SETS_PER_S,
    }


def print_summary(args, metrics: dict, units: dict, n: dict, samples: dict,
                  run: Run, st: dict) -> None:
    batch = (f" batch_seed={inputs.analyze_batch_seed(args.seed)}"
             if args.workload == "analyze" else "")
    print(f"# {args.workload} seed={args.seed}{batch} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# stamp " + json.dumps(st, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]:6s} n={n.get(name, 1)}")
    for name, xs in samples.items():
        if xs:
            print(f"{name:42s} p50 {statistics.median(xs):.6g} s  "
                  f"p90 {quantile(xs, 0.9):.6g} s  n={len(xs)}")
    print(f"{'fail_frac':42s} {len(run.failures) / max(1, run.attempted):>16.6g} "
          f"ratio  n={run.attempted}")
    for msg in run.failures[:20]:
        print(f"# FAILED {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "ffspec" / "__init__.py").is_file():
        print("error: run from the root of an ffspec checkout (no src/ffspec here)",
              file=sys.stderr)
        return 2
    state = root / ".perfbench"
    (state / "runs").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as work:
        run = Run(root, Path(work), args)
        try:
            times, samples, extra = WORKLOADS[args.workload](run)
        except RunAborted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    if args.trace:
        metrics = layer_metrics(times, extra)
        units = dict(PER_LAYER)
        n = {}
    else:
        metrics = end_to_end(run, times)
        units = dict(END_TO_END)
        n = {"setup_s": len(run.setups), "wall_s": len(times),
             "peak_rss_mib": len(run.rss_kib)}
        samples = {"operation": times, **samples}
    st = stamp(args)
    print_summary(args, metrics, units, n, samples, run, st)
    record = {
        "stamp": st, "metrics": metrics, "units": units, "samples": n,
        "op_seconds": times if not args.trace else [],
        "setup_seconds": run.setups,
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (state / "runs" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
