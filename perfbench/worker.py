"""One fresh benchmark process: import ffspec, run one job, write JSON.

    python3 perfbench/worker.py JOB.json OUT.json

The process start is stamped by the parent; "ready" is stamped here
right after `import ffspec`, on the same monotonic clock, so the parent
can compute the set-up time.  Everything the job times runs after that.
"""
import time

import ffspec  # noqa: E402  (first import: it is what set-up measures)

READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import ffspec.cli  # noqa: E402
from ffspec.sets import PointSet, read_set  # noqa: E402
from ffspec.spectral import verify_spectral_pair  # noqa: E402
from ffspec.tiling import verify_tiling_pair  # noqa: E402

import tracing  # noqa: E402

STATUS_CODE = {"witness": "w", "none": "n", "size_filtered": "f", "aborted": "a"}


def canonical_sha256(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def traced_main(argv: list, tracer) -> int:
    if tracer is None:
        return ffspec.cli.main(argv)
    tracer.enter()
    try:
        return ffspec.cli.main(argv)
    finally:
        tracer.exit("cli.main")


def run_cli(argv: list, report: str, tracer) -> dict:
    t0 = time.perf_counter()
    rc = traced_main(argv + ["--report", report], tracer)
    seconds = time.perf_counter() - t0
    op = {"seconds": seconds, "rc": rc}
    if Path(report).is_file():
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += Path(report).stat().st_size
        payload = json.loads(Path(report).read_text())
        op["result"] = payload["result"]
        op["sha256"] = canonical_sha256(payload["result"])
        op["meta_sha256"] = payload["meta"]["result_sha256"]
    return op


def run_library_fuglede(sizes: list, workers: int) -> dict:
    t0 = time.perf_counter()
    report = ffspec.verify_fuglede_small(5, 2, tuple(sizes), workers=workers)
    seconds = time.perf_counter() - t0
    result = report.result_dict()
    return {"seconds": seconds, "rc": 1 if report.counterexamples else 0,
            "result": result, "sha256": canonical_sha256(result)}


def run_analyze(sets: list, report: str, tracer) -> list:
    ops = []
    for path, cls in sets:
        t0 = time.perf_counter()
        rc = traced_main(["analyze", "--set", path, "--report", report], tracer)
        seconds = time.perf_counter() - t0
        op = {"seconds": seconds, "rc": rc, "class": cls}
        if Path(report).is_file():
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += Path(report).stat().st_size
            result = json.loads(Path(report).read_text())["result"]
            op["verdict"] = "".join(
                STATUS_CODE.get(result.get(k, {}).get("status"), "?")
                for k in ("spectral", "tile"))
            op["nodes"] = [result.get(k, {}).get("nodes", 0)
                           for k in ("spectral", "tile")]
            op["size"] = result["size"]
            op["witnesses"] = [result.get(k, {}).get("witness")
                               for k in ("spectral", "tile")]
            Path(report).unlink()
        ops.append(op)
    return ops


def reverify_witnesses(sets: list, ops: list) -> None:
    """The benchmark's own check of every witness, outside the timing."""
    for (path, _), op in zip(sets, ops):
        sw, tw = op.pop("witnesses", (None, None))
        if sw is None and tw is None:
            continue
        E = read_set(path)
        ok = True
        if sw is not None:
            ok &= verify_spectral_pair(E, PointSet.from_coords(E.space, sw))
        if tw is not None:
            ok &= verify_tiling_pair(E, PointSet.from_coords(E.space, tw))
        op["witness_ok"] = bool(ok)


def main(job_path: str, out_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    tracer = None
    patches = []
    if job.get("trace"):
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, job["pool_workers"])
    kind = job["kind"]
    try:
        if kind == "cli":
            ops = [run_cli(job["argv"], job["report"], tracer)]
        elif kind == "library":
            ops = [run_library_fuglede(job["sizes"], job["workers"])]
        elif kind == "analyze":
            ops = run_analyze(job["sets"], job["report"], tracer)
        elif kind == "probe":
            ops = []
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    finally:
        tracing.uninstall(patches)
    if kind == "analyze":
        reverify_witnesses(job["sets"], ops)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "ready": READY,
        "ffspec_file": ffspec.__file__,
        "peak_rss_kib": max(own, children),
        "ops": ops,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
