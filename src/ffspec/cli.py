"""Command-line front end: analyze set files, run the exhaustive
verifiers, run the randomized falsifier, emit JSON reports.

Report files have two top-level keys: "meta" (indented) holds wall
time, worker count, timestamp and host, and "result" the deterministic
payload, encoded once (compact, sorted keys) on one line: the bytes that
meta.result_sha256 hashes; verify and falsify write the LemmaReport's
fields (result_dict).  Wall time is measured here, around the library
call or analyze's searches.  Diff only "result" for reproducibility.

Exit codes: 0 verified or none found, 1 usage or input error or a
counterexample, 2 inconclusive (budget exhausted in analyze), 3 internal
failure: two routes that must agree disagreed (InternalCheckError), a
search inside an exhaustive sweep ran out of budget (SweepBudgetError),
or a worker process died without returning its chunks (WorkerError).
Exit 3 prints one "error:" line on stderr and writes no report, and so
does an interrupt (KeyboardInterrupt), with exit 130.  A report that
cannot be written, to a file or to stdout, is exit 1 with one "error:"
line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import socket
import sys
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from time import perf_counter

from .fourier import zero_set
from .geometry import _direction_counts, line_sup, plane_sup
from .lemmas import (
    SweepBudgetError,
    falsify_random,
    verify_fuglede_small,
    verify_lm1,
    verify_lm2,
    verify_proj21,
    verify_slab_p3,
)
from .parallel import WorkerError, resolve_workers
from .sets import SetFormatError, read_set
from .spectral import InternalCheckError, spectrum_search
from .tiling import tiling_search

# each verifier is looked up when it runs, so a wrapper put on this
# module's verify_* names stays in force
LEMMAS = {
    "lm1": lambda workers: verify_lm1(workers=workers),
    "lm2": lambda workers: verify_lm2(workers=workers),
    "proj21": lambda workers: verify_proj21(workers=workers),
    "slab-p3": lambda workers: verify_slab_p3(workers=workers),
    "fuglede-3-3": lambda workers: verify_fuglede_small(3, 3, (6,),
                                                        workers=workers),
    "fuglede-3-2": lambda workers: verify_fuglede_small(3, 2, (3, 6),
                                                        workers=workers),
    "fuglede-5-2": lambda workers: verify_fuglede_small(
        5, 2, (5, 10, 15, 20), workers=workers),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for budget-inconclusive runs
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_report(result: dict, elapsed: float, workers: int,
                  path: str | None) -> None:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    meta = {
        "elapsed_seconds": round(elapsed, 3),
        "workers": workers,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "host": socket.gethostname(),
        "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    # meta indented; its closing "\n}" gives way to the hashed string
    text = (json.dumps({"meta": meta}, sort_keys=True, indent=2)[:-2]
            + f',\n  "result": {canonical}\n}}\n')
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text)
    except OSError as exc:   # main reports it as an input error
        if path is None:
            # what stdout still buffers would fail again at exit
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ValueError(f"cannot write report: {exc}") from exc


def _search_section(cert) -> dict:
    status = "size_filtered" if cert.size_filtered else cert.verdict
    out = {"status": status, "nodes": cert.nodes_explored}
    if cert.witness is not None:
        out["witness"] = cert.witness.coord_rows()
    return out


def cmd_analyze(args) -> int:
    try:
        E = read_set(args.set)
    except (SetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = perf_counter()
    space = E.space
    result = {
        "p": space.p,
        "d": space.d,
        "size": E.size,
        "line_sup": line_sup(E),
        "direction_count": int(
            (_direction_counts(space.p, space.d, E.indices()) > 0).sum()),
        "zero_set_size": zero_set(E).size,
    }
    if space.d == 3:
        result["plane_sup"] = plane_sup(E)
    aborted = False
    if not args.no_spectral:
        cert = spectrum_search(E, budget=args.budget)
        result["spectral"] = _search_section(cert)
        aborted |= cert.verdict == "aborted"
    if not args.no_tiling:
        cert = tiling_search(E, budget=args.budget)
        result["tile"] = _search_section(cert)
        aborted |= cert.verdict == "aborted"
    _write_report(result, perf_counter() - t0, 1, args.report)
    return 2 if aborted else 0


def _run_lemma(args, name: str, found: str, run) -> int:
    """Time run(workers) at the resolved worker count and write its
    report; a run with counterexamples prints one line and exits 1."""
    workers = resolve_workers(args.threads)
    t0 = perf_counter()
    report = run(workers)
    _write_report(report.result_dict(), perf_counter() - t0, workers,
                  args.report)
    if report.counterexamples:
        print(f"{name}: {len(report.counterexamples)} {found}",
              file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    return _run_lemma(args, args.lemma, "counterexamples", LEMMAS[args.lemma])


def cmd_falsify(args) -> int:
    return _run_lemma(args, "falsify", "spectral witnesses",
                      lambda workers: falsify_random(
                          args.p, args.d, args.size, args.trials, args.seed,
                          workers=workers))


# one parser per process: parse_args does not change it, and a build
# costs a noticeable share of one small analyze run
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffspec",
                     description="exact spectral-set and tiling toolkit "
                                 "for prime-field vector spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a set file")
    pa.add_argument("--set", required=True, help="path to a set file")
    pa.add_argument("--report", default=None, help="report path (default stdout)")
    pa.add_argument("--no-tiling", action="store_true")
    pa.add_argument("--no-spectral", action="store_true")
    pa.add_argument("--budget", type=int, default=10 ** 9,
                    help="search node budget")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run an exhaustive verifier")
    pv.add_argument("--lemma", required=True, choices=LEMMAS)
    pv.add_argument("--threads", type=int, default=None,
                    help="worker count (default FFSPEC_THREADS or 1)")
    pv.add_argument("--report", default=None)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("falsify", help="randomized spectrum hunt")
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--d", type=int, required=True)
    pf.add_argument("--size", type=int, required=True)
    pf.add_argument("--trials", type=int, required=True)
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--threads", type=int, default=None)
    pf.add_argument("--report", default=None)
    pf.set_defaults(func=cmd_falsify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 1) < 1:
        parser.error(f"argument --budget: must be >= 1, got {args.budget}")
    # a report path that cannot be written fails before the run, not after it
    report = None if args.report is None else Path(args.report)
    problem = report is not None and (
        report.is_dir() and f"report path {report} is a directory"
        or not report.parent.exists()
        and f"report directory {report.parent} does not exist"
        or not report.parent.is_dir()
        and f"report directory {report.parent} is not a directory"
        or not os.access(report.parent, os.W_OK)
        and f"report directory {report.parent} is not writable")
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalCheckError, SweepBudgetError, WorkerError) as exc:
        print(f"error: internal failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # run_chunks has already killed and reaped its workers
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
