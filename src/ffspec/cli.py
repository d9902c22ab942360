"""Command-line front end: analyze set files, run the exhaustive
verifiers, run the randomized falsifier, emit JSON reports.

Report files have two top-level keys: "result" holds the deterministic
payload (alphabetical keys, hashed into meta.result_sha256) and "meta"
holds wall time, worker count, timestamp and host.  Reproducibility
checks should diff only "result".

Exit codes: 0 verified or none found, 1 usage or input error or a
counterexample, 2 inconclusive (budget exhausted in analyze), 3 internal
failure: two routes that must agree disagreed (InternalCheckError), or
a search inside an exhaustive sweep ran out of budget
(SweepBudgetError).  Exit 3 prints one "error:" line on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from time import perf_counter

from .fourier import zero_set
from .geometry import direction_stats, line_sup, plane_sup
from .lemmas import (
    SweepBudgetError,
    falsify_random,
    verify_fuglede_small,
    verify_lm1,
    verify_lm2,
    verify_proj21,
    verify_slab_p3,
)
from .parallel import resolve_workers
from .sets import SetFormatError, read_set
from .spectral import InternalCheckError, spectrum_search
from .tiling import tiling_search

LEMMA_IDS = (
    "lm1", "lm2", "proj21", "slab-p3",
    "fuglede-3-3", "fuglede-3-2", "fuglede-5-2",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for budget-inconclusive runs
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_report(result: dict, elapsed: float, workers: int,
                  path: str | None) -> None:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    payload = {
        "result": result,
        "meta": {
            "elapsed_seconds": round(elapsed, 3),
            "workers": workers,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "host": socket.gethostname(),
            "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:   # main reports it as an input error
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
        "direction_count": (len(direction_stats(E).determined)
                            if E.size >= 2 else 0),
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


def cmd_verify(args) -> int:
    workers = resolve_workers(args.threads)
    runners = {
        "lm1": lambda: verify_lm1(workers=workers),
        "lm2": lambda: verify_lm2(workers=workers),
        "proj21": lambda: verify_proj21(workers=workers),
        "slab-p3": lambda: verify_slab_p3(workers=workers),
        "fuglede-3-3": lambda: verify_fuglede_small(3, 3, (6,),
                                                    workers=workers),
        "fuglede-3-2": lambda: verify_fuglede_small(3, 2, (3, 6),
                                                    workers=workers),
        "fuglede-5-2": lambda: verify_fuglede_small(5, 2, (5, 10, 15, 20),
                                                    workers=workers),
    }
    report = runners[args.lemma]()
    _write_report(report.result_dict(), report.elapsed_seconds,
                  report.workers, args.report)
    if report.counterexamples:
        print(f"{args.lemma}: {len(report.counterexamples)} counterexamples",
              file=sys.stderr)
        return 1
    return 0


def cmd_falsify(args) -> int:
    workers = resolve_workers(args.threads)
    try:
        report = falsify_random(args.p, args.d, args.size, args.trials,
                                args.seed, workers=workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_report(report.result_dict(), report.elapsed_seconds,
                  report.workers, args.report)
    if report.counterexamples:
        print(f"falsify: {len(report.counterexamples)} spectral witnesses",
              file=sys.stderr)
        return 1
    return 0


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
    pv.add_argument("--lemma", required=True, choices=LEMMA_IDS)
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
    # a missing report directory fails before the run, not after it
    report = args.report and Path(args.report)
    if report and not report.parent.is_dir():
        print(f"error: report directory {report.parent} does not exist",
              file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalCheckError, SweepBudgetError) as exc:
        print(f"error: internal failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
