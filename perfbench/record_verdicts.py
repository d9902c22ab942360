"""Record the analyze verdicts of given batch seeds in perfbench/verdicts.json.

    python3 perfbench/record_verdicts.py SECONDS SEED [SEED ...]

For each batch seed (0 to inputs.ANALYZE_BATCHES - 1), runs the analyze
batch that `run.py --seconds SECONDS` analyzes and stores two letters
per set (spectral, tile: w witness, n none, f size-filtered).  Later
runs on that batch fail a set whose verdict differs.  Run it from the root of a checkout whose verdicts
are trusted; it refuses to record a batch in which any set fails its
other checks.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("seconds", type=int)
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    if any(not 0 <= seed < inputs.ANALYZE_BATCHES for seed in args.seeds):
        ap.error(f"batch seeds run from 0 to {inputs.ANALYZE_BATCHES - 1}")
    root = Path.cwd()
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    path = run.HERE / "verdicts.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        opts = argparse.Namespace(workload="analyze", seed=seed,
                                  seconds=args.seconds, trace=0)
        with tempfile.TemporaryDirectory(dir=state) as work:
            r = run.Run(root, Path(work), opts)
            count = round(args.seconds * run.ANALYZE_SETS_PER_S)
            sets, files = run.analyze_batch(r, count)
            out = r.spawn({"kind": "analyze", "sets": files, "trace": False,
                           "pool_workers": 1})
            run.check_analyze(r, sets, out["ops"], None)
        if r.failures:
            print(f"seed {seed}: not recorded: {r.failures[0]}", file=sys.stderr)
            return 1
        recorded[str(seed)] = "".join(op["verdict"] for op in out["ops"])
        print(f"seed {seed}: {count} sets")
    path.write_text(json.dumps(dict(sorted(recorded.items(), key=lambda kv: int(kv[0]))),
                               indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
