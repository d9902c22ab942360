"""Compare two sets of recorded benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

perfbench/run.py writes one record per run to .perfbench/runs/; move
that directory aside after measuring each commit and pass the two
directories here.  Runs are grouped by workload and trace flag.  For
every metric the base and new medians are printed with their quartiles
and the relative change; end-to-end metrics are judged against their
bound in BENCHMARK.json (the change is "worse" when its median is worse
than the base median by more than the bound, "unresolved" when the
base's own quartile spread is wider than the bound).

Exits with 2, without comparing, when two runs differ in their
environment stamp (host, versions, worker counts, input sizes) in
anything but the seed.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        groups[(rec["stamp"]["workload"], rec["stamp"]["trace"])].append(rec)
    return groups


def comparable(stamp: dict) -> str:
    return json.dumps({k: v for k, v in stamp.items() if k != "seed"}, sort_keys=True)


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for key in sorted(set(base) & set(new)):
        stamps = {comparable(r["stamp"]) for r in base[key] + new[key]}
        if len(stamps) != 1:
            print(f"refusing to compare {key[0]} trace={key[1]}: "
                  "environment stamps differ", file=sys.stderr)
            for s in sorted(stamps):
                print(f"  {s}", file=sys.stderr)
            return 2
        print(f"== {key[0]} trace={key[1]}: base n={len(base[key])}, "
              f"new n={len(new[key])}")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name] for r in base[key]]
            n = [r["metrics"][name] for r in new[key]]
            bq1, bmed, bq3 = quartiles(b)
            _, nmed, _ = quartiles(n)
            change = (nmed - bmed) / bmed if bmed else 0.0
            line = (f"{name:40s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                    f"new {nmed:.6g}  {change:+.1%}")
            if name in e2e:
                bound = e2e[name]["bound"]
                sign = 1 if e2e[name]["better"] == "lower" else -1
                if bmed and (bq3 - bq1) / bmed > bound:
                    verdict = "unresolved"
                elif sign * change > bound:
                    verdict = "worse"
                    status = 1
                else:
                    verdict = "ok"
                line += f"  bound {bound:.0%}: {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
