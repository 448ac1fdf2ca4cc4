"""Run the benchmark on consecutive seeds and summarise each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 0] [--workloads evolve,census]
                                [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {}
    for w in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        summary[w] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                      "failed_checks": failed, "metrics": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                   "bound": m["bound"], "values": vals}
            summary[w]["metrics"][m["name"]] = row
            print(f"{w:8s} {m['name']:12s} median {med:10.4f} {m['unit']:4s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {row['spread']:6.3f} "
                  f"(bound {m['bound']})  failed checks {failed}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
