#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads algebra --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
reports for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median, next to the bound in BENCHMARK.json.  Then runs
``--trace 1`` once per workload at the first seed and records its per-layer
metrics.  ``--out`` writes all of it as JSON (baseline.json is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summarize(runs),
            "per_layer": run_once(workload, args.seeds[0], args.seconds, trace=1)["metrics"],
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:8s} {name:18s} median {s['median']:.6g} {s['unit']:3s} "
                  f"IQR/median {s['iqr_share']:.4f} (bound {s['bound']})", flush=True)
        print(f"{workload:8s} failed {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
