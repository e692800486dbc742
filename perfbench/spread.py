#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload forward-scan --seeds 1-10 \
        [--out perfbench/baseline.json]

For every end-to-end metric prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), and the quartile distance as a
share of the median next to the metric's bound from BENCHMARK.json.
With ``--out`` the per-run values, the summary and the environment are
merged into that JSON file under the workload's name, which is how
``baseline.json`` was recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "OMP_NUM_THREADS": "1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                         "unit": runs[0]["metrics"][name]["unit"]}
        if name in bounds:
            print(f"{name:14s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound {bounds[name]}")

    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["environment"] = environment()
        record["run_seconds"] = spec["run_seconds"]
        record.setdefault("workloads", {})[args.workload + ("-trace" if args.trace else "")] = {
            "seeds": [r["seed"] for r in runs],
            "summary": summary,
            "runs": runs,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
