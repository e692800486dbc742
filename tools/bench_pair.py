#!/usr/bin/env python3
"""Write a BENCH_<n>.json point: perfbench on two checkouts, in alternating pairs.

    python3 tools/bench_pair.py --before ../wkist-parent --out BENCH_30.json

``--before`` and ``--after`` (default: this checkout) are roots of wkist
checkouts, each with its own ``perfbench/`` and ``src/``.  For every
workload and seed the script runs ``perfbench/run.py --trace 0`` on both,
one pair at a time, the order alternating from pair to pair, so that slow
phases of the machine fall on both sides alike.  It then runs one traced
run of each side (first seed) for the per-layer metrics, and the default
roundtrip at N = 2048 and at the doubled grid for criterion 4's
refinement ratio.  Nothing under ``perfbench/`` is changed; every child
process runs with ``OMP_NUM_THREADS=1``.

The file holds, per workload, seed and side, every end-to-end value, its
median and quartiles, and the number of pairs in which the change's
``op_s`` is lower; per workload and side, every per-layer metric and
counter the traced run prints (layer self times, Cauchy kernel calls, FFT
points, RHP cells, Neumann sweeps, Magnus steps, exit classes and
``trace.missing_wrappers``); and per side the line count of
``src/wkist``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("forward-scan", "roundtrip-default", "roundtrip-coarse-sweep")
END_TO_END = ("setup_s", "op_s", "sup_error", "route_gap_q", "peak_rss_mb")
ENV = {**os.environ, "OMP_NUM_THREADS": "1"}


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run in ``root``; returns its metrics as name -> value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=root, env=ENV, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{root} {workload}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def sup_error(root: Path, *grid: str) -> float:
    """sup_error of the CLI's default roundtrip in ``root``, on the given grid flags."""
    with tempfile.TemporaryDirectory() as outdir:
        cmd = [sys.executable, "-m", "wkist.cli", "roundtrip", "--outdir", outdir, *grid]
        env = {**ENV, "PYTHONPATH": str(root / "src")}
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        return json.loads((Path(outdir) / "manifest.json").read_text())["results"]["sup_error"]


def source_lines(root: Path) -> int:
    """Lines of the package's source files under ``root``."""
    return sum(len(path.read_text().splitlines()) for path in (root / "src" / "wkist").glob("*.py"))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    report = {"pairs": args.pairs, "seconds": args.seconds, "omp_num_threads": 1,
              "workloads": {}}
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {}
        for seed in args.seeds:
            runs = {side: [] for side in sides}
            for pair in range(args.pairs):
                order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
                for side in order:
                    runs[side].append(perfbench(sides[side], workload, seed, args.seconds,
                                                trace=False))
                print(f"{workload} seed {seed} pair {pair}: op_s " + ", ".join(
                    f"{side} {runs[side][-1]['op_s']:.4f}" for side in sides), file=sys.stderr)
            per_seed = {side: {name: summary([run[name] for run in runs[side]])
                               for name in END_TO_END} for side in sides}
            per_seed["after_op_s_lower_in_pairs"] = sum(
                a["op_s"] < b["op_s"] for a, b in zip(runs["after"], runs["before"]))
            before, after = (per_seed[side]["op_s"]["median"] for side in sides)
            per_seed["op_s_change"] = after / before - 1.0
            entry[f"seed {seed}"] = per_seed
        entry["traced"] = {side: perfbench(root, workload, args.seeds[0], args.seconds,
                                           trace=True)
                           for side, root in sides.items()}

    report["src_lines"] = {side: source_lines(root) for side, root in sides.items()}
    report["criterion_4"] = {}
    for side, root in sides.items():
        base = sup_error(root)
        doubled = sup_error(root, "--N", "4096", "--N-z", "8192")
        report["criterion_4"][side] = {"sup": base, "doubled": doubled, "ratio": base / doubled}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
