#!/usr/bin/env python3
"""Closed-loop, single-client benchmark of the wkist CLI pipelines.

    python3 perfbench/run.py --workload roundtrip-default --seed 1 \
        --seconds 10 --trace 0

Runs the workload's seeded ops one at a time through ``wkist.cli.main``
in this process, each writing its normal CSV and manifest output to a
scratch directory under ``.bench_out/``, checks every op's outputs, and
prints one JSON line as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (set-up time, op time, anchor
  accuracy, peak memory), measured with tracing off.  The inputs are run
  in the workload's number of passes; ``op_s`` is the median over inputs
  of each input's fastest pass;
* ``--trace 1``: the per-layer metrics from ``spans.py`` wrappers, after
  asserting on op 0 that tracing leaves ``manifest.json`` byte-identical
  and that a second traced run repeats every counter exactly.

BLAS is pinned to one thread before numpy is imported, which keeps
reductions deterministic and leaves the second core of a 2-core machine
free.  Must be started from the root of a checkout holding ``src/wkist``.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5

# Acceptance thresholds checked on every op (criteria 2-6 of the test suite).
ROUNDTRIP_LIMITS = {"sup_error": 5e-3, "route_gap_q": 1e-3, "max_slope": 1.0}
FORWARD_LIMITS = {"det_defect": 1e-8, "unitarity_defect": 1e-6,
                  "symmetry_defect": 1e-6}
# The benchmark's own recomputation of an output must agree with the
# program's to this relative precision (17-digit CSV round trip).
AGREE = 1e-12

EXIT_CLASSES = (1, 2, 3, 4)


def import_program():
    """Import wkist from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import wkist.cli

    origin = Path(wkist.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"wkist imported from {origin}, not from {ROOT / 'src'}")
    return wkist.cli


def measure_setup(workload: str, seed: int, seconds: float, samples: int) -> float:
    """Median wall time of fresh processes importing wkist and building the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds)]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def call_cli(cli, argv) -> int:
    """Run one pipeline in-process; returns its exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:          # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else 1


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_op(op, outdir: Path) -> tuple[dict, list[str]]:
    """Check one completed op's outputs; returns its results and the failures."""
    results = json.loads((outdir / "manifest.json").read_text())["results"]
    problems = []
    grid = {"L": 20.0, "N": 2048, **op.grid}
    n = int(grid["N"])
    x = -grid["L"] + (2.0 * grid["L"] / n) * np.arange(n)
    q_in = op.profile(x)
    scale = max(1.0, float(np.max(np.abs(q_in))))

    pot = _read_columns(outdir / "potential.csv")
    if pot.shape[0] != n or np.max(np.abs(pot[:, 1] + 1j * pot[:, 2] - q_in)) > AGREE * scale:
        problems.append("potential.csv differs from the generated input")

    if op.pipeline == "roundtrip":
        rec = _read_columns(outdir / "reconstructed.csv")
        sup = float(np.max(np.abs(rec[:, 1] + 1j * rec[:, 2] - q_in)))
        if abs(sup - results["sup_error"]) > AGREE * scale:
            problems.append(f"sup_error {results['sup_error']:.6g} disagrees with "
                            f"reconstructed.csv ({sup:.6g})")
        limits = ROUNDTRIP_LIMITS
    else:
        coeff = _read_columns(outdir / "coefficients.csv")
        a = coeff[:, 1] + 1j * coeff[:, 2]
        b = coeff[:, 3] + 1j * coeff[:, 4]
        refl = _read_columns(outdir / "reflection.csv")
        z = refl[:, 0]
        active = (np.abs(z) >= results["z_min"]) & (z != 0.0)
        r = refl[active, 1] + 1j * refl[active, 2]
        # evolution is a unimodular phase, so |r(t)| = |b/a| at every z
        if r.size != a.size or np.max(np.abs(np.abs(r) - np.abs(b / a))) > AGREE:
            problems.append("reflection.csv does not match |b/a| of coefficients.csv")
        unitarity = float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)))
        if unitarity >= FORWARD_LIMITS["unitarity_defect"]:
            problems.append(f"coefficients.csv unitarity defect {unitarity:.3g}")
        limits = FORWARD_LIMITS
    for key, limit in limits.items():
        if not results[key] < limit:
            problems.append(f"{key} = {results[key]:.6g} is not below {limit:g}")
    return results, problems


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

class Run:
    """Issues ops one at a time and tallies exits, check failures and times."""

    def __init__(self, cli, scratch: Path):
        self.cli = cli
        self.scratch = scratch
        self.op_times: dict[int, list[float]] = {}   # input index -> completed times
        self.exits = {code: 0 for code in EXIT_CLASSES}
        self.check_failed = 0
        self.attempted = 0
        self.dense_cells = 0
        self.anchor_results: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.exits.values()) + self.check_failed

    def issue(self, index: int, op, tracer=None) -> tuple[float, Path]:
        """Run, time and check one op; returns its wall time and output dir."""
        outdir = fresh_dir(self.scratch / "op")
        argv = op.argv(outdir)
        self.attempted += 1
        start = time.perf_counter()
        if tracer is None:
            code = call_cli(self.cli, argv)
        else:
            with tracer.installed(index):
                code = call_cli(self.cli, argv)
        elapsed = time.perf_counter() - start
        print(f"op {index}: {elapsed:.3f} s, exit {code}" + (f" {op}" if code else ""),
              file=sys.stderr)
        if code != 0:
            self.exits[code if code in EXIT_CLASSES else 1] += 1
            return elapsed, outdir
        self.op_times.setdefault(index, []).append(elapsed)
        results, problems = check_op(op, outdir)
        self.dense_cells += int(results.get("dense_cells", 0))
        if index == 0:
            self.anchor_results = results
        if problems:
            self.check_failed += 1
            print(f"op {index}: check failed {op}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, outdir


def end_to_end(run: Run, pipeline: str, setup_s: float) -> dict:
    if not run.anchor_results or not run.op_times:
        raise SystemExit("the anchor op failed, so there is no accuracy to report")
    res = run.anchor_results
    if pipeline == "roundtrip":
        accuracy = (res["sup_error"], res["route_gap_q"])
    else:
        # no potential is reconstructed: the forward map's own error figures
        accuracy = (res["unitarity_defect"], res["det_defect"])
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(min(t) for t in run.op_times.values()), "s"),
        "sup_error": (accuracy[0], "abs"),
        "route_gap_q": (accuracy[1], "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _read_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def traced(run: Run, ops) -> tuple[dict, list[str]]:
    """Trace every op; returns the per-layer metrics and failed trace checks."""
    problems = []
    untraced_s, outdir = run.issue(0, ops[0])
    manifest = _read_bytes(outdir / "manifest.json")

    tracer = spans.Tracer()
    walls = {}
    for index, op in enumerate(ops):
        walls[index], outdir = run.issue(index, op, tracer)
        if index == 0:
            first_op = tracer.snapshot()
            if _read_bytes(outdir / "manifest.json") != manifest:
                problems.append("tracing changed manifest.json of op 0")

    repeat = spans.Tracer()
    run.issue(0, ops[0], repeat)
    if repeat.snapshot() != first_op:
        problems.append(f"counters did not repeat: {first_op} vs {repeat.snapshot()}")

    for index, wall in walls.items():
        spanned = tracer.op_self_time(index)
        if abs(spanned - wall) > 0.01 * wall + 5e-3:
            problems.append(f"op {index}: span self times sum to {spanned:.4f} s, "
                            f"traced wall time is {wall:.4f} s")
    if tracer.missing:
        print("missing from this build: " + ", ".join(tracer.missing), file=sys.stderr)

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (walls[0] - untraced_s, "s")
    metrics["trace.ops"] = (len(ops), "count")
    tracer.write_spans(run.scratch.parent / f"spans-{os.getpid()}.jsonl")
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 grid: dict | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (ROOT / "src" / "wkist").is_dir():
        raise SystemExit(f"no src/wkist under {ROOT}: run from the root of a wkist checkout")
    workload = WORKLOADS[name]
    setup_s = measure_setup(name, seed, seconds, setup_samples)
    cli = import_program()
    ops = workload.ops(seed, seconds, grid)
    scratch = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    run = Run(cli, scratch)
    problems = []
    try:
        if trace:
            metrics, problems = traced(run, ops)
            metrics["rhp.dense_cells"] = (run.dense_cells, "count")
            for code in EXIT_CLASSES:
                metrics[f"cli.exit_{code}"] = (run.exits[code], "count")
            metrics["cli.check_failed"] = (run.check_failed, "count")
            metrics["failed_fraction"] = (run.failed / run.attempted, "ratio")
        else:
            for _ in range(workload.passes):
                for index, op in enumerate(ops):
                    run.issue(index, op)
            metrics = end_to_end(run, workload.pipeline, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print("trace check failed: " + problem, file=sys.stderr)
    completed = sum(len(t) for t in run.op_times.values())
    print(f"{name} seed {seed}: {run.attempted} ops, {completed} completed, "
          f"{run.failed} failed", file=sys.stderr)
    return {
        "correct": run.check_failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
