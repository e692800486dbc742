#!/usr/bin/env python3
"""Self-test of the benchmark harness on toy grids (about a minute).

    python3 perfbench/selftest.py

Runs every workload's code path untraced and traced on a toy grid and
checks that

* every metric named in BENCHMARK.json is printed, with its unit;
* tracing leaves manifest.json byte-identical and counters repeat
  (``run.traced`` reports a failure of either as ``correct: false``);
* forward ops make no Cauchy calls and roundtrip ops do;
* an invalid op (``--width 0``) is counted as ``cli.exit_2`` and an op
  whose output fails its check as ``cli.check_failed``;
* a wrapped attribute that does not exist is reported, not fatal.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets OMP_NUM_THREADS before numpy is imported
import spans
from workloads import TOY_GRID, WORKLOADS, Op


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def metric_units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


class WrongInput(Op):
    """An op whose independently computed input disagrees with the program's."""

    def profile(self, x):
        return 2.0 * super().profile(x)


def check_workloads(spec: dict):
    expect(set(WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "BENCHMARK.json and workloads.py name different workloads")
    for name, workload in WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(name, seed=1, seconds=1.0, trace=trace,
                                      grid=TOY_GRID, setup_samples=1)
            json.dumps(result, allow_nan=False)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == metric_units(spec, section),
                   f"{name} trace={trace}: metrics {sorted(got)} do not match "
                   f"BENCHMARK.json {section}")
            if trace:
                calls = result["metrics"]["lattice.cauchy_calls"]["value"]
                expect((calls > 0) == (workload.pipeline == "roundtrip"),
                       f"{name}: {calls} Cauchy calls")
                expect(result["metrics"]["trace.missing_wrappers"]["value"] == 0,
                       f"{name}: some wrapped attributes are missing")
            print(f"ok  {name} trace={int(trace)}")


def check_failure_accounting(cli, scratch):
    bench = run.Run(cli, scratch)
    bench.issue(0, Op("evolve", width=0.0, grid=TOY_GRID))
    expect(bench.exits[2] == 1 and bench.failed == 1, f"width 0: {bench.exits}")
    bench.issue(1, WrongInput("evolve", grid=TOY_GRID))
    expect(bench.check_failed == 1 and bench.failed == 2,
           f"wrong output: {bench.check_failed} check failures")
    print("ok  invalid op counted as cli.exit_2, wrong output as cli.check_failed")


def check_missing_wrapper(cli, scratch):
    bogus = ("wkist.rhp", "_no_such_function", "rhp.neumann_mu_s", spans.SPAN)
    spans.WRAPPED.append(bogus)
    try:
        tracer = spans.Tracer()
        bench = run.Run(cli, scratch)
        bench.issue(0, Op("evolve", grid=TOY_GRID), tracer)
    finally:
        spans.WRAPPED.remove(bogus)
    expect(tracer.missing == ["wkist.rhp._no_such_function"], f"missing: {tracer.missing}")
    expect(bench.failed == 0, "the traced op failed")
    print("ok  missing attribute reported as missing")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    cli = run.import_program()
    scratch = run.ROOT / ".bench_out" / "selftest"
    try:
        check_failure_accounting(cli, scratch)
        check_missing_wrapper(cli, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
