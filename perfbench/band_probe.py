#!/usr/bin/env python3
"""Map the exit class of roundtrips across the range-error band (~5 minutes).

    python3 perfbench/band_probe.py

The benchmark workloads keep to inputs that complete, so this probe is
where the known failures are measured: coarse-grid roundtrips over
amplitude x momentum (the ROADMAP coarse configuration) and the
default-grid widths on either side of the acceptance input.  Prints one
line per op with its exit code, error kind and, when it completed, its
sup error, then the failed fraction per grid.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets OMP_NUM_THREADS before numpy is imported
from workloads import COARSE_GRID, DEFAULT_GRID, Op

COARSE = [Op("roundtrip", amplitude=a, momentum=m, grid=COARSE_GRID)
          for a in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0) for m in (0.0, 0.5, 1.0)]
DEFAULT = [Op("roundtrip", amplitude=a, width=w, momentum=m, grid=DEFAULT_GRID)
           for a, w, m in ((0.05, 1.0, 0.0), (0.08, 1.0, 0.0), (0.03, 0.8, 0.0),
                           (0.08, 0.8, 1.0), (0.08, 1.2, 0.0))]


def main() -> int:
    cli = run.import_program()
    scratch = run.ROOT / ".bench_out" / "band_probe"
    try:
        for label, ops in (("coarse", COARSE), ("default", DEFAULT)):
            bench = run.Run(cli, scratch)
            for index, op in enumerate(ops):
                _, outdir = bench.issue(index, op)
                error = outdir / "error.json"
                kind = json.loads(error.read_text())["kind"] if error.exists() else "ok"
                sup = json.loads((outdir / "manifest.json").read_text())["results"][
                    "sup_error"] if kind == "ok" else float("nan")
                print(f"{label} amplitude={op.amplitude} width={op.width} "
                      f"momentum={op.momentum}: {kind} sup_error={sup:.3g}", flush=True)
            print(f"{label}: failed_fraction = {bench.failed}/{bench.attempted} "
                  f"(exit 4: {bench.exits[4]}, check failed: {bench.check_failed})",
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
