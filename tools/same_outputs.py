#!/usr/bin/env python3
"""Check that two wkist checkouts write the same outputs for the benchmark's ops.

    python3 tools/same_outputs.py --before ../wkist-parent --seeds 1 2 3

``--before`` and ``--after`` (default: this checkout) are roots of wkist
checkouts.  The ops are every op ``perfbench/workloads.py`` of the after
checkout generates for the given seeds at the benchmark's run length of
``SECONDS``, and the CI workflow's pipeline commands: the smoke
and tiny roundtrips, forward and then ``inverse --input`` on its files,
evolve, compare-pde, ``inverse`` without ``--input`` and the two
soliton runs.  Each op runs as ``python -m wkist.cli`` from each
checkout's ``src/``, in a fresh process with ``OMP_NUM_THREADS=1``.
Per op the two sides must give the same exit code, the same CSV files
byte for byte, and the same ``manifest.json`` ``results`` and
``config`` (less ``outdir`` and ``input``, which name the side's own
directories) as JSON.  Nothing
under ``perfbench/`` is changed.  Exits 0 when every op agrees, else 1
and names the first difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20.0  # BENCHMARK.json's run_seconds, which sets how many ops a workload has
SMALL = ["--N", "512", "--N-z", "1024", "--window", "4.5"]
# (outdir, subcommand and its flags), in the order the workflow runs them
CI_OPS = [
    ("ci-smoke", ["roundtrip", *SMALL, "--decay-floor", "1e-3"]),
    ("ci-tiny", ["roundtrip", *SMALL, "--decay-floor", "1e-3", "--amplitude", "1e-300"]),
    ("ci-fwd", ["forward", *SMALL]),
    ("ci-inv", ["inverse", "--input", "ci-fwd", "--N", "512", "--window", "4.5",
                "--decay-floor", "1e-3"]),
    ("ci-evo", ["evolve", *SMALL, "--t", "0.25"]),
    ("ci-cmp", ["compare-pde", *SMALL, "--t", "0.05", "--decay-floor", "1e-3"]),
    ("ci-inv-mem", ["inverse", *SMALL, "--t", "0.05", "--decay-floor", "1e-3"]),
    ("ci-sol", ["soliton", "--N", "512"]),
    ("ci-sol-burst", ["soliton", "--N", "512", "--xi", "1", "--eta", "1"]),
]
UNCOMPARED_CONFIG = ("outdir", "input")


def benchmark_ops(root: Path, seeds: list[int], seconds: float) -> list[tuple[str, list[str]]]:
    """(name, argv) of every distinct op of ``root``'s benchmark, in workload order, each with its
    own outdir."""
    sys.path.insert(0, str(root / "perfbench"))
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    import workloads

    ops, seen = [], set()
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            for k, op in enumerate(workload.ops(seed, seconds)):
                if tuple(op.argv("")) not in seen:
                    seen.add(tuple(op.argv("")))
                    ops.append((f"{name} seed {seed} op {k}", op.argv(f"op{len(ops)}")))
    return ops


def ci_ops() -> list[tuple[str, list[str]]]:
    """(name, argv) of the CI workflow's pipeline commands, each named by its outdir."""
    return [(out, [command, "--outdir", out, *flags]) for out, (command, *flags) in CI_OPS]


def run(root: Path, argv: list[str], workdir: Path) -> tuple[int, dict]:
    """Run one op from ``root``'s ``src/``; returns its exit code and outputs.

    The outputs map each CSV's name to its bytes, and "manifest" to its
    results and config less ``UNCOMPARED_CONFIG``.
    """
    env = {**os.environ, "OMP_NUM_THREADS": "1", "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "wkist.cli", *argv], cwd=workdir, env=env,
                          capture_output=True)
    out = workdir / argv[argv.index("--outdir") + 1]
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    manifest = out / "manifest.json"
    if manifest.exists():
        data = json.loads(manifest.read_text())
        config = {k: v for k, v in data["config"].items() if k not in UNCOMPARED_CONFIG}
        files["manifest"] = {"results": data["results"], "config": config}
    return proc.returncode, files


def first_difference(before: tuple[int, dict], after: tuple[int, dict]) -> str | None:
    """What differs first between two runs' (exit code, outputs), or None."""
    (code_b, files_b), (code_a, files_a) = before, after
    if code_b != code_a:
        return f"exit code {code_b} before, {code_a} after"
    if sorted(files_b) != sorted(files_a):
        return f"outputs {sorted(files_b)} before, {sorted(files_a)} after"
    for name in files_b:
        if files_b[name] == files_a[name]:
            continue
        if name != "manifest":
            lines = zip(files_b[name].splitlines(), files_a[name].splitlines())
            row = next((i for i, (b, a) in enumerate(lines) if b != a), None)
            return f"{name} differs" + ("" if row is None else f" first at line {row + 1}")
        for part in ("results", "config"):
            b, a = files_b[name][part], files_a[name][part]
            keys = [k for k in sorted(set(b) | set(a)) if b.get(k) != a.get(k)]
            if keys:
                key = keys[0]
                return f"manifest {part}[{key!r}]: {b.get(key)!r} before, {a.get(key)!r} after"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    ops = benchmark_ops(sides["after"], args.seeds, SECONDS) + ci_ops()
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, op in ops:
            results = {}
            for side, root in sides.items():
                workdir = Path(tmp) / side
                workdir.mkdir(exist_ok=True)
                results[side] = run(root, op, workdir)
            difference = first_difference(results["before"], results["after"])
            if difference:
                print(f"{name} ({' '.join(op)}): {difference}")
                return 1
            files += len(results["after"][1])
            print(f"{name}: same (exit {results['after'][0]})", file=sys.stderr)
    print(f"{len(ops)} ops, {files} outputs: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
