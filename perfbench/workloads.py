"""Seeded op generators for the benchmark workloads.

Every workload is a list of ops.  Op 0 is the workload's anchor: a fixed
reference input whose accuracy figures are reported as the end-to-end
accuracy metrics, so those gate accuracy exactly and do not move with
the seed.  Ops 1.. are drawn from ``random.Random(f"{name}:{seed}")``
inside the workload's ranges; the same seed gives the same ops.  The
program only ever sees the generated CLI flags.

The ranges avoid the inputs that exit 4 (``range-error``) at the commit
the benchmark was defined at -- the benchmark's workloads must complete.
That band is measured separately by ``band_probe.py`` and recorded in
``README.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_GRID = {"L": 20.0, "N": 2048, "Z": 40.0, "N_z": 4096}
COARSE_GRID = {"L": 20.0, "N": 1024, "Z": 40.0, "N_z": 2048, "decay_floor": 1e-4}
# Small enough that every workload's code path runs in about a second; used
# by the self-test only.
TOY_GRID = {"L": 20.0, "N": 512, "Z": 40.0, "N_z": 1024, "decay_floor": 1e-3}


@dataclass(frozen=True)
class Op:
    pipeline: str
    family: str = "gaussian"
    amplitude: float = 0.05
    width: float = 1.0
    center: float = 0.0
    momentum: float = 0.0
    t: float = 0.0
    grid: dict = field(default_factory=dict)

    def argv(self, outdir) -> list[str]:
        args = [self.pipeline, "--outdir", str(outdir), "--family", self.family]
        for name in ("amplitude", "width", "center", "momentum"):
            args += ["--" + name, repr(getattr(self, name))]
        if self.pipeline != "roundtrip":
            args += ["--t", repr(self.t)]
        for name, value in self.grid.items():
            args += ["--" + name.replace("_", "-"), repr(value)]
        return args

    def profile(self, x: np.ndarray) -> np.ndarray:
        """The input potential, computed independently of the program."""
        a, w, c, m = self.amplitude, self.width, self.center, self.momentum
        mod = np.exp(1j * m * x) if m else 1.0 + 0j
        if self.family == "gaussian":
            return a * np.exp(-(((x - c) / w) ** 2)) * mod
        if self.family == "sech":
            return a / np.cosh((x - c) / w) * mod
        if self.family == "box":
            return a * (np.abs(x - c) <= w) * mod
        raise ValueError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    grid: dict
    anchor: Op
    ranges: dict            # parameter -> (low, high) for the seeded ops
    families: tuple = ("gaussian",)
    nominal_op_s: float = 1.0   # with passes, sets how many ops fill --seconds
    # Op time on the reference box swings by up to 30% between machine
    # states lasting a few seconds.  A run therefore repeats its inputs in
    # passes and times each input by its fastest pass; one pass suffices
    # where a single op spans several such swings.
    passes: int = 1

    def input_count(self, seconds: float) -> int:
        """Distinct inputs per run: enough to fill ``seconds`` with all passes.

        Fixed from the arguments, not from the clock, so two runs with the
        same seed and length do the same work and report the same counts.
        """
        return max(2, math.ceil(seconds / (self.nominal_op_s * self.passes)))

    def ops(self, seed: int, seconds: float, grid: dict | None = None) -> list[Op]:
        """The anchor, then seeded inputs in family order within amplitude strata.

        Amplitude sets the Neumann iteration and Magnus substep counts, so
        the seeded inputs split its range into equal strata, one per cycle
        through the families, and every run has the same cost mix.
        """
        grid = self.grid if grid is None else grid
        rng = random.Random(f"{self.name}:{seed}")
        seeded = self.input_count(seconds) - 1
        strata = math.ceil(seeded / len(self.families))
        lo, hi = self.ranges["amplitude"]
        out = [replace(self.anchor, grid=grid)]
        for j in range(seeded):
            stratum, f = divmod(j, len(self.families))
            draw = {k: rng.uniform(a, b) for k, (a, b) in self.ranges.items()
                    if k != "amplitude"}
            draw["amplitude"] = lo + (hi - lo) * (stratum + rng.random()) / strata
            out.append(Op(self.pipeline, family=self.families[f], grid=grid, **draw))
        return out


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="roundtrip-default",
            pipeline="roundtrip",
            grid=DEFAULT_GRID,
            anchor=Op("roundtrip", amplitude=0.05, width=1.0),
            ranges={"amplitude": (0.03, 0.05), "width": (0.95, 1.1)},
            nominal_op_s=19.0,
        ),
        Workload(
            name="forward-scan",
            pipeline="evolve",
            grid=DEFAULT_GRID,
            anchor=Op("evolve", family="box", amplitude=0.5, width=1.0,
                      momentum=0.25, t=0.25),
            ranges={"amplitude": (0.05, 1.0), "width": (0.8, 1.2),
                    "momentum": (0.0, 0.25), "t": (0.0, 0.5)},
            families=("gaussian", "sech", "box"),
            nominal_op_s=0.7,
            passes=3,
        ),
        Workload(
            name="roundtrip-coarse-sweep",
            pipeline="roundtrip",
            grid=COARSE_GRID,
            anchor=Op("roundtrip", amplitude=0.05, width=1.0),
            ranges={"amplitude": (0.05, 0.2), "width": (1.05, 1.2),
                    "momentum": (0.0, 0.3)},
            nominal_op_s=4.5,
            passes=2,
        ),
    ]
}
