"""Command-line pipelines tying the transform stages together.

    wkist forward      potential -> reflection data
    wkist evolve       potential -> reflection data at time t
    wkist inverse      reflection data (from a forward run) -> potential
    wkist roundtrip    potential -> data -> potential, with the error
    wkist compare-pde  scattering evolution vs direct integration at time t
    wkist soliton      closed-form soliton profile and its residual check

Configuration comes from an optional JSON file (--config) with
command-line flags overriding individual fields.  Every run writes a
manifest.json echoing the full configuration, library versions, and the
scalar results; runs are deterministic -- no timestamps, no RNG -- so
re-running a configuration reproduces the outputs byte for byte (keep
BLAS single-threaded, e.g. OMP_NUM_THREADS=1, for the dense fallback).

Exit codes: 0 success; 2 bad arguments or configuration; 3 regime
violation (bound states, slope condition); 4 numerical failure
(unresolved RHP, hodograph trouble, blow-up); 1 unexpected error.
On failure an error.json with the error kind and message is left in the
output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .direct_scattering import ScatteringData, evolve_reflection, reflection_coefficient
from .errors import InvalidArgumentError, NumericalError, RegimeError, WkiError
from .lattice import (
    GridFunction,
    gridfunction_to_csv,
    make_spatial_grid,
    make_spectral_grid,
)
from .lax import conserved_E1, make_potential
from .pde_oracle import evolve
from .reconstruction import inverse_transform
from .rhp import suggest_z_min
from .soliton import SolitonParams, soliton_epsilon, soliton_peak, soliton_pde_residual, soliton_q

__all__ = ["RunConfig", "run_forward", "run_evolve", "run_inverse",
           "run_roundtrip", "run_compare_pde", "run_soliton", "main"]


@dataclass
class RunConfig:
    pipeline: str = "forward"
    outdir: str = "out"
    # potential
    family: str = "gaussian"      # gaussian | sech | box | zero | file
    amplitude: float = 0.05
    width: float = 1.0
    center: float = 0.0
    momentum: float = 0.0         # modulation e^{i momentum x}
    input: str = ""               # family=file: sample CSV; inverse: forward outdir
    # grids
    L: float = 20.0
    N: int = 2048
    Z: float = 40.0
    N_z: int = 4096
    z_min: float = -1.0           # negative requests the resolution-based choice
    # time and comparison
    t: float = 0.0
    window: float = 6.0
    tail: bool = True
    decay_floor: float = 1e-6     # see reconstruction.inverse_transform
    cfl: float = 0.2
    a_floor: float = 0.5
    # soliton
    xi: float = 3.0
    eta: float = 1.0


def _build_profile(cfg: RunConfig):
    a, w, c, m = cfg.amplitude, cfg.width, cfg.center, cfg.momentum
    if w <= 0:
        raise InvalidArgumentError("width must be positive")
    mod = (lambda x: np.exp(1j * m * x)) if m else (lambda x: 1.0 + 0j)
    if cfg.family == "gaussian":
        return lambda x: a * np.exp(-(((x - c) / w) ** 2)) * mod(x)
    if cfg.family == "sech":
        return lambda x: a / np.cosh((x - c) / w) * mod(x)
    if cfg.family == "box":
        return lambda x: a * (np.abs(x - c) <= w) * mod(x)
    if cfg.family == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=complex))
    raise InvalidArgumentError(f"unknown potential family {cfg.family!r}")


def _read_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise InvalidArgumentError(f"{path}: cannot read samples ({err})") from err
    if not rows or rows[0][:3] != ["coordinate", "re", "im"]:
        raise InvalidArgumentError(f"{path}: expected header coordinate,re,im")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
        return data[:, 0], data[:, 1] + 1j * data[:, 2]
    except (ValueError, IndexError) as err:
        raise InvalidArgumentError(f"{path}: expected numeric coordinate,re,im rows ({err})") from err


def _make_grids(cfg: RunConfig):
    xgrid = make_spatial_grid(cfg.L, cfg.N)
    z_min = cfg.z_min
    if z_min < 0:
        z_min = suggest_z_min(cfg.Z, cfg.N_z, window=cfg.window, t_max=abs(cfg.t))
    zgrid = make_spectral_grid(cfg.Z, cfg.N_z, z_min=z_min)
    return xgrid, zgrid


def _make_input_potential(cfg: RunConfig, xgrid):
    if cfg.family == "file":
        if not cfg.input:
            raise InvalidArgumentError("family=file needs --input samples.csv")
        coords, values = _read_samples_csv(cfg.input)
        if len(coords) != xgrid.point_count or np.max(
                np.abs(coords - xgrid.points)) > 1e-9:
            raise InvalidArgumentError(
                "sample coordinates do not match the configured grid"
            )
        return make_potential(xgrid, values)
    return make_potential(xgrid, _build_profile(cfg))


def _write_manifest(outdir: Path, cfg: RunConfig, results: dict):
    manifest = {
        "config": asdict(cfg),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "results": results,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )


def _jsonable(d: dict) -> dict:
    out = {}
    for key, val in d.items():
        if isinstance(val, complex):
            out[key] = [val.real, val.imag]
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = val.item()
        else:
            out[key] = val
    return out


def _forward_data(cfg: RunConfig, outdir: Path):
    xgrid, zgrid = _make_grids(cfg)
    p = _make_input_potential(cfg, xgrid)
    gridfunction_to_csv(GridFunction(xgrid, p.q), outdir / "potential.csv")
    sd = reflection_coefficient(p, zgrid, a_floor=cfg.a_floor)
    return xgrid, p, sd


def _write_reflection(sd: ScatteringData, outdir: Path):
    gridfunction_to_csv(GridFunction(sd.zgrid, sd.r), outdir / "reflection.csv")
    with open(outdir / "coefficients.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lam", "a_re", "a_im", "b_re", "b_im"])
        for lam, a, b in zip(sd.lam, sd.a, sd.b):
            writer.writerow([f"{lam:.17g}", f"{a.real:.17g}", f"{a.imag:.17g}",
                             f"{b.real:.17g}", f"{b.imag:.17g}"])


def run_forward(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    _write_reflection(sd, outdir)
    return {
        "time": sd.time,
        "z_min": sd.zgrid.z_min,
        "E1": conserved_E1(p),
        **_jsonable(sd.diagnostics),
    }


def run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    sd_t = evolve_reflection(sd, cfg.t)
    _write_reflection(sd_t, outdir)
    return {
        "time": sd_t.time,
        "z_min": sd.zgrid.z_min,
        "E1": conserved_E1(p),
        **_jsonable(sd.diagnostics),
    }


def _load_reflection(indir: Path) -> ScatteringData:
    path = indir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        c, results = manifest["config"], manifest["results"]
        Z, N_z = float(c["Z"]), int(c["N_z"])
        z_min, time = float(results["z_min"]), float(results["time"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InvalidArgumentError(f"{path}: not a readable forward manifest ({err!r})") from err
    zgrid = make_spectral_grid(Z, N_z, z_min=z_min)
    coords, values = _read_samples_csv(indir / "reflection.csv")
    if len(coords) != zgrid.point_count:
        raise InvalidArgumentError("reflection.csv does not match its manifest grid")
    active = (np.abs(zgrid.points) >= zgrid.z_min) & (zgrid.points != 0.0)
    empty = np.zeros(0, dtype=complex)
    return ScatteringData(zgrid, values, active, empty.real, empty, empty, time=time)


def _write_reconstruction(rec, outdir: Path):
    gridfunction_to_csv(rec.q, outdir / "reconstructed.csv")
    with open(outdir / "hodograph.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_H", "qh_re", "qh_im", "epsilon", "x_explicit"])
        for xh, qh, eps, xe in zip(rec.x_H, rec.q_H, rec.epsilon.values,
                                   rec.x_explicit):
            writer.writerow([f"{xh:.17g}", f"{qh.real:.17g}", f"{qh.imag:.17g}",
                             f"{eps:.17g}", f"{xe:.17g}"])
    with open(outdir / "cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_H", "t", "kind", "iterations", "residual",
                         "solver", "abs_dx_m1_12"])
        for cell in rec.cells:
            writer.writerow([f"{cell['x_H']:.17g}", f"{cell['t']:.17g}",
                             cell["kind"], cell["iterations"],
                             f"{cell['residual']:.17g}", cell["solver"],
                             f"{cell['abs_dx_m1_12']:.17g}"])


def run_inverse(cfg: RunConfig, outdir: Path) -> dict:
    if cfg.input:
        sd = _load_reflection(Path(cfg.input))
        xgrid = make_spatial_grid(cfg.L, cfg.N)
    else:
        xgrid, _, sd = _forward_data(cfg, outdir)
    rec = inverse_transform(sd, cfg.t, xgrid, window=cfg.window,
                            tail_completion=cfg.tail, decay_floor=cfg.decay_floor)
    _write_reconstruction(rec, outdir)
    return {"time": cfg.t, "z_min": sd.zgrid.z_min, **_jsonable(rec.diagnostics)}


def run_roundtrip(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    rec = inverse_transform(sd, 0.0, xgrid, window=cfg.window,
                            tail_completion=cfg.tail, decay_floor=cfg.decay_floor)
    _write_reconstruction(rec, outdir)
    sup_error = float(np.max(np.abs(rec.q.values - p.q)))
    return {
        "sup_error": sup_error,
        "z_min": sd.zgrid.z_min,
        "E1_input": conserved_E1(p),
        **_jsonable(rec.diagnostics),
        **{f"forward_{k}": v for k, v in _jsonable(sd.diagnostics).items()},
    }


def run_compare_pde(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    rec = inverse_transform(sd, cfg.t, xgrid, window=cfg.window,
                            tail_completion=cfg.tail, decay_floor=cfg.decay_floor)
    run = evolve(GridFunction(xgrid, p.q), cfg.t, cfl=cfg.cfl)
    q_pde = run.final.values
    gridfunction_to_csv(rec.q, outdir / "scattering_route.csv")
    gridfunction_to_csv(run.final, outdir / "direct_route.csv")
    sup_gap = float(np.max(np.abs(rec.q.values - q_pde)))

    sd_back = reflection_coefficient(make_potential(xgrid, q_pde), sd.zgrid,
                                     a_floor=cfg.a_floor)
    sd_fwd = evolve_reflection(sd, cfg.t)
    num = np.sqrt(np.trapezoid(np.abs(sd_back.r - sd_fwd.r) ** 2,
                               dx=sd.zgrid.spacing))
    den = np.sqrt(np.trapezoid(np.abs(sd_fwd.r) ** 2, dx=sd.zgrid.spacing))
    return {
        "sup_gap": sup_gap,
        "reflection_rel_l2_gap": float(num / den) if den else 0.0,
        "e1_drift": run.e1_drift,
        "pde_steps": run.steps,
        "z_min": sd.zgrid.z_min,
        **_jsonable(rec.diagnostics),
    }


def run_soliton(cfg: RunConfig, outdir: Path) -> dict:
    params = SolitonParams(xi=cfg.xi, eta=cfg.eta)
    xgrid = make_spatial_grid(cfg.L, cfg.N)
    q = soliton_q(xgrid.points, cfg.t, params)
    eps = soliton_epsilon(xgrid.points, cfg.t, params)
    gridfunction_to_csv(GridFunction(xgrid, q), outdir / "soliton.csv")
    with open(outdir / "epsilon.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coordinate", "epsilon"])
        for x, e in zip(xgrid.points, eps):
            writer.writerow([f"{x:.17g}", f"{e:.17g}"])
    peak = soliton_peak(params)
    results = {
        "bursting": params.bursting,
        "peak": peak if np.isfinite(peak) else None,
        "grid_peak": float(np.max(np.abs(q))),
    }
    if not (params.bursting or params.looped):
        residual = soliton_pde_residual(params, xgrid, t_center=cfg.t or 0.1)
        results["residual_sups"] = residual["sups"]
        results["residual_ratios"] = residual["ratios"]
    return results


_PIPELINES = {
    "forward": run_forward,
    "evolve": run_evolve,
    "inverse": run_inverse,
    "roundtrip": run_roundtrip,
    "compare-pde": run_compare_pde,
    "soliton": run_soliton,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkist",
        description="Scattering-transform toolkit for a hodograph-linked "
                    "derivative Schroedinger flow",
    )
    parser.add_argument("pipeline", choices=sorted(_PIPELINES))
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    for f in fields(RunConfig):
        if f.name == "pipeline":
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, dest=f.name, default=None,
                                type=type(f.default))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(pipeline=args.pipeline)
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        known = {f.name for f in fields(RunConfig)}
        bad = set(raw) - known
        if bad:
            raise InvalidArgumentError(f"unknown config fields: {sorted(bad)}")
        cfg = replace(cfg, **{k: v for k, v in raw.items() if k != "pipeline"})
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if f.name != "pipeline" and getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (WkiError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        results = _PIPELINES[cfg.pipeline](cfg, outdir)
    except WkiError as err:
        (outdir / "error.json").write_text(json.dumps(
            {"kind": err.kind, "message": str(err)}, indent=2) + "\n")
        print(f"error [{err.kind}]: {err}", file=sys.stderr)
        if isinstance(err, InvalidArgumentError):
            return 2
        if isinstance(err, RegimeError):
            return 3
        if isinstance(err, NumericalError):
            return 4
        return 1
    except Exception as err:  # pragma: no cover - defensive
        (outdir / "error.json").write_text(json.dumps(
            {"kind": "unexpected", "message": str(err)}, indent=2) + "\n")
        print(f"unexpected error: {err}", file=sys.stderr)
        return 1

    _write_manifest(outdir, cfg, _jsonable(results))
    for key, val in sorted(_jsonable(results).items()):
        print(f"{key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
