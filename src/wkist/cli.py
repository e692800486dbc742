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
re-running a configuration reproduces the outputs byte for byte.  No
pipeline runs a matrix product (the tail completion's serves only the
public ``cauchy_plus``/``cauchy_minus``), and a default roundtrip writes
the same bytes under OMP_NUM_THREADS=1 and 2.

Exit codes: 0 success; otherwise the error's ``exit_code`` (2 bad
arguments or configuration; 3 regime violation, such as bound states or
the slope condition; 4 numerical failure, such as an unresolved RHP,
hodograph trouble or blow-up); 1 unexpected error.  A failed pipeline
leaves an error.json with the error kind and message in the output
directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .direct_scattering import (DEFAULT_A_FLOOR, ScatteringData, evolve_reflection,
                                reflection_coefficient)
from .errors import InvalidArgumentError, WkiError, check_number
from .lattice import (
    GridFunction,
    columns_to_csv,
    gridfunction_to_csv,
    make_spatial_grid,
    make_spectral_grid,
)
from .lax import conserved_E1, make_potential
from .pde_oracle import evolve, step_count
from .reconstruction import DEFAULT_DECAY_FLOOR, inverse_transform
from .rhp import DEFAULT_WINDOW, suggest_z_min
from .soliton import (SolitonParams, check_resolved, soliton_epsilon, soliton_peak,
                      soliton_pde_residual, soliton_q)

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
    # time and comparison
    t: float = 0.0
    window: float = DEFAULT_WINDOW
    decay_floor: float = DEFAULT_DECAY_FLOOR  # see reconstruction.inverse_transform
    a_floor: float = DEFAULT_A_FLOOR
    # soliton
    xi: float = 3.0
    eta: float = 1.0


def _build_profile(cfg: RunConfig, spacing: float):
    a, c, m = (check_number(name, getattr(cfg, name))
               for name in ("amplitude", "center", "momentum"))
    w = check_number("width", cfg.width, 0.0, strict=True)
    if cfg.family == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=complex))
    shape = {
        "gaussian": lambda x: a * np.exp(-(((x - c) / w) ** 2)),
        "sech": lambda x: a / np.cosh((x - c) / w),
        "box": lambda x: a * (np.abs(x - c) <= w),
    }.get(cfg.family)
    if shape is None:
        raise InvalidArgumentError(f"unknown potential family {cfg.family!r}")
    if w < spacing:
        # a profile narrower than a grid cell is not sampled; on a grid
        # as coarse as L = 1e300 the profile itself overflows
        raise InvalidArgumentError(
            f"width {w:g} is below the grid spacing {spacing:g}: the grid does not resolve "
            "the profile (raise N or lower L)")
    if abs(m) * spacing > np.pi:
        # a carrier that turns by more than pi per cell aliases to a slower one
        raise InvalidArgumentError(
            f"momentum {m:g} turns the carrier by {abs(m) * spacing:.3g} rad per grid cell, "
            "above pi: the grid does not resolve it (raise N or lower L)")
    mod = (lambda x: np.exp(1j * m * x)) if m else (lambda x: 1.0 + 0j)

    def profile(x):
        # far from the center the square and cosh overflow to inf, where
        # exp(-inf) = 0 and 1/cosh(inf) = 0 are the exact values
        with np.errstate(over="ignore"):
            return shape(x) * mod(x)

    return profile


def _read_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise InvalidArgumentError(f"{path}: cannot read samples ({err})") from err
    if not rows or rows[0][:3] != ["coordinate", "re", "im"]:
        raise InvalidArgumentError(f"{path}: expected header coordinate,re,im")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
        coords, re, im = data[:, 0], data[:, 1], data[:, 2]
    except (ValueError, IndexError) as err:
        raise InvalidArgumentError(f"{path}: expected numeric coordinate,re,im rows ({err})") from err
    finite = np.isfinite(coords) & np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        line = int(np.argmin(finite)) + 2  # the header is line 1
        raise InvalidArgumentError(f"{path}: line {line} holds a non-finite value")
    return coords, re + 1j * im


def _check_coordinates(coords: np.ndarray, grid, message: str):
    """Refuse samples whose coordinates are not the points of ``grid``."""
    if len(coords) != grid.point_count or np.max(np.abs(coords - grid.points)) > 1e-9:
        raise InvalidArgumentError(message)


def _make_grids(cfg: RunConfig):
    """The spatial grid, and the spectral grid cut at the z_min it resolves."""
    xgrid = make_spatial_grid(cfg.L, cfg.N)
    # Z and N_z are checked before z_min is chosen from them
    make_spectral_grid(cfg.Z, cfg.N_z)
    z_min = suggest_z_min(cfg.Z, cfg.N_z, window=cfg.window, t_max=abs(cfg.t))
    return xgrid, make_spectral_grid(cfg.Z, cfg.N_z, z_min=z_min)


def _make_input_potential(cfg: RunConfig, xgrid):
    if cfg.family == "file":
        if not cfg.input:
            raise InvalidArgumentError("family=file needs --input samples.csv")
        coords, values = _read_samples_csv(cfg.input)
        _check_coordinates(coords, xgrid, "sample coordinates do not match the configured grid")
        return make_potential(xgrid, values)
    return make_potential(xgrid, _build_profile(cfg, xgrid.spacing))


def _write_manifest(outdir: Path, cfg: RunConfig, results: dict):
    manifest = {
        "config": asdict(cfg),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
        },
        "results": results,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _check_box_ends(q: np.ndarray, decay_floor: float):
    """Refuse samples ``q`` above ``decay_floor`` at the box ends: the box does not hold them."""
    end = max(abs(q[0]), abs(q[-1]))
    if end > decay_floor:
        raise InvalidArgumentError(
            f"the potential is {end:.3g} at the box ends, above the decay floor "
            f"{decay_floor:g}: the box does not hold it (raise L)")


def _forward_data(cfg: RunConfig, outdir: Path):
    xgrid, zgrid = _make_grids(cfg)
    p = _make_input_potential(cfg, xgrid)
    gridfunction_to_csv(GridFunction(xgrid, p.q), outdir / "potential.csv")
    sd = reflection_coefficient(p, zgrid, a_floor=cfg.a_floor)
    # the floor the reconstruction's ends are held to; checked after the
    # march, as a march the box cannot carry (L = 1e-300) fails first
    _check_box_ends(p.q, cfg.decay_floor)
    return xgrid, p, sd


def _write_reflection(sd: ScatteringData, outdir: Path):
    gridfunction_to_csv(GridFunction(sd.zgrid, sd.r), outdir / "reflection.csv")
    columns_to_csv(outdir / "coefficients.csv", ["lam", "a_re", "a_im", "b_re", "b_im"],
                   [sd.lam, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag])


def run_forward(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    _write_reflection(sd, outdir)
    return {"time": sd.time, "z_min": sd.zgrid.z_min, "E1": conserved_E1(p), **sd.diagnostics}


def run_evolve(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    sd_t = evolve_reflection(sd, cfg.t)
    _write_reflection(sd_t, outdir)
    return {"time": sd_t.time, "z_min": sd.zgrid.z_min, "E1": conserved_E1(p), **sd.diagnostics}


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
    _check_coordinates(coords, zgrid, "reflection.csv does not match its manifest grid")
    empty = np.zeros(0, dtype=complex)
    return ScatteringData(zgrid, values, empty.real, empty, empty, time=time)


def _write_reconstruction(rec, outdir: Path):
    gridfunction_to_csv(rec.q, outdir / "reconstructed.csv")
    columns_to_csv(outdir / "hodograph.csv", ["x_H", "qh_re", "qh_im", "epsilon", "x_explicit"],
                   [rec.x_H, rec.q_H.real, rec.q_H.imag, rec.epsilon, rec.x_explicit])
    header = ["x_H", "t", "kind", "iterations", "residual", "abs_dx_m1_12"]
    columns_to_csv(outdir / "cells.csv", header, [rec.cells[name] for name in header],
                   text=("kind", "iterations"))


def run_inverse(cfg: RunConfig, outdir: Path) -> dict:
    if cfg.input:
        sd = _load_reflection(Path(cfg.input))
        xgrid = make_spatial_grid(cfg.L, cfg.N)
    else:
        xgrid, _, sd = _forward_data(cfg, outdir)
    rec = inverse_transform(sd, cfg.t, xgrid, window=cfg.window, decay_floor=cfg.decay_floor)
    _write_reconstruction(rec, outdir)
    return {"time": cfg.t, "z_min": sd.zgrid.z_min, **rec.diagnostics}


def run_roundtrip(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    rec = inverse_transform(sd, 0.0, xgrid, window=cfg.window, decay_floor=cfg.decay_floor)
    _write_reconstruction(rec, outdir)
    sup_error = float(np.max(np.abs(rec.q.values - p.q)))
    return {
        "sup_error": sup_error,
        "z_min": sd.zgrid.z_min,
        "E1_input": conserved_E1(p),
        **rec.diagnostics,
        **{f"forward_{k}": v for k, v in sd.diagnostics.items()},
    }


def run_compare_pde(cfg: RunConfig, outdir: Path) -> dict:
    xgrid, p, sd = _forward_data(cfg, outdir)
    # a step budget the flow would exceed is refused before the inverse runs
    step_count(xgrid, cfg.t)
    rec = inverse_transform(sd, cfg.t, xgrid, window=cfg.window, decay_floor=cfg.decay_floor)
    run = evolve(GridFunction(xgrid, p.q), cfg.t)
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
        **rec.diagnostics,
    }


def run_soliton(cfg: RunConfig, outdir: Path) -> dict:
    params = SolitonParams(xi=cfg.xi, eta=cfg.eta)
    xgrid = make_spatial_grid(cfg.L, cfg.N)
    check_resolved(params, xgrid)
    q = soliton_q(xgrid.points, cfg.t, params)
    # the residual check differentiates on the periodic box, where a tail
    # left at one end meets the other end
    _check_box_ends(q, cfg.decay_floor)
    eps = soliton_epsilon(xgrid.points, cfg.t, params)
    gridfunction_to_csv(GridFunction(xgrid, q), outdir / "soliton.csv")
    columns_to_csv(outdir / "epsilon.csv", ["coordinate", "epsilon"], [xgrid.points, eps])
    peak = soliton_peak(params)
    results = {
        "bursting": params.bursting,
        "peak": peak if np.isfinite(peak) else None,
        "grid_peak": float(np.max(np.abs(q))),
    }
    if not (params.bursting or params.looped):
        residual = soliton_pde_residual(params, xgrid, t_center=cfg.t or 0.1)
        results["residual_sups"] = residual["sups"]
        # below the decay floor the O(dt^2) check sees only rounding
        peaked = results["grid_peak"] >= cfg.decay_floor
        results["residual_ratios"] = residual["ratios"] if peaked else []
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
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                            type=type(f.default))
    return parser


_CONFIG_TYPES = {"int": "an integral number", "float": "a finite number", "str": "a string"}


def _config_value(name: str, kind: str, value):
    """A config-file value checked against its ``RunConfig`` field type.

    JSON bools are not numbers here, an integral number such as 512.0 is
    accepted for an int field, and a float field takes any number a float
    holds finitely; anything else is bad input.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind == "float" and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == "str" and isinstance(value, str):
        return value
    raise InvalidArgumentError(
        f"config field {name!r} must be {_CONFIG_TYPES[kind]}, got {value!r}")


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(pipeline=args.pipeline)
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            raise InvalidArgumentError(
                f"{args.config}: not a readable JSON config ({err})") from err
        if not isinstance(raw, dict):
            raise InvalidArgumentError(
                f"config must be a JSON object, got {type(raw).__name__}")
        kinds = {f.name: f.type for f in fields(RunConfig)}
        bad = set(raw) - set(kinds)
        if bad:
            raise InvalidArgumentError(f"unknown config fields: {sorted(bad)}")
        values = {k: _config_value(k, kinds[k], v) for k, v in raw.items()}
        values.pop("pipeline", None)
        cfg = replace(cfg, **values)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if f.name != "pipeline" and getattr(args, f.name, None) is not None
    }
    cfg = replace(cfg, **overrides)
    # checked before any pipeline runs: ``inverse --input`` never reaches
    # the forward's checks of a_floor, window and t
    for name in ("decay_floor", "a_floor", "window"):
        check_number(name, getattr(cfg, name), 0.0)
    check_number("t", cfg.t)
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (WkiError, OSError) as err:
        kind = f" [{err.kind}]" if isinstance(err, WkiError) else ""
        print(f"error{kind}: {err}", file=sys.stderr)
        return 2

    try:
        results = _PIPELINES[cfg.pipeline](cfg, outdir)
    except Exception as err:
        known = isinstance(err, WkiError)
        kind = err.kind if known else "unexpected"
        (outdir / "error.json").write_text(json.dumps(
            {"kind": kind, "message": str(err)}, indent=2) + "\n")
        print(f"error [{kind}]: {err}" if known else f"unexpected error: {err}", file=sys.stderr)
        return err.exit_code if known else 1

    _write_manifest(outdir, cfg, results)
    for key, val in sorted(results.items()):
        print(f"{key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
