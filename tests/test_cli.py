import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wkist
from wkist.cli import RunConfig, main
from wkist.lattice import columns_to_csv

SMALL = ["--N", "512", "--N-z", "1024", "--window", "4.5",
         "--decay-floor", "1e-3"]


def run(args, capsys):
    code = main(args)
    capsys.readouterr()
    return code


def write_bad_reflection(indir, scale=3.0, N_z=2048):
    """Reflection data far outside the contraction regime."""
    Z, z_min = 40.0, 0.5
    pts = -Z + (2 * Z / N_z) * np.arange(N_z)
    r = np.where(np.abs(pts) >= z_min, scale * np.exp(-(pts / 15.0) ** 2), 0.0)
    with open(indir / "reflection.csv", "w") as fh:
        fh.write("coordinate,re,im\n")
        for z, v in zip(pts, r):
            fh.write(f"{z:.17g},{v:.17g},0\n")
    (indir / "manifest.json").write_text(json.dumps(
        {"config": {"Z": Z, "N_z": N_z}, "results": {"z_min": z_min, "time": 0.0}}
    ))


def test_roundtrip_pipeline(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["roundtrip", "--outdir", str(out)] + SMALL, capsys) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["sup_error"] < 1e-3
    assert manifest["config"]["N"] == 512
    for name in ("potential.csv", "reconstructed.csv", "hodograph.csv",
                 "cells.csv", "manifest.json"):
        assert (out / name).exists()
    assert not (out / "error.json").exists()


@pytest.mark.filterwarnings("error")
def test_a_tiny_potential_keeps_its_relative_accuracy(tmp_path, capsys):
    # the Jost march's start rule reads q only through ratios of its
    # couplings, so a Gaussian of 1e-300 is marched like one of 1; a rule
    # that skipped steps below a fixed share of 1 would skip them all and
    # reconstruct q = 0
    out = tmp_path / "tiny"
    assert run(["roundtrip", "--outdir", str(out), "--amplitude", "1e-300"] + SMALL, capsys) == 0
    assert json.loads((out / "manifest.json").read_text())["results"]["sup_error"] < 1e-302


def test_forward_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["forward", "--outdir", str(out)] + SMALL, capsys) == 0
    for name in ("reflection.csv", "coefficients.csv", "potential.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["results"] == mb["results"]
    assert ma["versions"] == mb["versions"]


@pytest.mark.parametrize("pipeline", ["forward", "evolve"])
def test_coefficients_have_one_row_per_active_reflection_sample(tmp_path, capsys, pipeline):
    # the forward marches a lam lattice but writes a and b at the band's
    # lam: one coefficients.csv row per active z of reflection.csv, with
    # |r| = |b/a| there (evolution is a unimodular phase)
    out = tmp_path / pipeline
    flags = ["--family", "box", "--amplitude", "0.5", "--momentum", "0.25", "--t", "0.25"]
    assert run([pipeline, "--outdir", str(out)] + SMALL + flags, capsys) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    refl = np.loadtxt(out / "reflection.csv", delimiter=",", skiprows=1)
    coeff = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1)
    z = refl[:, 0]
    active = (np.abs(z) >= results["z_min"]) & (z != 0.0)
    assert coeff.shape == (np.count_nonzero(active), 5)
    np.testing.assert_array_equal(coeff[:, 0], -1.0 / z[active])
    r = refl[active, 1] + 1j * refl[active, 2]
    a = coeff[:, 1] + 1j * coeff[:, 2]
    b = coeff[:, 3] + 1j * coeff[:, 4]
    assert np.max(np.abs(np.abs(r) - np.abs(b / a))) < 1e-12
    assert np.all(refl[~active, 1:] == 0.0)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: a CLI run must not pay for importing it
    src = str(Path(wkist.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, wkist.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_inverse_consumes_forward_output(tmp_path, capsys):
    fwd, inv = tmp_path / "fwd", tmp_path / "inv"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    assert run(["inverse", "--input", str(fwd), "--outdir", str(inv)]
               + SMALL, capsys) == 0
    rec = json.loads((inv / "manifest.json").read_text())
    assert rec["results"]["worst_residual"] < 1e-9
    # the reconstruction matches the potential the forward run saw
    pot = np.loadtxt(fwd / "potential.csv", delimiter=",", skiprows=1)
    got = np.loadtxt(inv / "reconstructed.csv", delimiter=",", skiprows=1)
    gap = np.abs((got[:, 1] + 1j * got[:, 2]) - (pot[:, 1] + 1j * pot[:, 2]))
    assert np.max(gap) < 1e-3


def test_inverse_without_input_evolves_its_own_forward(tmp_path, capsys):
    # with no --input the inverse runs the forward map in memory: at t it
    # reconstructs the potential compare-pde's scattering route writes
    inv, cmp = tmp_path / "inv", tmp_path / "cmp"
    flags = SMALL + ["--t", "0.05"]
    assert run(["inverse", "--outdir", str(inv)] + flags, capsys) == 0
    assert run(["compare-pde", "--outdir", str(cmp)] + flags, capsys) == 0
    assert (inv / "reconstructed.csv").read_bytes() == (cmp / "scattering_route.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512, "N_z": 1024, "window": 4.5,
                               "decay_floor": 1e-3, "amplitude": 0.04}))
    out = tmp_path / "out"
    assert run(["forward", "--config", str(cfg), "--outdir", str(out),
                "--amplitude", "0.03"], capsys) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["amplitude"] == 0.03   # flag beats file
    assert manifest["config"]["N"] == 512            # file beats default


def test_unknown_config_field_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512, "amplitud": 0.04}))
    assert run(["forward", "--config", str(cfg),
                "--outdir", str(tmp_path / "o")], capsys) == 2


@pytest.mark.parametrize("config", [
    {"N": "abc"}, {"N": 512.5}, {"N": True}, {"amplitude": "0.04"}, {"width": 10**400},
    {"outdir": 5}, {"pipeline": 3}, [1, 2], "N",
], ids=["str-int", "fraction-int", "bool-int", "str-float", "huge-float", "int-str",
        "int-pipeline", "array", "string"])
def test_wrongly_typed_config_exits_2(tmp_path, capsys, config):
    # each field takes only its own JSON type, and the file holds an object
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["forward", "--config", str(cfg), "--outdir", str(tmp_path / "o")] + SMALL)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00garbage", b"{not json"],
                         ids=["undecodable", "not-json"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code = main(["forward", "--config", str(cfg), "--outdir", str(tmp_path / "o")] + SMALL)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err


@pytest.mark.parametrize("flags", [
    ["--decay-floor", "nan"], ["--a-floor", "nan"], ["--decay-floor", "-1"],
    ["--Z", "1e308"],
], ids=["nan-decay-floor", "nan-a-floor", "negative-decay-floor", "overflowing-Z"])
def test_bad_guard_threshold_or_grid_value_exits_2(tmp_path, capsys, flags):
    # a NaN threshold would switch its guard off, a negative one trip it
    # on every run; a grid width that overflows is no grid
    code = main(["roundtrip", "--outdir", str(tmp_path / "o")] + SMALL + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err


@pytest.mark.parametrize("pipeline, flags", [
    ("forward", ["--t", "nan"]), ("forward", ["--t", "inf"]), ("forward", ["--window", "nan"]),
    ("forward", ["--window", "inf"]), ("forward", ["--window", "-1"]),
    ("roundtrip", ["--t", "nan"]),
], ids=["forward-nan-t", "forward-infinite-t", "forward-nan-window", "forward-infinite-window",
        "forward-negative-window", "roundtrip-nan-t"])
def test_non_finite_t_or_bad_window_exits_2(tmp_path, capsys, pipeline, flags):
    # the z_min bisection would take them and resolve a grid floor of
    # 1e-9 or 0; roundtrip would fail later as a numerical range error
    out = tmp_path / "o"
    code = main([pipeline, "--outdir", str(out)] + SMALL + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err
    assert not (out / "manifest.json").exists()


SHAPE_FLAGS = [["--amplitude", "inf"], ["--amplitude", "nan"], ["--center", "inf"],
               ["--center=-inf"], ["--momentum", "inf"]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pipeline, flags", [
    ("forward", ["--width", "inf"]), ("roundtrip", ["--width", "inf"]),
    ("forward", ["--width", "nan"]), ("forward", ["--width", "0"]),
    ("soliton", ["--eta", "inf"]), ("soliton", ["--eta", "nan"]), ("soliton", ["--xi", "nan"]),
] + [(pipeline, flags) for pipeline in ("forward", "roundtrip") for flags in SHAPE_FLAGS],
    ids=["forward-infinite-width", "roundtrip-infinite-width", "forward-nan-width",
         "forward-zero-width", "soliton-infinite-eta", "soliton-nan-eta", "soliton-nan-xi"]
    + [f"{pipeline}-{'='.join(flags)}" for pipeline in ("forward", "roundtrip")
       for flags in SHAPE_FLAGS])
def test_non_finite_shape_parameter_exits_2(tmp_path, capsys, pipeline, flags):
    # an infinite width is no profile: forward ran on it and roundtrip
    # failed as a range error; an infinite eta is no soliton, and was
    # classified as a looped one; an infinite center ran a zero potential,
    # and an infinite amplitude warned before the samples were refused
    out = tmp_path / "o"
    code = main([pipeline, "--outdir", str(out)] + SMALL[:4] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "invalid-argument"
    assert error["message"].startswith(flags[0].lstrip("-").split("=")[0] + " must be")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pipeline, flags, message", [
    ("soliton", ["--xi", "1e300", "--eta", "1"], "xi^2 + eta^2 overflows"),
    ("forward", ["--L", "1e300"], "width 1 is below the grid spacing"),
    ("forward", ["--width", "1e-300"], "width 1e-300 is below the grid spacing"),
    ("soliton", ["--xi", "1e150", "--eta", "1"], "xi = 1e+150, eta = 1: the soliton phases"),
], ids=["soliton-huge-xi", "forward-huge-box", "forward-tiny-width", "soliton-unresolved-xi"])
def test_parameters_out_of_the_grid_or_float_range_exit_2(tmp_path, capsys, pipeline, flags,
                                                           message):
    # a soliton whose xi^2 overflowed, and a profile a box of 1e300 samples
    # once per 1e297, exited 1; a profile narrower than a cell is not
    # sampled; a soliton whose phases turn by 2e149 per cell overflowed
    # cosh and was refused only as non-finite samples
    out = tmp_path / "o"
    code = main([pipeline, "--outdir", str(out), "--N", "256"] + flags)
    assert code == 2
    assert "invalid-argument" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "invalid-argument"
    assert error["message"].startswith(message)


@pytest.mark.filterwarnings("error")
def test_a_soliton_off_the_grid_exits_0(tmp_path, capsys):
    # at t = 1000 the soliton has left the box: sech(chi) is 0 on the grid,
    # where cosh(chi) overflowed and the run exited 1
    out = tmp_path / "o"
    code = main(["soliton", "--outdir", str(out), "--N", "512", "--t", "1000"])
    assert code == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert results["grid_peak"] == 0.0 and results["residual_sups"] == [0.0, 0.0, 0.0]
    # a residual of 0 gives no ratio
    assert results["residual_ratios"] == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["1.5", "2"])
def test_a_soliton_at_the_box_ends_exits_2(tmp_path, capsys, t):
    # the soliton runs at speed 4 xi = 12: at t = 1.5 its tail is 0.018 at
    # the box end, and at t = 2 it has crossed the periodic box's seam,
    # where the residual check's spectral derivative saw a sup of 0.11
    # against a grid peak of 3.6e-4
    out = tmp_path / "o"
    code = main(["soliton", "--outdir", str(out), "--N", "512", "--t", t])
    assert code == 2
    assert "at the box ends" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


@pytest.mark.filterwarnings("error")
def test_a_soliton_below_the_decay_floor_reports_no_ratios(tmp_path, capsys):
    # at t = 30 the grid holds 5e-296 of the soliton's tail: the residual
    # sups are rounding, whose ratios read 0.99998 where O(dt^2) reads 4
    out = tmp_path / "o"
    assert run(["soliton", "--outdir", str(out), "--N", "512", "--t", "30"], capsys) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert results["grid_peak"] < 1e-6
    assert results["residual_ratios"] == []


@pytest.mark.filterwarnings("error")
def test_a_non_finite_jost_march_exits_4(tmp_path, capsys):
    # on a box of half-width 1e-300 the march overflows: a numerical
    # failure, not samples refused as non-finite, and no warning escapes
    out = tmp_path / "o"
    code = main(["forward", "--outdir", str(out), "--N", "256", "--N-z", "512", "--L", "1e-300"])
    assert code == 4
    assert "numerical-error" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["kind"] == "numerical-error"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L", ["1e300", "8e307"])
def test_a_lam_lattice_beyond_its_cap_exits_4(tmp_path, capsys, L):
    # a zero potential on a box of half-width 1e300 needs a lam lattice of
    # 3e301 nodes: it exited 1 from numpy's allocation, and is refused
    # before; at 8e307 the node count itself overflows
    out = tmp_path / "o"
    code = main(["forward", "--outdir", str(out), "--N", "256", "--L", L, "--family", "zero"])
    assert code == 4
    assert "resolution-exceeded" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "resolution-exceeded"
    assert error["message"].startswith("the lam lattice needs")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--center", "1e160"],
                                   ["--family", "sech", "--center", "1e300"]],
                         ids=["gaussian", "sech"])
def test_a_profile_far_off_the_box_is_zero_without_a_warning(tmp_path, capsys, flags):
    # the Gaussian's square and the sech's cosh overflow to inf there: the
    # overflow warning escaped, and under -W error the run exited 1
    out = tmp_path / "o"
    assert main(["forward", "--outdir", str(out)] + SMALL[:4] + flags) == 0
    capsys.readouterr()
    q = np.loadtxt(out / "potential.csv", delimiter=",", skiprows=1)
    assert np.all(q[:, 1:] == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pipeline, momentum", [("roundtrip", "1000"), ("forward", "-41")])
def test_a_carrier_the_grid_does_not_resolve_exits_2(tmp_path, capsys, pipeline, momentum):
    # on the 512-point grid of L = 20, pi/h = 40.2: a carrier turning by
    # more than pi per cell aliases, and roundtrip reported a sup_error of
    # the whole amplitude
    out = tmp_path / "o"
    code = main([pipeline, "--outdir", str(out)] + SMALL + ["--momentum", momentum])
    assert code == 2
    assert "invalid-argument" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "invalid-argument"
    assert error["message"].startswith(f"momentum {momentum} turns the carrier")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pipeline, flags", [
    ("forward", ["--width", "30"]), ("forward", ["--family", "sech", "--width", "3"]),
    ("evolve", ["--family", "box", "--width", "25"]), ("forward", ["--family", "file"]),
], ids=["gaussian", "sech", "box", "file"])
def test_a_profile_the_box_does_not_hold_exits_2(tmp_path, capsys, pipeline, flags):
    # |q| is 0.032, 1.3e-4, 0.05 and 1e-3 at the box ends, above the
    # default decay floor of 1e-6 the reconstruction's ends are held to
    if flags == ["--family", "file"]:
        x = -20.0 + 40.0 / 512 * np.arange(512)
        columns_to_csv(tmp_path / "q.csv", ["coordinate", "re", "im"],
                       [x, 1e-3 + 0.05 * np.exp(-x ** 2), 0 * x])
        flags = flags + ["--input", str(tmp_path / "q.csv")]
    out = tmp_path / "o"
    code = main([pipeline, "--outdir", str(out)] + SMALL[:4] + flags)
    assert code == 2
    assert "invalid-argument" in capsys.readouterr().err
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "invalid-argument"
    assert "at the box ends, above the decay floor 1e-06" in error["message"]


def test_window_without_two_sweep_cells_exits_2(tmp_path, capsys):
    # a window holding one grid point leaves no sweep to integrate
    out = tmp_path / "o"
    code = main(["roundtrip", "--outdir", str(out)] + SMALL[:4] + ["--window", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid-argument" in err
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


def test_config_takes_integral_numbers_for_int_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512.0, "amplitude": 1}))
    out = tmp_path / "out"
    assert run(["forward", "--config", str(cfg), "--outdir", str(out)]
               + SMALL[2:], capsys) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["N"] == 512 and isinstance(config["N"], int)
    assert config["amplitude"] == 1.0 and isinstance(config["amplitude"], float)


@pytest.mark.parametrize("flags", [["--no-tail"], ["--tail"], ["--z-min", "0.5"],
                                   ["--cfl", "0.2"]], ids=["no-tail", "tail", "z-min", "cfl"])
def test_retired_flags_exit_2(tmp_path, capsys, flags):
    # tail completion is always on, z_min is always the resolved one and
    # the PDE oracle's step is always pde_oracle.CFL h^2
    with pytest.raises(SystemExit) as exit_:
        main(["roundtrip", "--outdir", str(tmp_path / "o")] + SMALL + flags)
    capsys.readouterr()
    assert exit_.value.code == 2


@pytest.mark.parametrize("config", [{"tail": False}, {"z_min": 0.5}], ids=["tail", "z-min"])
def test_retired_config_fields_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["roundtrip", "--config", str(cfg), "--outdir", str(tmp_path / "o")] + SMALL)
    assert code == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["forward", "--family", "file", "--outdir", str(out)]
               + SMALL, capsys) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"


def test_unknown_family_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["forward", "--family", "nosuch", "--outdir", str(out)] + SMALL, capsys) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert "'nosuch'" in err["message"]


def test_potential_samples_under_another_header_exit_2(tmp_path, capsys):
    samples, out = tmp_path / "q.csv", tmp_path / "out"
    samples.write_bytes(b"x,re,im\n-20,0,0\n20,0,0\n")
    assert run(["forward", "--family", "file", "--input", str(samples),
                "--outdir", str(out)] + SMALL, capsys) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert err["message"] == f"{samples}: expected header coordinate,re,im"


@pytest.mark.parametrize("manifest", [
    None, "{not json", {"config": {"N_z": 2048}}, {"config": {"Z": 40.0, "N_z": 2048}},
    {"config": {"Z": "forty", "N_z": 2048}, "results": {"z_min": 0.5, "time": 0.0}},
])
def test_unreadable_reflection_manifest_exits_2(tmp_path, capsys, manifest):
    # a missing, malformed or incomplete forward manifest is bad input
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    write_bad_reflection(indir)
    if manifest is None:
        (indir / "manifest.json").unlink()
    else:
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (indir / "manifest.json").write_text(text)
    assert run(["inverse", "--input", str(indir), "--outdir", str(out)], capsys) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"


def test_missing_reflection_samples_exit_2(tmp_path, capsys):
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    write_bad_reflection(indir)
    (indir / "reflection.csv").unlink()
    assert run(["inverse", "--input", str(indir), "--outdir", str(out)], capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


def test_reflection_off_its_manifest_grid_exits_2(tmp_path, capsys):
    # samples spanning [-40, 40) must not be read as a [-30, 30) grid just
    # because their count matches
    fwd, out = tmp_path / "fwd", tmp_path / "out"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    manifest = json.loads((fwd / "manifest.json").read_text())
    manifest["config"]["Z"] = 30.0
    (fwd / "manifest.json").write_text(json.dumps(manifest))
    assert run(["inverse", "--input", str(fwd), "--outdir", str(out),
                "--decay-floor", "1e-3"], capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


@pytest.mark.parametrize("value", [1e-5, 0.3])
def test_reflection_inside_the_floor_exits_2(tmp_path, capsys, value):
    # the forward writes r = 0 for |z| < z_min; samples set there are bad
    # input, whether small enough to pass unnoticed or large enough to
    # break the solve
    fwd, out = tmp_path / "fwd", tmp_path / "out"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    z_min = json.loads((fwd / "manifest.json").read_text())["results"]["z_min"]
    rows = np.loadtxt(fwd / "reflection.csv", delimiter=",", skiprows=1)
    inside = np.abs(rows[:, 0]) < z_min
    assert inside.sum() == 13 and not rows[inside, 1:].any()
    rows[inside, 1] = value
    np.savetxt(fwd / "reflection.csv", rows, fmt="%.17g", delimiter=",",
               header="coordinate,re,im", comments="")
    assert run(["inverse", "--input", str(fwd), "--outdir", str(out)] + SMALL, capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


@pytest.mark.filterwarnings("error")
def test_an_inverse_lam_grid_beyond_its_cap_exits_4(tmp_path, capsys):
    # the inverse's lam grid resolves e^{2 i lam x} out to |x| = L + window:
    # the smoke band read on a box of half-width 1e6 would take 5e6 points
    fwd, out = tmp_path / "fwd", tmp_path / "out"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    assert run(["inverse", "--input", str(fwd), "--outdir", str(out), "--N", "512",
                "--L", "1e6", "--window", "1e5"], capsys) == 4
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "resolution-exceeded"
    assert error["message"].startswith("the lam grid needs")


def run_quietly(args, capsys):
    """``run``, and the warnings the run raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args, capsys)
    return code, caught


def set_non_finite(path, pick, value):
    """Write ``value`` into the im column of the row ``pick`` chooses; its line."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    k = int(pick(rows[:, 0]))
    rows[k, 2] = value
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="coordinate,re,im",
               comments="")
    return k + 2  # the header is line 1


@pytest.mark.parametrize("value, band", [(np.inf, "active"), (np.nan, "inactive")])
def test_non_finite_reflection_samples_exit_2(tmp_path, capsys, value, band):
    # the reader refuses them, naming the file and the line: an inf used to
    # pass it with numpy's invalid-value warning and fail later without the
    # file name, and a nan below z_min was reported as data inside the floor
    fwd, out = tmp_path / "fwd", tmp_path / "out"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    z_min = json.loads((fwd / "manifest.json").read_text())["results"]["z_min"]
    outside = band == "inactive"
    line = set_non_finite(fwd / "reflection.csv",
                          lambda z: np.flatnonzero((np.abs(z) < z_min) == outside)[-1], value)
    code, caught = run_quietly(["inverse", "--input", str(fwd), "--outdir", str(out)]
                               + SMALL, capsys)
    assert code == 2 and not caught, [str(w.message) for w in caught]
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert f"{fwd / 'reflection.csv'}: line {line} " in err["message"]


def test_non_finite_potential_samples_exit_2(tmp_path, capsys):
    fwd, out = tmp_path / "fwd", tmp_path / "out"
    assert run(["forward", "--outdir", str(fwd)] + SMALL, capsys) == 0
    samples = fwd / "potential.csv"
    line = set_non_finite(samples, lambda x: np.argmin(np.abs(x)), np.nan)
    code, caught = run_quietly(["forward", "--family", "file", "--input", str(samples),
                                "--outdir", str(out)] + SMALL, capsys)
    assert code == 2 and not caught, [str(w.message) for w in caught]
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"
    assert f"{samples}: line {line} " in err["message"]


BAD_SAMPLE_ROWS = pytest.mark.parametrize(
    "row", [b"1,x,0\n", b"1,0\n", b"1,\xff\xfe,0\n", b"1," + b"9" * 200_000 + b",0\n"],
    ids=["non-numeric", "short-row", "undecodable", "oversized-field"])


@BAD_SAMPLE_ROWS
def test_malformed_reflection_samples_exit_2(tmp_path, capsys, row):
    # a non-numeric value, a short row, bytes that are no text or a field
    # past the csv module's limit in reflection.csv is bad input
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    write_bad_reflection(indir)
    with open(indir / "reflection.csv", "ab") as fh:
        fh.write(row)
    assert run(["inverse", "--input", str(indir), "--outdir", str(out)], capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


@BAD_SAMPLE_ROWS
def test_malformed_potential_samples_exit_2(tmp_path, capsys, row):
    samples, out = tmp_path / "q.csv", tmp_path / "out"
    samples.write_bytes(b"coordinate,re,im\n-20,0,0\n" + row)
    assert run(["forward", "--family", "file", "--input", str(samples),
                "--outdir", str(out)] + SMALL, capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


def test_bound_state_guard_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["forward", "--a-floor", "0.9999", "--outdir", str(out)]
               + SMALL, capsys)
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "possible-bound-state"


@pytest.mark.parametrize("N_z", [512, 2048])
def test_unsolvable_rhp_exits_4(tmp_path, capsys, N_z):
    # the sweeps are the only cell solver: data they cannot solve exits 4
    # on every grid, including those small enough for a dense solve
    bad = tmp_path / "bad"
    bad.mkdir()
    write_bad_reflection(bad, N_z=N_z)
    out = tmp_path / "out"
    code = run(["inverse", "--input", str(bad), "--outdir", str(out),
                "--N", "256", "--window", "2.0"], capsys)
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "rhp-unsolved"


def test_hand_written_band_data_are_carried_in_the_plain_frame(tmp_path, capsys):
    # three complex Gaussians in z, cut at z_min = 0.5 below the floor of
    # 0.86 the forward map picks on this grid: their phase gives a frame
    # of the potential, x_c = -1.35, that the band's edge nodes cannot
    # carry (the interpolant reaches 6.5 times the largest sample), so
    # lam_reflection keeps the plain frame and the inverse solves; in the
    # frame x_c the sweeps diverge and the run exits 4 rhp-unsolved
    from test_rhp_property import ZGRID, random_reflection

    data = tmp_path / "data"
    data.mkdir()
    r = random_reflection(734786019, 0.25)
    columns_to_csv(data / "reflection.csv", ["coordinate", "re", "im"],
                   [ZGRID.points, r.real, r.imag])
    (data / "manifest.json").write_text(json.dumps(
        {"config": {"Z": ZGRID.half_width, "N_z": ZGRID.point_count},
         "results": {"z_min": ZGRID.z_min, "time": 0.0}}))
    out = tmp_path / "out"
    assert run(["inverse", "--input", str(data), "--outdir", str(out), "--N", "512",
                "--decay-floor", "0.1"], capsys) == 0
    cells = np.loadtxt(out / "cells.csv", delimiter=",", skiprows=1, usecols=4)
    assert np.all(cells < 1e-10)


def test_compare_pde_step_budget_exits_4(tmp_path, capsys):
    # 1.02e6 RK4 steps of 0.2 h^2 to t = 800 on this grid, above STEP_CAP
    out = tmp_path / "out"
    code = run(["compare-pde", "--outdir", str(out), "--N", "256", "--N-z", "512",
                "--L", "8", "--window", "3", "--t", "800", "--decay-floor", "1e-2"],
               capsys)
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "resolution-exceeded"


def test_compare_pde_refuses_the_step_budget_before_the_inverse(tmp_path, capsys, monkeypatch):
    # the refusal must not wait for the inverse transform to finish
    def no_inverse(*args, **kwargs):
        raise AssertionError("inverse_transform ran before the step budget was checked")

    monkeypatch.setattr(wkist.cli, "inverse_transform", no_inverse)
    out = tmp_path / "out"
    code = run(["compare-pde", "--outdir", str(out), "--N", "256", "--N-z", "512",
                "--L", "8", "--window", "3", "--t", "800", "--decay-floor", "1e-2"],
               capsys)
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "resolution-exceeded"


def test_soliton_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["soliton", "--outdir", str(out), "--N", "512"], capsys) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    res = manifest["results"]
    assert abs(res["peak"] - 0.75) < 1e-12
    assert abs(res["grid_peak"]) <= 0.75 + 1e-12
    assert not res["bursting"]
    for ratio in res["residual_ratios"]:
        assert ratio > 3.5
    assert (out / "soliton.csv").exists()
    assert (out / "epsilon.csv").exists()


def test_bursting_soliton_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["soliton", "--outdir", str(out), "--N", "512",
                "--xi", "1.0", "--eta", "1.0"], capsys) == 0
    res = json.loads((out / "manifest.json").read_text())["results"]
    assert res["bursting"] is True
    assert res["peak"] is None         # unbounded amplitude
    # the hodograph map compresses the burst cube-rootly in x, so even a
    # grid point ~0.03 away only sees a moderately large amplitude
    assert res["grid_peak"] > 2.0
    assert "residual_ratios" not in res


def test_looped_soliton_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["soliton", "--outdir", str(out), "--N", "256",
                "--xi", "0.3", "--eta", "1.0"], capsys)
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "regime-error"


def test_zero_potential_roundtrip(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["roundtrip", "--family", "zero", "--outdir", str(out)]
               + SMALL, capsys) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["sup_error"] < 1e-14


def test_config_defaults_match_parser():
    # every config field except the pipeline has a flag
    import argparse
    from wkist.cli import _parser
    parser = _parser()
    flags = {a.dest for a in parser._actions
             if isinstance(a, (argparse._StoreAction,
                               argparse.BooleanOptionalAction))}
    from dataclasses import fields
    for f in fields(RunConfig):
        if f.name != "pipeline":
            assert f.name in flags


# -0.0, the smallest subnormal, a huge value, integral floats, ordinary ones
AWKWARD = np.array([-0.0, 5e-324, 1e300, 3.0, -2.0, 0.1, -1.2345678901234567e-7, 0.0])


def reference_csv(path, header, rows):
    """The per-row csv.writer output the column writer must reproduce."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


@pytest.mark.parametrize("width", [3, 5])
def test_column_writer_matches_csv_writer_bytes(tmp_path, width):
    # 600 rows: more than one block of the writer's rows
    header = [f"c{k}" for k in range(width)]
    columns = [np.resize(np.roll(AWKWARD, k) * (-1) ** k, 600) for k in range(width)]
    reference_csv(tmp_path / "ref.csv", header, zip(*(c.tolist() for c in columns)))
    columns_to_csv(tmp_path / "new.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_column_writer_matches_csv_writer_on_cell_records(tmp_path):
    header = ["x_H", "t", "kind", "iterations", "residual", "abs_dx_m1_12"]
    cells = [
        {"x_H": x, "t": 0.25, "kind": ("Triangular", "DeltaConjugated")[j % 2],
         "iterations": 7 * j, "residual": r, "abs_dx_m1_12": abs(x)}
        for j, (x, r) in enumerate(zip(AWKWARD.tolist(), AWKWARD[::-1].tolist()))
    ]
    reference_csv(tmp_path / "ref.csv", header, ([c[k] for k in header] for c in cells))
    columns_to_csv(tmp_path / "new.csv", header, [[c[k] for c in cells] for k in header],
                   text=("kind", "iterations"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
