import json

import numpy as np
import pytest

from wkist.cli import RunConfig, main

SMALL = ["--N", "512", "--N-z", "1024", "--window", "4.5",
         "--decay-floor", "1e-3"]


def run(args, capsys):
    code = main(args)
    capsys.readouterr()
    return code


def write_bad_reflection(indir, scale=3.0):
    """Reflection data far outside the contraction regime."""
    Z, N_z, z_min = 40.0, 2048, 0.5
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
    assert manifest["results"]["dense_cells"] == 0
    assert manifest["config"]["N"] == 512
    for name in ("potential.csv", "reconstructed.csv", "hodograph.csv",
                 "cells.csv", "manifest.json"):
        assert (out / name).exists()
    assert not (out / "error.json").exists()


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


def test_missing_input_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["forward", "--family", "file", "--outdir", str(out)]
               + SMALL, capsys) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "invalid-argument"


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


BAD_SAMPLE_ROWS = pytest.mark.parametrize(
    "row", ["1,x,0\n", "1,0\n"], ids=["non-numeric", "short-row"])


@BAD_SAMPLE_ROWS
def test_malformed_reflection_samples_exit_2(tmp_path, capsys, row):
    # a non-numeric value or a short row in reflection.csv is bad input
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    write_bad_reflection(indir)
    with open(indir / "reflection.csv", "a") as fh:
        fh.write(row)
    assert run(["inverse", "--input", str(indir), "--outdir", str(out)], capsys) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "invalid-argument"


@BAD_SAMPLE_ROWS
def test_malformed_potential_samples_exit_2(tmp_path, capsys, row):
    samples, out = tmp_path / "q.csv", tmp_path / "out"
    samples.write_text("coordinate,re,im\n-20,0,0\n" + row)
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


def test_unsolvable_rhp_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    write_bad_reflection(bad)
    out = tmp_path / "out"
    code = run(["inverse", "--input", str(bad), "--outdir", str(out),
                "--N", "256", "--window", "2.0"], capsys)
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "rhp-unsolved"


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
