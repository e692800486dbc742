"""End-to-end acceptance checks for the whole toolkit.

Each criterion prints one verdict line (bypassing pytest's capture, so
the scorecard is visible on any plain ``pytest`` run) and then asserts
its stated tolerances.  The expensive pipeline pieces -- forward data,
roundtrips, the PDE comparison -- are computed once in module-scoped
fixtures and shared.

Criterion 1 is the contract on the Cauchy operators: the Plemelj
identity at grid points and exact projection of ``1/(s +- i)``, whose
samples do not decay inside the window.  The windowed sinc kernel alone
misses their tails by O(1/Z) (3.9e-2 at Z = 40); the public operators
complete the tails from a fit in a basis whose C+- are known in closed
form, which brings the projection error to ~6e-9.
"""

import numpy as np
import pytest

from wkist.cli import RunConfig, run_compare_pde
from wkist.direct_scattering import reflection_coefficient
from wkist.lattice import (
    GridFunction,
    cauchy_minus,
    cauchy_plus,
    make_spatial_grid,
    make_spectral_grid,
)
from wkist.lax import make_potential
from wkist.reconstruction import inverse_transform
from wkist.rhp import DELTA_CONJUGATED, TRIANGULAR, suggest_z_min
from wkist.soliton import (
    SolitonParams,
    soliton_peak,
    soliton_pde_residual,
    soliton_q,
    soliton_qh,
)
from wkist.pde_oracle import evolve
from rhp_cells import cell_solve, dense_solve, fd_slope_gap, lam_data


GAUSSIAN = lambda x: 0.05 * np.exp(-(x**2))


def _report(capfd, n, name, ok, detail):
    with capfd.disabled():
        print(f"criterion {n:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


def _roundtrip(N, N_z):
    xgrid = make_spatial_grid(20.0, N)
    p = make_potential(xgrid, GAUSSIAN)
    z_min = suggest_z_min(40.0, N_z, window=6.0)
    zgrid = make_spectral_grid(40.0, N_z, z_min=z_min)
    sd = reflection_coefficient(p, zgrid)
    rec = inverse_transform(sd, 0.0, xgrid, window=6.0)
    return p, sd, rec, float(np.max(np.abs(rec.q.values - p.q)))


@pytest.fixture(scope="module")
def base():
    return _roundtrip(2048, 4096)


@pytest.fixture(scope="module")
def doubled_sup():
    return _roundtrip(4096, 8192)[3]


@pytest.fixture(scope="module")
def pde_compare(tmp_path_factory):
    cfg = RunConfig(pipeline="compare-pde", t=0.5, decay_floor=1e-4)
    return run_compare_pde(cfg, tmp_path_factory.mktemp("compare_pde"))


def test_criterion_1_plemelj_and_projection(capfd):
    grid = make_spectral_grid(40.0, 4096)
    up = GridFunction(grid, 1.0 / (grid.points + 1j))    # analytic above
    dn = GridFunction(grid, 1.0 / (grid.points - 1j))    # analytic below
    with pytest.warns(UserWarning, match="do not decay"):
        proj = max(
            np.max(np.abs(cauchy_plus(up).values - up.values)),
            np.max(np.abs(cauchy_minus(up).values)),
            np.max(np.abs(cauchy_plus(dn).values)),
            np.max(np.abs(cauchy_minus(dn).values + dn.values)),
        )
        plemelj = max(
            np.max(np.abs(cauchy_plus(f).values - cauchy_minus(f).values - f.values))
            for f in (up, dn)
        )
    ok = plemelj < 1e-14 and proj < 1e-6
    _report(capfd, 1, "plemelj/projection", ok,
            f"plemelj defect {plemelj:.2e} < 1e-14, projection error {proj:.4e} < 1e-6 "
            f"(sinc kernel plus closed-form tail completion, Z = 40)")
    assert plemelj < 1e-14
    assert proj < 1e-6


def test_criterion_2_jost_determinant_and_unitarity(base, capfd):
    _, sd, _, _ = base
    det = sd.diagnostics["det_defect"]
    uni = sd.diagnostics["unitarity_defect"]
    ok = det < 1e-8 and uni < 1e-6
    _report(capfd, 2, "jost det/unitarity", ok,
            f"det defect {det:.2e} < 1e-8, unitarity defect {uni:.2e} < 1e-6")
    assert det < 1e-8
    assert uni < 1e-6


def test_criterion_3_transfer_symmetry(base, capfd):
    _, sd, _, _ = base
    sym = sd.diagnostics["symmetry_defect"]
    ok = sym < 1e-6
    _report(capfd, 3, "transfer symmetry", ok, f"defect {sym:.2e} < 1e-6")
    assert sym < 1e-6


def test_criterion_4_roundtrip_and_refinement(base, doubled_sup, capfd):
    sup = base[3]
    ratio = sup / doubled_sup
    ok = sup < 5e-3 and ratio >= 2.0
    _report(capfd, 4, "roundtrip/refinement", ok,
            f"sup {sup:.3e} < 5e-3, doubled {doubled_sup:.3e}, "
            f"improvement {ratio:.2f}x >= 2x")
    assert sup < 5e-3
    assert ratio >= 2.0


def test_criterion_5_slope_bound_and_kind_independence(base, capfd):
    # both kinds solve x_H = 0 as the inverse solves its cells; the gaps
    # are on the two numbers it reads, the slope and m^(1)_11
    _, sd, rec, _ = base
    max_slope = rec.diagnostics["max_slope"]
    tri, dc = (cell_solve(sd.r, sd.zgrid, kind, [0.0]) for kind in (TRIANGULAR, DELTA_CONJUGATED))
    slope_gap = abs(tri["slope"][0] - dc["slope"][0])
    m11_gap = abs(tri["m11"][0] - dc["m11"][0])
    ok = max_slope < 1.0 and slope_gap < 1e-6 and m11_gap < 1e-6
    _report(capfd, 5, "slope/factorization", ok,
            f"max slope {max_slope:.3e} < 1, kind gap at x_H=0 on the slope "
            f"{slope_gap:.2e} and on m1_11 {m11_gap:.2e} < 1e-6")
    assert max_slope < 1.0
    assert slope_gap < 1e-6
    assert m11_gap < 1e-6


def test_criterion_6_hodograph_consistency(base, capfd):
    rec = base[2]
    gap_eps = rec.diagnostics["route_gap_epsilon"]
    gap_q = rec.diagnostics["route_gap_q"]
    e1_gap = rec.diagnostics["epsilon_vs_E1"]
    ok = gap_eps < 1e-3 and gap_q < 1e-3 and e1_gap < 1e-6
    _report(capfd, 6, "hodograph routes", ok,
            f"route gaps eps {gap_eps:.2e} / q {gap_q:.2e} < 1e-3, "
            f"eps(inf) vs E1 {e1_gap:.2e} < 1e-6")
    assert gap_eps < 1e-3
    assert gap_q < 1e-3
    assert e1_gap < 1e-6


def test_criterion_7_time_evolution_cross_validation(pde_compare, capfd):
    res = pde_compare
    ok = (res["e1_drift"] < 1e-8 and res["sup_gap"] < 1e-2
          and res["reflection_rel_l2_gap"] < 1e-2)
    _report(capfd, 7, "evolution vs oracle", ok,
            f"E1 drift {res['e1_drift']:.2e} < 1e-8, sup gap "
            f"{res['sup_gap']:.2e} < 1e-2, re-scatter rel L2 "
            f"{res['reflection_rel_l2_gap']:.2e} < 1e-2")
    assert res["e1_drift"] < 1e-8
    assert res["sup_gap"] < 1e-2
    assert res["reflection_rel_l2_gap"] < 1e-2


def test_criterion_8_soliton_values(capfd):
    par = SolitonParams(xi=3.0, eta=1.0)
    peak_defect = abs(soliton_peak(par) - 0.75)
    grid = make_spatial_grid(30.0, 2048)
    res = soliton_pde_residual(par, grid, t_center=0.1)
    worst_ratio = min(res["ratios"])
    run = evolve(GridFunction(grid, soliton_q(grid.points, 0.0, par)), 0.25)
    oracle_gap = float(np.max(np.abs(
        run.final.values - soliton_q(grid.points, 0.25, par))))
    ok = peak_defect < 1e-9 and worst_ratio >= 3.5 and oracle_gap < 1e-3
    _report(capfd, 8, "soliton values", ok,
            f"peak defect {peak_defect:.1e} < 1e-9, residual decay "
            f"{worst_ratio:.2f}x >= 3.5x, vs oracle at t=0.25 "
            f"{oracle_gap:.2e} < 1e-3")
    assert peak_defect < 1e-9
    assert worst_ratio >= 3.5
    assert oracle_gap < 1e-3


def test_criterion_9_bursting_trend(capfd):
    par = SolitonParams(xi=1.0, eta=1.0)
    assert par.bursting
    near = max(abs(soliton_qh(1e-4, 0.0, par)), abs(soliton_qh(-1e-4, 0.0, par)))
    far = soliton_qh(0.1, 0.0, par)
    phys_far = soliton_q(-1.5, 0.0, par)
    ok = (near > 1e3 and np.isfinite(far) and abs(far) < 1e3
          and np.isfinite(phys_far))
    _report(capfd, 9, "bursting trend", ok,
            f"|q_H| at 1e-4 from the burst {near:.1e} > 1e3, at 0.1 "
            f"{abs(far):.2f} (finite)")
    assert near > 1e3
    assert np.isfinite(far) and abs(far) < 1e3
    assert np.isfinite(phys_far)


def test_criterion_10_rhp_solver_agreement(base, capfd):
    # coarse-grid data keeps the dense collocation solve affordable
    xgrid = make_spatial_grid(20.0, 512)
    p = make_potential(xgrid, GAUSSIAN)
    zgrid = make_spectral_grid(40.0, 512, z_min=0.9)
    sd = reflection_coefficient(p, zgrid)

    # row 1 of the inverse's solve against the dense solve of the same
    # full-line equation on its lam grid, right-hand side (1, 0)
    solver_gap = 0.0
    worst_res = base[2].diagnostics["worst_residual"]
    grid = lam_data(sd.r, zgrid)[1]
    ones = np.ones(grid.point_count)
    for x_H, kind in ((-0.4, TRIANGULAR), (0.4, DELTA_CONJUGATED)):
        out = cell_solve(sd.r, zgrid, kind, [x_H])
        worst_res = max(worst_res, out["residual"][0])
        [dense] = dense_solve(out["u21"][0], out["u12"][0], [(ones, 0 * ones)], kind, grid)
        for x, d in zip(out["mu"], dense):
            solver_gap = max(solver_gap, float(np.max(np.abs(x[0] - d))))

    # the slope against central differences of the full-line m^(1)_12
    fd_gap = fd_slope_gap(sd.r, zgrid, TRIANGULAR, -0.8)

    ok = solver_gap < 1e-8 and worst_res < 1e-10 and fd_gap < 1e-5
    _report(capfd, 10, "rhp solver", ok,
            f"neumann-dense gap {solver_gap:.2e} < 1e-8, worst residual "
            f"{worst_res:.2e} < 1e-10, derivative vs FD {fd_gap:.2e} < 1e-5")
    assert solver_gap < 1e-8
    assert worst_res < 1e-10
    assert fd_gap < 1e-5
