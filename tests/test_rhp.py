import math

import numpy as np
import pytest

import wkist.rhp
from wkist.direct_scattering import reflection_coefficient
from wkist.errors import InvalidArgumentError, RhpUnsolvedError
from wkist.lattice import GridFunction, SpectralGrid, make_spatial_grid, make_spectral_grid
from wkist.lax import make_potential
from wkist.rhp import (
    DELTA_CONJUGATED,
    NEUMANN_CAP,
    NEUMANN_TOL,
    POINTS_PER_PERIOD,
    TRIANGULAR,
    _delta_shift,
    _half_step,
    _in_w_plus,
    _jump_entries,
    _m0_rows,
    _moment_rows,
    _neumann,
    _solve_batch,
    delta_function,
    lam_grid,
    lam_reflection,
    suggest_z_min,
)
from rhp_cells import (both_rows, cell_solve, dense_solve, exact_residual, fd_slope_gap, jump_batch,
                       lam_data)


def small_reflection(N=1024, N_z=1024, z_min=0.5, amp=0.05):
    """Reflection data of the standard Gaussian at module-test resolution, on its z grid."""
    grid = make_spatial_grid(20.0, N)
    p = make_potential(grid, lambda x: amp * np.exp(-(x**2)))
    zgrid = make_spectral_grid(40.0, N_z, z_min=z_min)
    return reflection_coefficient(p, zgrid)


def small_reflection_z(**kwargs):
    """``small_reflection``'s r and z grid, the arguments of ``lam_data``."""
    sd = small_reflection(**kwargs)
    return sd.r, sd.zgrid


def test_delta_boundary_relation_is_exact():
    r, grid = lam_data(*small_reflection_z())
    dp, dm, Dd = delta_function(GridFunction(grid, r))
    # delta_+ = delta_- (1 + |r|^2): a direct Plemelj consequence
    rel = dp.values - dm.values * (1.0 + np.abs(r) ** 2)
    assert np.max(np.abs(rel)) < 1e-14
    # the boundary values are reciprocal in modulus; the discrete
    # transform leaves a ~2e-9 defect from the padded grid's edges
    assert np.max(np.abs(np.abs(dp.values * dm.values) - 1.0)) < 1e-8
    assert np.max(np.abs(Dd.values * dm.values * dp.values - 1.0)) < 1e-13
    # delta is 1 at lam = 0, z = infinity, where the RHP is normalized
    assert dp.values[grid.point_count // 2] == 1.0


def test_factorization_entries_triangular():
    r, grid = lam_data(*small_reflection_z())
    u21, u12 = _jump_entries(TRIANGULAR, r, grid, np.array([-1.3]))
    # theta = x_H / z = -x_H lam: time enters only through r (evolve_reflection)
    expect = 1.3 * grid.points
    assert np.max(np.abs(u21[0] - r * np.exp(2j * expect))) < 1e-13
    assert np.max(np.abs(u12[0] - np.conj(r) * np.exp(-2j * expect))) < 1e-13
    # one entry per triangle: (2,1) in w_+, (1,2) in w_-
    assert _in_w_plus(TRIANGULAR, 21) and not _in_w_plus(TRIANGULAR, 12)


def test_factorization_entries_delta_conjugated():
    r, grid = lam_data(*small_reflection_z())
    Delta = delta_function(GridFunction(grid, r))[2].values
    u21, u12 = _jump_entries(DELTA_CONJUGATED, r, grid, np.array([0.8]), Delta)
    theta = -0.8 * grid.points
    # the (2,1) entry is rho e^{2 i theta}, rho = r Delta
    assert np.max(np.abs(u21[0] - r * Delta * np.exp(2j * theta))) < 1e-13
    assert np.array_equal(u12, np.conj(u21))
    # the (2,1) entry sits in w_-, the (1,2) entry in w_+
    assert not _in_w_plus(DELTA_CONJUGATED, 21) and _in_w_plus(DELTA_CONJUGATED, 12)
    # d1 = (1/2 pi i) int log(1+|r|^2) ds is purely imaginary
    d1 = _delta_shift(r, grid)
    assert abs(d1.real) < 1e-18
    assert d1.imag != 0.0


def test_build_factorization_rejects_unknown_kind():
    # the jump entries are the factorization: _jump_entries refuses a kind
    # it does not know
    sd = small_reflection()
    with pytest.raises(InvalidArgumentError, match="unknown factorization kind"):
        _jump_entries("Sideways", sd.r, sd.zgrid, np.array([0.0]))


def test_neumann_solution_solves_the_equation():
    sd = small_reflection()
    for x_H, kind in ((-0.7, TRIANGULAR), (0.7, DELTA_CONJUGATED)):
        out = cell_solve(sd.r, sd.zgrid, kind, [x_H])
        assert out["residual"][0] < 1e-10
        assert out["iterations"] < 40
        # mu - I is small in the small-data regime
        assert np.max(np.abs(out["mu"][0] - 1.0)) < 0.1


def test_neumann_and_dense_solvers_agree():
    # both rows of the solver's operator, with the mu right-hand sides,
    # as the two cells of one batch
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    for x_H, kind in ((-0.4, TRIANGULAR), (0.4, DELTA_CONJUGATED)):
        u21, u12, *rhs = both_rows(*jump_batch(r, grid, kind, [x_H]))
        x, _, _, ok, _ = _neumann(u21, u12, *rhs, kind, grid)
        assert ok.all()
        rows = dense_solve(u21[0], u12[0], [(rhs[0][i], rhs[1][i]) for i in range(2)],
                           kind, grid)
        for i, (dense1, dense2) in enumerate(rows):
            assert np.max(np.abs(x[0][i] - dense1)) < 1e-9
            assert np.max(np.abs(x[1][i] - dense2)) < 1e-9


def test_dense_reference_size_cap():
    # the reference collocation solve refuses grids above DENSE_CAP; the
    # sweeps report data far out of the contraction regime on any grid
    sd = small_reflection(N=512, N_z=2048, z_min=0.5)
    grid = SpectralGrid(2.0, 2048)
    r = lam_reflection(sd.r, sd.zgrid, grid)
    r = 40.0 * r / np.max(np.abs(r))
    u21, u12 = jump_batch(r, grid, TRIANGULAR, [-0.5])
    with pytest.raises(RhpUnsolvedError, match="1 of 1 Triangular cells unsolved"):
        _solve_batch(u21, u12, TRIANGULAR, grid)
    ones = np.ones(grid.point_count, dtype=complex)
    with pytest.raises(RhpUnsolvedError, match="dense reference solve capped"):
        dense_solve(u21[0], u12[0], [(ones, 0 * ones)], TRIANGULAR, grid)


def test_recurrence_phases_match_the_exponential():
    # the inverse's cells are equally spaced: past the first row of a
    # batch, each row of e^{2 i theta} is the one before it times
    # e^{-2 i dx lam}; 16 rows at the far end of the default sweep, on
    # the default run's lam grid
    zg = make_spectral_grid(40.0, 4096, z_min=suggest_z_min(40.0, 4096))
    lg = lam_grid(zg, 26.0)
    n = lg.point_count
    x = make_spatial_grid(20.0, 2048).points
    sweep = x[np.abs(x) <= 6.0 + 1e-12]
    iz = -lg.points
    for block in (sweep[:16], sweep[-16:]):
        u21, _ = _jump_entries(TRIANGULAR, np.ones(n), lg, block)
        assert u21.shape == (16, n)
        assert np.max(np.abs(u21 - np.exp(2j * block[:, None] * iz))) <= 1e-13
    # cells that are not equally spaced take the exponential row by row
    block = np.array([-1.0, -0.5, 0.25])
    u21, _ = _jump_entries(TRIANGULAR, np.ones(n), lg, block)
    assert u21.tobytes() == np.exp(2j * (block[:, None] * iz)).tobytes()


def test_phases_of_runs_broken_by_gaps_and_extra_cells_match_the_exponential():
    # a wave of the inverse with a gap where a check cell was solved, and
    # cells of no run after it: each run of three or more equally spaced
    # cells takes the recurrence from its first row, the rest np.exp
    lg = SpectralGrid(2.3, 256)
    iz = -lg.points
    h = 0.1171875
    block = np.concatenate([-h * np.arange(51, 31, -2), -h * np.arange(27, 1, -2),
                            [0.0, -5.923, 0.35]])
    u21, _ = _jump_entries(TRIANGULAR, np.ones(256), lg, block)
    assert np.max(np.abs(u21 - np.exp(2j * block[:, None] * iz))) <= 1e-13
    # the first row of each run, and every row of no run, is np.exp itself
    exact = [0, 10, 23, 24, 25]
    assert u21[exact].tobytes() == np.exp(2j * (block[exact, None] * iz)).tobytes()


def slope_of(mu11, mu12, u21, u12, grid):
    """2i M11(0) M12(0) from row 1 of a solution."""
    m11, m12 = _m0_rows(mu11, mu12, u21, u12, grid)
    return 2j * (1.0 + m11) * m12


@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-2.0, -0.4]),
                                       (DELTA_CONJUGATED, [0.4, 2.0])])
def test_unconverged_cell_raises_without_the_dense_solve(kind, x_H):
    # |r| = 3 is outside the contraction regime and the sweeps diverge:
    # on a grid the dense reference could take (N_z <= DENSE_CAP) the
    # batch is still reported unsolved
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 3.0 * r / np.max(np.abs(r))
    u21, u12 = jump_batch(r, grid, kind, x_H)
    with pytest.raises(RhpUnsolvedError, match=f"2 of 2 {kind} cells unsolved"):
        _solve_batch(u21, u12, kind, grid)
    with pytest.raises(RhpUnsolvedError, match=f"1 of 1 {kind} cells unsolved"):
        _solve_batch(u21[:1], u12[:1], kind, grid)


def test_derivative_solve_matches_finite_differences():
    # the slope the inverse ships, read off M(0) of its solve, against
    # central differences of the full-line moment m^(1)_12, for both kinds
    sd = small_reflection()
    for x_H, kind in ((-0.9, TRIANGULAR), (0.6, DELTA_CONJUGATED)):
        assert fd_slope_gap(sd.r, sd.zgrid, kind, x_H) < 1e-5


def test_moment_derivative_matches_finite_differences():
    # the same check at criterion 10's cell
    sd = small_reflection()
    assert fd_slope_gap(sd.r, sd.zgrid, TRIANGULAR, -0.8) < 1e-5


def test_factorization_kinds_agree_where_both_apply():
    # at x_H = 0 both factorizations are admissible and, after removing
    # the delta conjugation's diagonal shift, must give the same m^(1)_11
    # and slope, the two numbers the inverse reads
    sd = small_reflection()
    tri, dc = (cell_solve(sd.r, sd.zgrid, kind, [0.0]) for kind in (TRIANGULAR, DELTA_CONJUGATED))
    assert abs(tri["m11"][0] - dc["m11"][0]) < 1e-6
    assert abs(tri["slope"][0] - dc["slope"][0]) < 1e-6


def test_factorization_kinds_agree_on_m1_12():
    # conjugation by Delta shifts only the diagonal of m^(1), so the
    # kinds' full-line m^(1)_12 must agree at x_H = 0 too
    sd = small_reflection()
    tri, dc = (cell_solve(sd.r, sd.zgrid, kind, [0.0]) for kind in (TRIANGULAR, DELTA_CONJUGATED))
    assert abs(tri["m12"][0] - dc["m12"][0]) < 1e-6


def test_moments_inherit_the_schwarz_symmetry():
    # for our data r comes from a real potential: m1_11 of the inverse's
    # solve is purely imaginary, and with both rows of the operator
    # solved (the two cells of one batch), m1_12 and -conj(m1_21) agree,
    # up to solver tolerance
    sd = small_reflection()
    assert abs(cell_solve(sd.r, sd.zgrid, TRIANGULAR, [-1.0])["m11"][0].real) < 1e-8
    r, grid = lam_data(sd.r, sd.zgrid)
    u21, u12, *rhs = both_rows(*jump_batch(r, grid, TRIANGULAR, [-1.0]))
    x, _, _, ok, _ = _neumann(u21, u12, *rhs, TRIANGULAR, grid)
    assert ok.all()
    col1, col2 = _moment_rows(*x, u21, u12, grid.spacing)
    assert abs(col2[0] + np.conj(col1[1])) < 1e-8


def test_lam_reflection_carries_the_band_across_the_gap_at_lam_zero():
    # r = c1 z/(z^2 + 1) on the band z_min <= |z| < Z is r(lam) = -c1
    # lam/(1 + lam^2): the grid points in |lam| < 1/Z, where the band has
    # no sample, are interpolated between the band and r(0) = 0
    c1 = 0.08 - 0.015j
    zg = make_spectral_grid(40.0, 4096, z_min=0.31)
    r = np.where(zg.active, c1 * zg.points / (zg.points**2 + 1.0), 0.0)
    # the inverse's default grid: 256 points up to the first z node without
    # data, 0.3125 - h_z; four times finer, the gap holds seven
    lg = lam_grid(zg, 26.0)
    assert lg.half_width == 1.0 / (0.3125 - zg.spacing) and lg.point_count == 256
    lg = SpectralGrid(lg.half_width, 4 * lg.point_count)
    lam = lg.points
    got = lam_reflection(r, zg, lg)
    want = -c1 * lam / (1.0 + lam**2)
    gap = np.abs(lam) < 1.0 / 40.0
    assert np.count_nonzero(gap) >= 3 and got[lg.point_count // 2] == 0.0
    assert np.max(np.abs(got - want)[gap]) < 1e-12
    band = np.abs(lam) <= 1.0 / 0.3125
    assert np.max(np.abs(got - want)[band]) < 1e-9
    # beyond the band: its line up to 1/z_min, then a smooth roll-off that
    # reaches 0 at the grid end, whose mirror the grid lacks
    line = (np.abs(lam) > 1.0 / 0.3125) & (np.abs(lam) <= 1.0 / 0.31)
    assert np.max(np.abs(got - want)[line]) < 1e-5
    rolled = np.abs(lam) > 1.0 / 0.31
    assert np.all(np.abs(got[rolled]) <= np.abs(want[rolled]))
    assert got[0] == 0.0


def test_lam_reflection_interpolates_once_in_the_plain_frame(monkeypatch):
    # a Gaussian centred at x = 8, beyond the smoke grid's window 4.5: its
    # frame is no sweep position, so r is carried in the plain frame, and
    # its interpolant overshoots there; falling back to the same frame took
    # a second, identical interpolation
    xgrid = make_spatial_grid(20.0, 512)
    zgrid = make_spectral_grid(40.0, 1024, z_min=suggest_z_min(40.0, 1024, window=4.5))
    p = make_potential(xgrid, lambda x: 0.05 * np.exp(-((x - 8.0) ** 2)))
    r = reflection_coefficient(p, zgrid, a_floor=0.0).r
    grid = lam_grid(zgrid, 24.5)
    calls = []
    interpolant = wkist.rhp._lagrange_interpolant

    def counting(*args):
        calls.append(args)
        return interpolant(*args)

    monkeypatch.setattr(wkist.rhp, "_lagrange_interpolant", counting)
    got = lam_reflection(r, zgrid, grid, window=4.5)
    assert len(calls) == 1
    # the same bytes as the plain frame's interpolant with no fallback
    monkeypatch.setattr(wkist.rhp, "OVERSHOOT", np.inf)
    assert lam_reflection(r, zgrid, grid, window=4.5).tobytes() == got.tobytes()


def test_lam_solve_needs_no_outer_band():
    # the jump c1 z/(z^2 + 1) decays only like c1/z: a Z = 40 z grid cuts
    # it at |z| = 40, a Z = 160 grid of equal spacing at 160.  On the lam
    # grid both are the whole line, the narrow one with the gap |lam| <
    # 1/40 interpolated, so their moments agree with no band term
    c1 = 0.08 - 0.015j
    x_H = [-0.8, -0.3]
    out = {}
    for Z, N_z in ((40.0, 4096), (160.0, 16384)):
        zg = make_spectral_grid(Z, N_z, z_min=0.31)
        r = np.where(zg.active, c1 * zg.points / (zg.points**2 + 1.0), 0.0)
        out[Z] = cell_solve(r, zg, TRIANGULAR, x_H)
    for key in ("m11", "m12", "slope"):
        assert np.all(np.abs(out[40.0][key] - out[160.0][key]) < 6e-6)


def test_suggest_z_min_scales_with_demand():
    base = suggest_z_min(40.0, 4096, window=6.0, t_max=0.0)
    assert 0.0 < base < 1.0
    assert suggest_z_min(40.0, 4096, window=6.0, t_max=0.5) > base
    assert suggest_z_min(40.0, 4096, window=12.0, t_max=0.0) > base
    assert suggest_z_min(40.0, 8192, window=6.0, t_max=0.0) < base
    # with no phase at all (window 0, t 0) there is nothing to resolve
    assert suggest_z_min(40.0, 4096, window=0.0, t_max=0.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        suggest_z_min(0.5, 8, window=1e6, t_max=0.0)


@pytest.mark.parametrize("t_max", [0.0, 1e300, 1.7e308])
def test_suggest_z_min_keeps_a_floor_below_z_when_a_or_b_overflows(t_max):
    # window h_z / rho = 1e300 * 5e306 / rho overflows, yet the floor is
    # sqrt(a) = 2.0e303, far below Z = 1e307; cbrt(b) <= 5e205 hardly moves it
    hz, rho = 2e307 / 4, 2.0 * math.pi / POINTS_PER_PERIOD
    z = suggest_z_min(1e307, 4, window=1e300, t_max=t_max)
    za = math.sqrt(1e300) * math.sqrt(hz / rho)
    assert z == pytest.approx(za, rel=1e-15)
    # a floor above Z is still refused, also when it leaves the float range
    for Z, window in ((1e300, 1e308), (1.7e308, 1.7e308)):
        with pytest.raises(InvalidArgumentError):
            suggest_z_min(Z, 4, window=window, t_max=t_max)


@pytest.mark.parametrize("kwargs", [{"window": float("nan")}, {"window": -1.0},
                                    {"t_max": float("nan")}],
                         ids=["nan-window", "negative-window", "nan-t_max"])
def test_suggest_z_min_refuses_a_bad_window_or_time(kwargs):
    # a NaN window gave a floor of 1e-9, and a NaN or negative one can
    # resolve no phase
    name = next(iter(kwargs))
    with pytest.raises(InvalidArgumentError, match=f"{name} must be a finite number"):
        suggest_z_min(40.0, 1024, **kwargs)


@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-2.0, -0.4]),
                                       (DELTA_CONJUGATED, [0.4, 2.0])])
def test_neumann_residual_is_the_exact_residual(kind, x_H):
    # the residual the sweeps report must be that of the iterate they
    # return, recomputed independently; tol 1e-6 keeps it far above the
    # round-off of the recomputation
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 0.6 * r / np.max(np.abs(r))
    u21, u12, *mu_rhs = both_rows(*jump_batch(r, grid, kind, x_H))

    def check(rhs):
        x, res, _, ok, _ = _neumann(u21, u12, *rhs, kind, grid, tol=1e-6)
        assert ok.all()
        exact = exact_residual(x, rhs, u21, u12, kind, grid)
        assert np.all(exact > 0)
        assert np.max(np.abs(res - exact) / exact) < 1e-3
        return x

    mu = check(mu_rhs)
    # and a right-hand side that is not constant
    check((_half_step(mu[1], u21, 21, kind, grid),
           _half_step(mu[0], u12, 12, kind, grid)))


def test_converged_solve_stops_at_the_first_half_step_check_all_cells_meet(monkeypatch):
    # max|r| = 0.7: the looser tol still takes more than five sweeps
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 0.7 * r / np.max(np.abs(r))
    calls, checks = [], []
    kernel = wkist.rhp._cauchy_plus_batch
    residual = wkist.rhp._l2_residual

    def counted(values, grid, minus=False, weight=None):
        calls.append(np.broadcast_shapes(np.shape(values), np.shape(weight)))
        return kernel(values, grid, minus, weight)

    def recorded(e, h):
        checks.append(residual(e, h))
        return checks[-1]

    monkeypatch.setattr(wkist.rhp, "_cauchy_plus_batch", counted)
    monkeypatch.setattr(wkist.rhp, "_l2_residual", recorded)
    stops = set()
    # the looser tol stops on a column-2 check, the others on column-1 ones
    for kind, x_H, tol in ((TRIANGULAR, [-1.0, -0.2], NEUMANN_TOL),
                           (DELTA_CONJUGATED, [0.2, 1.0], NEUMANN_TOL),
                           (TRIANGULAR, [-1.0, -0.2], 1e-6)):
        u21, u12, *rhs = both_rows(*jump_batch(r, grid, kind, x_H))
        calls.clear()
        checks.clear()
        _, res, sweeps, ok, _ = _neumann(u21, u12, *rhs, kind, grid, tol=tol)
        assert ok.all() and np.all(res < tol)
        assert sweeps > 5
        # every pass but the first is followed by one check, and the solve
        # returns at the first check every cell meets
        assert len(checks) == len(calls) - 1
        assert np.array_equal(checks[-1], res)
        assert not np.all(checks[-2] < tol)
        # s column-1 updates: 2 s + 2 passes when the last check followed
        # a column-1 update, 2 s + 1 when it followed a column-2 update
        column_1_check = len(calls) % 2 == 0
        assert len(calls) == 2 * sweeps + (2 if column_1_check else 1)
        stops.add(column_1_check)
        # each pass projects every cell of the stacked batch at once
        assert all(shape == u21.shape for shape in calls)
    assert stops == {True, False}


def test_cell_iterations_match_single_cell_solves():
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 0.6 * r / np.max(np.abs(r))
    for kind, x_H in ((TRIANGULAR, np.linspace(-4.0, 0.0, 5)),
                      (DELTA_CONJUGATED, np.linspace(0.1, 4.0, 5))):
        u21, u12 = jump_batch(r, grid, kind, x_H)
        out = _solve_batch(u21, u12, kind, grid)
        alone = [_solve_batch(u21[j:j + 1], u12[j:j + 1], kind, grid)["iterations"]
                 for j in range(len(x_H))]
        assert list(out["cell_iterations"]) == alone
        assert max(alone) == out["iterations"]
        assert min(alone) < max(alone)       # the cells do differ



@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-2.0, -0.4]),
                                       (DELTA_CONJUGATED, [0.4, 2.0])])
@pytest.mark.parametrize("cap", [0, 2])
def test_sweeps_stopped_at_cap_report_their_true_residual(kind, x_H, cap, monkeypatch):
    # max|r| = 0.6 needs far more than two sweeps: a solve cut at the cap
    # must report the exact residual of what it returns, fail the
    # convergence test and be reported unsolved
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 0.6 * r / np.max(np.abs(r))
    u21, u12 = jump_batch(r, grid, kind, x_H)
    *jump, rhs1, rhs2 = both_rows(u21, u12)
    x, res, sweeps, ok, _ = _neumann(*jump, rhs1, rhs2, kind, grid, cap=cap)
    assert sweeps == cap
    assert not ok.any() and np.all(res >= NEUMANN_TOL)
    exact = exact_residual(x, (rhs1, rhs2), *jump, kind, grid)
    assert np.max(np.abs(res - exact) / exact) < 1e-6
    unsolved = f"2 of 2 {kind} cells unsolved after {cap} sweeps"
    monkeypatch.setattr(wkist.rhp, "NEUMANN_CAP", cap)
    with pytest.raises(RhpUnsolvedError, match=unsolved):
        _solve_batch(u21, u12, kind, grid)


def test_sweeps_stop_at_the_first_check_a_cell_is_hopeless():
    # a batch with a diverging cell fails as a whole, so the sweeps must
    # stop when it goes hopeless, not run on to the cap for a cell that
    # merely stagnates (max|r| = 2 neither converges nor diverges)
    r, grid = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    unit = r / np.max(np.abs(r))
    stagnant = jump_batch(2.0 * unit, grid, TRIANGULAR, [-0.5])
    diverging = jump_batch(5.0 * unit, grid, TRIANGULAR, [-0.5])
    sweeps_alone = [_neumann(*both_rows(*cell), TRIANGULAR, grid)[2]
                    for cell in (stagnant, diverging)]
    assert sweeps_alone[0] == NEUMANN_CAP
    assert sweeps_alone[1] < NEUMANN_CAP // 10
    u21, u12 = (np.concatenate(pair) for pair in zip(stagnant, diverging))
    _, res, sweeps, ok, _ = _neumann(*both_rows(u21, u12), TRIANGULAR, grid)
    assert sweeps == sweeps_alone[1]
    assert not ok.any() and res[1] > 1e8
    with pytest.raises(RhpUnsolvedError, match=f"after {sweeps} sweeps"):
        _solve_batch(u21, u12, TRIANGULAR, grid)


@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-1.0, -0.2]),
                                       (DELTA_CONJUGATED, [0.2, 1.0])])
def test_inverse_solve_transforms_row_1_only(kind, x_H, monkeypatch):
    # the inverse reads only row 1 of mu: _solve_batch must solve that
    # row alone, every kernel pass its B cells, take the slope from
    # it with no further pass, and still agree with row 1 of the dense
    # solve of the same equations
    r, zg = lam_data(*small_reflection_z(N=512, N_z=512, z_min=0.9))
    r = 0.6 * r / np.max(np.abs(r))
    u21, u12 = jump_batch(r, zg, kind, x_H)
    calls = []
    kernel = wkist.rhp._cauchy_plus_batch

    def counted(values, grid, minus=False, weight=None):
        calls.append(np.broadcast_shapes(np.shape(values), np.shape(weight)))
        return kernel(values, grid, minus, weight)

    monkeypatch.setattr(wkist.rhp, "_cauchy_plus_batch", counted)
    out = _solve_batch(u21, u12, kind, zg)
    monkeypatch.undo()
    assert all(shape == u21.shape for shape in calls)
    # 2 s + 1 or 2 s + 2 passes for the one solve, as its last check
    # followed a column-2 or a column-1 update; the slope costs none
    assert len(calls) - 2 * out["iterations"] in (1, 2)

    for j in range(len(x_H)):
        ones = np.ones(zg.point_count)
        [(mu11, mu12)] = dense_solve(u21[j], u12[j], [(ones, 0 * ones)], kind, zg)
        for got, want in ((out["mu"][0][j], mu11), (out["mu"][1][j], mu12)):
            assert np.max(np.abs(got - want)) < 1e-9
        want = slope_of(mu11, mu12, u21[j], u12[j], zg)
        assert abs(out["slope"][j] - want) < 1e-9
