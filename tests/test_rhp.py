import numpy as np
import pytest

import wkist.rhp
from wkist.direct_scattering import reflection_coefficient
from wkist.errors import InvalidArgumentError, RhpUnsolvedError
from wkist.lattice import GridFunction, make_spatial_grid, make_spectral_grid
from wkist.lax import make_potential
from wkist.rhp import (
    DELTA_CONJUGATED,
    NEUMANN_TOL,
    TRIANGULAR,
    TailModel,
    _apply_cw,
    _dense_solve,
    _jump_derivatives,
    _jump_entries,
    _l2_residual,
    _neumann,
    _solve_batch,
    build_factorization,
    delta_function,
    dx_m1,
    fit_tail_coefficient,
    fit_tail_model,
    m1_moment,
    outer_band_moments,
    phase,
    solve_dmu,
    solve_mu,
    suggest_z_min,
    tail_band_rhs,
)


def small_reflection(N=1024, N_z=1024, z_min=0.5, amp=0.05):
    """Reflection data of the standard Gaussian at module-test resolution."""
    grid = make_spatial_grid(20.0, N)
    p = make_potential(grid, lambda x: amp * np.exp(-(x**2)))
    zgrid = make_spectral_grid(40.0, N_z, z_min=z_min)
    return reflection_coefficient(p, zgrid)


def test_phase_values_and_pole():
    assert phase(2.0, 3.0, 0.25) == pytest.approx(3.0 / 2.0 + 2 * 0.25 / 4.0)
    assert phase(-1.0, 1.0, 0.0) == pytest.approx(-1.0)
    with pytest.raises(InvalidArgumentError):
        phase(0.0, 1.0, 1.0)


def test_delta_boundary_relation_is_exact():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    dp, dm, Dd = delta_function(r)
    # delta_+ = delta_- (1 + |r|^2): a direct Plemelj consequence
    rel = dp.values - dm.values * (1.0 + np.abs(sd.r) ** 2)
    assert np.max(np.abs(rel)) < 1e-14
    # the boundary values are reciprocal in modulus; the discrete
    # transform leaves a ~2e-9 defect from the padded grid's edges
    assert np.max(np.abs(np.abs(dp.values * dm.values) - 1.0)) < 1e-8
    assert np.max(np.abs(Dd.values * dm.values * dp.values - 1.0)) < 1e-13


def test_factorization_entries_triangular():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    f = build_factorization(r, -1.3, 0.2, TRIANGULAR)
    z = sd.zgrid.points
    nz = z != 0
    theta = np.zeros_like(z)
    theta[nz] = -1.3 / z[nz] + 2 * 0.2 / z[nz] ** 2
    assert np.max(np.abs(f.theta - theta)) < 1e-13
    expect = sd.r * np.exp(2j * theta)
    assert np.max(np.abs(f.w_plus[:, 1, 0] - expect)) < 1e-13
    assert np.max(np.abs(f.w_minus[:, 0, 1] - np.conj(sd.r) * np.exp(-2j * theta))) < 1e-13
    # only one entry per triangle
    assert not f.w_plus[:, 0, 1].any()
    assert not f.w_minus[:, 1, 0].any()
    assert f.d1 == 0.0
    # derivative entries are (+-2i/z) times the entries
    ratio = f.dw_plus[nz, 1, 0] - (2j / z[nz]) * f.w_plus[nz, 1, 0]
    assert np.max(np.abs(ratio)) < 1e-14


def test_factorization_entries_delta_conjugated():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    f = build_factorization(r, 0.8, 0.0, DELTA_CONJUGATED)
    assert f.rho is not None
    assert np.max(np.abs(f.rho - sd.r * f.Delta)) < 1e-15
    assert np.max(np.abs(f.w_minus[:, 1, 0] - f.rho * np.exp(2j * f.theta))) < 1e-13
    assert not f.w_plus[:, 1, 0].any()
    # d1 = (1/2 pi i) int log(1+|r|^2) ds is purely imaginary
    assert abs(f.d1.real) < 1e-18
    assert f.d1.imag != 0.0


def test_build_factorization_rejects_unknown_kind():
    sd = small_reflection()
    with pytest.raises(InvalidArgumentError):
        build_factorization(GridFunction(sd.zgrid, sd.r), 0.0, 0.0, "Sideways")


def test_neumann_solution_solves_the_equation():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    for x_H, kind in ((-0.7, TRIANGULAR), (0.7, DELTA_CONJUGATED)):
        f = build_factorization(r, x_H, 0.0, kind)
        sol = solve_mu(f)
        assert sol.solver == "neumann"
        assert sol.residual < 1e-10
        assert sol.iterations < 40
        # mu - I is small in the small-data regime
        assert np.max(np.abs(sol.mu[:, 0, 0] - 1.0)) < 0.1


def test_neumann_and_dense_solvers_agree():
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = GridFunction(sd.zgrid, sd.r)
    for x_H, kind in ((-0.4, TRIANGULAR), (0.4, DELTA_CONJUGATED)):
        f = build_factorization(r, x_H, 0.0, kind)
        sol = solve_mu(f)
        n = sd.zgrid.point_count
        ones = np.ones(n, dtype=complex)
        zeros = np.zeros(n, dtype=complex)
        rows = _dense_solve(f.u21, f.u12, [(ones, zeros), (zeros, ones)],
                            kind, sd.zgrid)
        dense_mu = np.empty_like(sol.mu)
        dense_mu[:, 0, 0], dense_mu[:, 0, 1] = rows[0]
        dense_mu[:, 1, 0], dense_mu[:, 1, 1] = rows[1]
        assert np.max(np.abs(sol.mu - dense_mu)) < 1e-9


def test_dense_fallback_size_cap():
    sd = small_reflection(N=512, N_z=2048, z_min=0.5)
    # blow the data far out of the contraction regime so Neumann fails
    r = GridFunction(sd.zgrid, 40.0 * sd.r / np.max(np.abs(sd.r)))
    f = build_factorization(r, -0.5, 0.0, TRIANGULAR)
    with pytest.raises(RhpUnsolvedError):
        solve_mu(f)


def test_dense_fallback_reports_the_dense_derivative_residual():
    # |r| = 3 is outside the contraction regime: both Neumann solves
    # diverge, and the residuals reported must be those of the dense
    # solutions that replace them, not of the diverged iterates
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = 3.0 * sd.r / np.max(np.abs(sd.r))
    u21, u12, _ = _jump_entries(TRIANGULAR, r, sd.zgrid, np.array([[-0.4]]), 0.0)
    out = _solve_batch(u21, u12, TRIANGULAR, sd.zgrid)
    assert out["solver"][0] == "dense"
    assert out["residual"][0] < 100 * NEUMANN_TOL
    assert out["residual_dmu"][0] < 100 * NEUMANN_TOL


def test_derivative_solve_matches_finite_differences():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    delta = 1e-3
    for x_H, kind in ((-0.9, TRIANGULAR), (0.6, DELTA_CONJUGATED)):
        f = build_factorization(r, x_H, 0.0, kind)
        sol = solve_dmu(f, solve_mu(f))
        up = solve_mu(build_factorization(r, x_H + delta, 0.0, kind))
        dn = solve_mu(build_factorization(r, x_H - delta, 0.0, kind))
        fd = (up.mu - dn.mu) / (2 * delta)
        assert np.max(np.abs(sol.dmu - fd)) < 1e-5


def test_moment_derivative_matches_finite_differences():
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    delta = 1e-3
    f = build_factorization(r, -0.8, 0.0, TRIANGULAR)
    sol = solve_dmu(f, solve_mu(f))
    analytic = dx_m1(f, sol)
    up = build_factorization(r, -0.8 + delta, 0.0, TRIANGULAR)
    dn = build_factorization(r, -0.8 - delta, 0.0, TRIANGULAR)
    fd = (m1_moment(up, solve_mu(up)) - m1_moment(dn, solve_mu(dn))) / (2 * delta)
    assert np.max(np.abs(analytic - fd)) < 1e-5


def test_dx_m1_requires_derivative_solve():
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    f = build_factorization(GridFunction(sd.zgrid, sd.r), -0.5, 0.0, TRIANGULAR)
    with pytest.raises(InvalidArgumentError):
        dx_m1(f, solve_mu(f))


def test_factorization_kinds_agree_where_both_apply():
    # at x_H = 0 both factorizations are admissible and, after removing
    # the delta conjugation's diagonal shift, must give the same moment
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    ft = build_factorization(r, 0.0, 0.0, TRIANGULAR)
    fd = build_factorization(r, 0.0, 0.0, DELTA_CONJUGATED)
    st = solve_dmu(ft, solve_mu(ft))
    sd_ = solve_dmu(fd, solve_mu(fd))
    m_t, m_d = m1_moment(ft, st), m1_moment(fd, sd_)
    assert np.max(np.abs(m_t - m_d)) < 1e-6
    dx_t, dx_d = dx_m1(ft, st), dx_m1(fd, sd_)
    assert abs(dx_t[0, 1] - dx_d[0, 1]) < 1e-6


def test_moments_inherit_the_schwarz_symmetry():
    # for our data r comes from a real potential; m1_12 and -conj(m1_21)
    # agree and m1_11 is purely imaginary, up to solver tolerance
    sd = small_reflection()
    r = GridFunction(sd.zgrid, sd.r)
    f = build_factorization(r, -1.0, 0.0, TRIANGULAR)
    m1 = m1_moment(f, solve_mu(f))
    assert abs(m1[0, 1] + np.conj(m1[1, 0])) < 1e-8
    assert abs(m1[0, 0].real) < 1e-8


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


def test_tail_fit_recovers_large_z_coefficient():
    sd = small_reflection(N=2048, N_z=2048)
    c1 = fit_tail_coefficient(sd)
    # r ~ c1/z at the band edge: check against the outermost samples
    z_edge = sd.zgrid.points[sd.active][-1]
    r_edge = sd.r[sd.active][-1]
    assert abs(c1 / z_edge - r_edge) < 1e-7
    assert abs(c1.imag) < 1e-9


def test_tail_model_recovers_polynomial_coefficients():
    # manufacture reflection data whose tail is exactly a cubic in 1/z
    zg = make_spectral_grid(40.0, 4096, z_min=0.5)
    z = zg.points
    active = np.abs(z) >= zg.z_min
    c = np.array([0.08 - 0.01j, 0.003 + 0.02j, -0.04 + 0.005j, 0.011j])
    Z = zg.half_width
    r = np.zeros_like(z, dtype=complex)
    zs = z[active]
    r[active] = (c[0] + c[1] * (Z / zs) + c[2] * (Z / zs) ** 2
                 + c[3] * (Z / zs) ** 3) / zs

    class FakeSD:
        pass

    sd = FakeSD()
    sd.zgrid, sd.r, sd.active = zg, r, active
    model = fit_tail_model(sd)
    assert np.max(np.abs(model.pos - c)) < 1e-10
    assert np.max(np.abs(model.neg - c)) < 1e-10
    assert abs(model.c1 - c[0]) < 1e-10

    # the modeled completion agrees with brute-force quadrature of r itself;
    # the two sides must share one cutoff S: each log-diverges alone and the
    # divergence cancels in the symmetric sum (the lam-space integral is a
    # principal value at lam = 0), leaving an O(x_H/S) remainder.
    x_h = 0.7
    tails = outer_band_moments(model, Z, np.array([x_h]), 0.0, nodes=320)
    y, w = np.polynomial.legendre.leggauss(600)
    stretch = np.log(1e6)                       # S = 1e6 Z
    s_pos = Z * np.exp(0.5 * stretch * (y + 1.0))
    ws = s_pos * 0.5 * stretch * w              # ds = s dy on the log map
    total = 0.0 + 0.0j
    for s in (s_pos, -s_pos):
        rs = (c[0] + c[1] * (Z / s) + c[2] * (Z / s) ** 2 + c[3] * (Z / s) ** 3) / s
        th = x_h / s
        total += -(1.0 / (2j * np.pi)) * np.sum(np.conj(rs) * np.exp(-2j * th) * ws)
    assert abs(total - tails["m1_12"][0]) < 1e-7


def test_outer_band_moments_quadrature_is_converged():
    lo = outer_band_moments(0.09 + 0.002j, 40.0, np.array([-3.0, 0.0, 2.5]),
                            0.4, nodes=96)
    hi = outer_band_moments(0.09 + 0.002j, 40.0, np.array([-3.0, 0.0, 2.5]),
                            0.4, nodes=480)
    for key in ("m1_12", "m1_21", "dx_m1_12", "dx_m1_21"):
        assert np.max(np.abs(lo[key] - hi[key])) < 1e-12


def test_outer_band_moments_shrink_with_z():
    near = outer_band_moments(0.09, 40.0, np.array([1.0]), 0.0)
    far = outer_band_moments(0.09, 80.0, np.array([1.0]), 0.0)
    assert np.abs(far["dx_m1_12"][0]) < np.abs(near["dx_m1_12"][0])


def test_tail_band_rhs_matches_log_kernel():
    # for r = c1/s exactly, the tail Cauchy transform at x_H = t = 0 is
    # T12(z) = conj(c1)/(2 pi i) (1/z) log((Z+z)/(Z-z)); the panel
    # quadrature must reproduce it at every grid point, including the
    # outermost ones where the kernel pole sits a spacing away
    zg = make_spectral_grid(40.0, 4096, z_min=0.3)
    Z, h = zg.half_width, zg.spacing
    c1 = 0.07 - 0.03j
    tm = TailModel(Z=Z, pos=np.array([c1, 0, 0, 0], dtype=complex),
                   neg=np.array([c1, 0, 0, 0], dtype=complex))
    out = tail_band_rhs(tm, zg, np.array([0.0]), 0.0)
    z = zg.points.copy()
    edge = np.abs(z) >= Z            # the -Z point is computed at its cell mid
    z[edge] = np.sign(z[edge]) * (Z - 0.5 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(np.abs(z) < 1e-12, 2.0 / Z, np.log((Z + z) / (Z - z)) / z)
    assert np.abs(out["T12"][0] - np.conj(c1) / (2j * np.pi) * L).max() < 1e-10
    assert np.abs(out["T21"][0] - c1 / (2j * np.pi) * L).max() < 1e-10


def test_tail_band_rhs_derivative_matches_finite_difference():
    zg = make_spectral_grid(40.0, 2048, z_min=0.3)
    tm = TailModel(Z=zg.half_width,
                   pos=np.array([0.07 - 0.03j, 0.01j, 0, 0], dtype=complex),
                   neg=np.array([0.07 - 0.03j, -0.02, 0, 0], dtype=complex))
    xh, d = 0.8, 1e-4
    lo = tail_band_rhs(tm, zg, np.array([xh - d]), 0.0)
    hi = tail_band_rhs(tm, zg, np.array([xh + d]), 0.0)
    mid = tail_band_rhs(tm, zg, np.array([xh]), 0.0)
    for key in ("T12", "T21"):
        fd = (hi[key][0] - lo[key][0]) / (2 * d)
        assert np.abs(mid["d" + key][0] - fd).max() < 1e-10


def test_tail_rhs_pulls_band_solution_toward_wide_grid():
    # same decaying jump on a Z = 40 and a Z = 160 grid with equal
    # spacing: the narrow solve differs from the wide one only by where
    # the contour is cut, and adding the tail right-hand side must
    # recover most of that difference (what remains is the mu-coupled
    # next order in 1/Z)
    c1 = 0.08 - 0.015j
    rfun = lambda z: c1 * z / (z**2 + 1.0)

    class FakeSD:
        pass

    def band_mu(Z, N_z, with_T):
        zg = make_spectral_grid(Z, N_z, z_min=0.0)
        rv = rfun(zg.points)
        sd = FakeSD()
        sd.zgrid, sd.r, sd.active = zg, rv, np.abs(zg.points) > 0.05
        tm = fit_tail_model(sd)
        u21, u12, _ = _jump_entries(TRIANGULAR, rv, zg,
                                    np.array([[-0.4]]), 0.0, None)
        trhs = tail_band_rhs(tm, zg, np.array([-0.4]), 0.0) if with_T else None
        out = _solve_batch(u21, u12, TRIANGULAR, zg, tail_rhs=trhs,
                           want_derivative=False)
        return zg, out["mu"]

    zg_w, mu_w = band_mu(160.0, 16384, True)
    zg_n, mu_no = band_mu(40.0, 4096, False)
    _, mu_yes = band_mu(40.0, 4096, True)
    iw = np.searchsorted(zg_w.points, zg_n.points)
    assert np.allclose(zg_w.points[iw], zg_n.points, atol=1e-12)
    inner = np.abs(zg_n.points) < 38.0
    gap_no = np.abs(mu_no[1][0] - mu_w[1][0][iw])[inner].max()
    gap_yes = np.abs(mu_yes[1][0] - mu_w[1][0][iw])[inner].max()
    assert gap_no > 1e-3          # the cut alone costs this much
    assert gap_yes < 6e-5         # measured 3.7e-5
    assert gap_yes < gap_no / 20.0


def jump_batch(r, zgrid, kind, x_H):
    """u21, u12 of a batch of cells, with Delta built for the DeltaConjugated kind."""
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    u21, u12, _ = _jump_entries(kind, r, zgrid, np.asarray(x_H, float)[:, None], 0.0, Delta)
    return u21, u12


def mu_rhs(u21):
    ones, zeros = np.ones(u21.shape, complex), np.zeros(u21.shape, complex)
    return ones, zeros, zeros, ones


@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-2.0, -0.4]),
                                       (DELTA_CONJUGATED, [0.4, 2.0])])
def test_neumann_residual_is_the_exact_residual(kind, x_H):
    # the residual the sweeps report must be that of the iterate they
    # return, recomputed independently; tol 1e-6 keeps it far above the
    # round-off of the recomputation
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = 0.6 * sd.r / np.max(np.abs(sd.r))
    u21, u12 = jump_batch(r, sd.zgrid, kind, x_H)
    h = sd.zgrid.spacing

    def check(rhs):
        x, res, _, ok, _ = _neumann(u21, u12, *rhs, kind, sd.zgrid, tol=1e-6)
        assert ok.all()
        c = _apply_cw(*x, u21, u12, kind, sd.zgrid)
        exact = _l2_residual([xa - ra - ca for xa, ra, ca in zip(x, rhs, c)], h)
        assert np.all(exact > 0)
        assert np.max(np.abs(res - exact) / exact) < 1e-3
        return x

    mu = check(mu_rhs(u21))
    check(_apply_cw(*mu, *_jump_derivatives(u21, u12, sd.zgrid), kind, sd.zgrid))


def test_converged_solve_makes_two_passes_per_sweep_plus_one(monkeypatch):
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = 0.6 * sd.r / np.max(np.abs(sd.r))
    calls = []
    kernel = wkist.rhp._cauchy_plus_batch

    def counted(values, grid):
        calls.append(np.shape(values))
        return kernel(values, grid)

    monkeypatch.setattr(wkist.rhp, "_cauchy_plus_batch", counted)
    for kind, x_H in ((TRIANGULAR, [-1.0, -0.2]), (DELTA_CONJUGATED, [0.2, 1.0])):
        u21, u12 = jump_batch(r, sd.zgrid, kind, x_H)
        calls.clear()
        _, res, sweeps, ok, _ = _neumann(u21, u12, *mu_rhs(u21), kind, sd.zgrid)
        assert ok.all() and np.all(res < NEUMANN_TOL)
        assert sweeps > 5
        assert len(calls) == 2 * sweeps + 1
        # each pass projects both matrix rows of every cell at once
        assert all(shape == (2,) + u21.shape for shape in calls)


def test_cell_iterations_match_single_cell_solves():
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = 0.6 * sd.r / np.max(np.abs(sd.r))
    for kind, x_H in ((TRIANGULAR, np.linspace(-4.0, 0.0, 5)),
                      (DELTA_CONJUGATED, np.linspace(0.1, 4.0, 5))):
        u21, u12 = jump_batch(r, sd.zgrid, kind, x_H)
        out = _solve_batch(u21, u12, kind, sd.zgrid)
        alone = [_solve_batch(u21[j:j + 1], u12[j:j + 1], kind, sd.zgrid)["iterations"]
                 for j in range(len(x_H))]
        assert list(out["cell_iterations"]) == alone
        assert max(alone) == out["iterations"]
        assert min(alone) < max(alone)       # the cells do differ



@pytest.mark.parametrize("kind, x_H", [(TRIANGULAR, [-2.0, -0.4]),
                                       (DELTA_CONJUGATED, [0.4, 2.0])])
@pytest.mark.parametrize("cap", [0, 2])
def test_sweeps_stopped_at_cap_report_their_true_residual(kind, x_H, cap):
    # max|r| = 0.6 needs far more than two sweeps: a solve cut at the cap
    # must report the exact residual of what it returns, fail the
    # convergence test and be handed to the dense fallback
    sd = small_reflection(N=512, N_z=512, z_min=0.9)
    r = 0.6 * sd.r / np.max(np.abs(sd.r))
    u21, u12 = jump_batch(r, sd.zgrid, kind, x_H)
    rhs = mu_rhs(u21)
    x, res, sweeps, ok, _ = _neumann(u21, u12, *rhs, kind, sd.zgrid, cap=cap)
    assert sweeps == cap
    assert not ok.any() and np.all(res >= NEUMANN_TOL)
    c = _apply_cw(*x, u21, u12, kind, sd.zgrid)
    exact = _l2_residual([xa - ra - ca for xa, ra, ca in zip(x, rhs, c)], sd.zgrid.spacing)
    assert np.max(np.abs(res - exact) / exact) < 1e-6
    out = _solve_batch(u21, u12, kind, sd.zgrid, cap=cap)
    assert list(out["solver"]) == ["dense", "dense"]
    assert np.all(out["residual"] < NEUMANN_TOL)
