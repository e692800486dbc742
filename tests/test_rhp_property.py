"""Property tests of the Beals-Coifman solver on the lam grid and of the z cut.

They need ``hypothesis``.
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.errors import InvalidArgumentError  # noqa: E402
from wkist.lattice import make_spectral_grid  # noqa: E402
from wkist.rhp import (  # noqa: E402
    DELTA_CONJUGATED,
    NEUMANN_TOL,
    OVERSHOOT,
    POINTS_PER_PERIOD,
    TRIANGULAR,
    _m0_rows,
    _neumann,
    _solve_batch,
    lam_grid,
    suggest_z_min,
)
from rhp_cells import (  # noqa: E402
    EXTENT, both_rows, cell_solve, dense_solve, exact_residual, fd_slope_gap, jump_batch,
    lam_data)

ZGRID = make_spectral_grid(20.0, 256, z_min=0.5)
FINE_ZGRID = make_spectral_grid(20.0, 512, z_min=0.5)
# random_reflection's Gaussians in z are narrow in lam = -1/z near the
# edge |z| = Z (a width w at z maps to w / z^2), so the identities on
# FINE_ZGRID's data take a lam grid of 2048 points, not the 256 of the
# extent rule (at 1024 the kinds' slopes differ by up to 3e-6)
FINE_POINTS = 2048

small_data = dict(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 0.3),
                  x_H=st.floats(-1.0, 1.0),
                  kind=st.sampled_from([TRIANGULAR, DELTA_CONJUGATED]))


def smooth_step(x):
    """A C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    f = lambda y: np.where(y > 0, np.exp(-1.0 / np.where(y > 0, y, 1.0)), 0.0)
    return f(x) / (f(x) + f(1.0 - x))


def random_reflection(seed, amplitude, zgrid=ZGRID, smooth=False):
    """Random reflection data on ``zgrid`` with max |r| = amplitude.

    Zero for |z| < z_min: cut there, or with ``smooth`` switched on by a
    C-infinity step over z_min <= |z| <= 2 z_min.
    """
    z = zgrid.points
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 2)) @ [1.0, 1j]
    centers, widths = rng.uniform(-8.0, 8.0, 3), rng.uniform(0.5, 4.0, 3)
    r = (c * np.exp(-((z[:, None] - centers) / widths) ** 2)).sum(axis=1)
    if smooth:
        r = r * smooth_step(np.abs(z) / zgrid.z_min - 1.0)
    else:
        r = np.where(np.abs(z) >= zgrid.z_min, r, 0.0)
    return r * (amplitude / np.max(np.abs(r)))


def random_lam_reflection(seed, amplitude, grid):
    """Random smooth reflection data on the lam ``grid``, with r(0) = 0 and max |r| = amplitude.

    lam times three Gaussians, rolled off to zero over the outer quarter
    of the grid by a C-infinity step.
    """
    lam, reach = grid.points, grid.half_width
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 2)) @ [1.0, 1j]
    centers, widths = rng.uniform(-0.5, 0.5, 3) * reach, rng.uniform(0.1, 0.4, 3) * reach
    r = lam * (c * np.exp(-((lam[:, None] - centers) / widths) ** 2)).sum(axis=1)
    r = r * smooth_step(4.0 * (1.0 - np.abs(lam) / reach))
    return r * (amplitude / np.max(np.abs(r)))


def dense_row_1(r, x_H, kind, zgrid=ZGRID):
    """u21, u12 of one cell on the lam grid of ``r``, and row 1 of its mu from the dense solve.

    The dense solve takes the right-hand side ``_solve_batch`` solves
    with, (1, 0); the lam grid holds the whole jump, so there is no band
    term.  Returns the lam grid too.
    """
    r, grid = lam_data(r, zgrid)
    u21, u12 = jump_batch(r, grid, kind, [x_H])
    ones = np.ones(grid.point_count)
    mu = dense_solve(u21[0], u12[0], [(ones, 0 * ones)], kind, grid)[0]
    return u21, u12, mu, grid


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_neumann_agrees_with_dense_on_random_small_data(seed, amplitude, x_H, kind):
    # random smooth data with max |r| <= 0.3: the sweeps and the dense
    # collocation solve the same discrete system, for row 1 of mu (the
    # row the inverse solves) and the slope read off it
    u21, u12, (mu11, mu12), grid = dense_row_1(random_reflection(seed, amplitude), x_H, kind)
    out = _solve_batch(u21, u12, kind, grid)
    assert np.max(np.abs(out["mu"][0][0] - mu11)) < 1e-9
    assert np.max(np.abs(out["mu"][1][0] - mu12)) < 1e-9
    m11, m12 = _m0_rows(mu11, mu12, u21[0], u12[0], grid)
    assert abs(out["slope"][0] - 2j * (1.0 + m11) * m12) < 1e-9


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(seed=small_data["seed"], amplitude=small_data["amplitude"],
                  x_H=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                  kind=small_data["kind"])
def test_reported_residual_is_the_exact_residual_on_random_small_data(seed, amplitude, x_H,
                                                                      kind):
    # the sweeps stop at a half-step check and return the pair it
    # measured: every cell's residual must be that pair's, recomputed
    # from the full operator, and below tol
    r, grid = lam_data(random_reflection(seed, amplitude), ZGRID)
    u21, u12 = jump_batch(r, grid, kind, x_H)
    out = _solve_batch(u21, u12, kind, grid)
    rhs = (np.ones_like(u21), np.zeros_like(u21))
    exact = exact_residual(out["mu"], rhs, u21, u12, kind, grid)
    assert np.all(out["residual"] < NEUMANN_TOL)
    # relative 1e-3; a cell that kept contracting while the batch waited
    # for the others can fall to ~1e-14, where the recomputation's own
    # round-off (up to 6.4e-16 over 300 draws: the L2(ds) norm's weights
    # 1/(m^2 h) read it near lam = 0) is no longer small beside it, so the
    # gap is taken relative to at least 1e-12
    gap = np.abs(out["residual"] - exact) / np.maximum(exact, 1e-12)
    assert np.all(gap < 1e-3)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
# the draw whose z data lam_reflection carried to max |r| 3.25
@hypothesis.example(seed=19026, amplitude=0.28125, x_H=0.0, kind=TRIANGULAR)
def test_row_2_is_the_schwarz_reflection_of_row_1(seed, amplitude, x_H, kind):
    # u12 = conj(u21) in both kinds and C-(conj v) = -conj(C+ v), so row 2
    # of mu is fixed by row 1: this is why the inverse solves row 1 alone.
    # Both rows of the operator, with the mu right-hand sides, as the two
    # cells of one batch.  The data are drawn on the lam grid itself, so
    # the property tests the solver, not the carrying of z data onto it
    grid = lam_grid(ZGRID, EXTENT)
    r = random_lam_reflection(seed, amplitude, grid)
    jump = jump_batch(r, grid, kind, [x_H])
    (x1, x2), _, _, ok, _ = _neumann(*both_rows(*jump), kind, grid)
    assert ok.all()
    assert np.max(np.abs(x1[1] + np.conj(x2[0]))) < 1e-9
    assert np.max(np.abs(x2[1] - np.conj(x1[0]))) < 1e-9


@pytest.mark.xfail(strict=True, reason="lam_reflection keeps the plain frame when it overshoots "
                   "as well: these data of max |r| 0.28 reach 3.25 on the lam grid")
def test_lam_reflection_keeps_z_data_within_its_overshoot_bound():
    # z data that turn too fast for the moving frame fall back to the plain
    # frame, whose interpolant overshoots by 11.5x; the sweeps diverge on
    # them, and inverse --input exits 4 rhp-unsolved
    r = random_reflection(19026, 0.28125)
    on_grid, _ = lam_data(r, ZGRID)
    assert np.max(np.abs(on_grid)) <= OVERSHOOT * np.max(np.abs(r))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
# a draw the z-plane solve failed: its outer band moved the slope off the
# full-line equation
@hypothesis.example(seed=867236, amplitude=0.28125, x_H=0.0, kind=TRIANGULAR)
def test_slope_identity_on_random_data(seed, amplitude, x_H, kind):
    # slope = d m^(1)_12/d x_H = 2i M11(0) M12(0) on the inverse's own
    # solve, for random smooth r that vanishes for |z| < z_min.  The
    # identity holds for the continuous problem, so the grid must
    # resolve the data and the phase e^{-2 i x_H lam} out to 1/z_min:
    # FINE_ZGRID has twice ZGRID's points, and its lam grid FINE_POINTS
    r = random_reflection(seed, amplitude, FINE_ZGRID, smooth=True)
    tri, dc = (cell_solve(r, FINE_ZGRID, k, [0.0], FINE_POINTS)
               for k in (TRIANGULAR, DELTA_CONJUGATED))
    assert abs(tri["m11"][0] - dc["m11"][0]) < 1e-6

    # the batched slope against the same formula on the dense solution
    # the dense solve is capped at DENSE_CAP points: the lam grid of the
    # extent rule
    u21, u12, (mu11, mu12), grid = dense_row_1(r, x_H, kind, FINE_ZGRID)
    m11, m12 = _m0_rows(mu11, mu12, u21[0], u12[0], grid)
    out = _solve_batch(u21, u12, kind, grid)
    assert abs(out["slope"][0] - 2j * (1.0 + m11) * m12) < 1e-9

    # the slope against central differences of the full-line m^(1)_12
    # (criterion 10's 1e-5) and the kinds' slopes at x_H = 0 (criterion
    # 5's 1e-6); the lam grid holds the whole jump, edges and all
    assert fd_slope_gap(r, FINE_ZGRID, kind, x_H, points=FINE_POINTS) < 1e-5
    assert abs(tri["slope"][0] - dc["slope"][0]) < 1e-6


def test_slope_identity_on_a_gaussian_edge():
    # a draw of random_reflection whose Gaussians reach the edge |z| = Z
    # of its z grid: the gap |lam| < 1/Z is interpolated from them
    r = random_reflection(6, 0.2, FINE_ZGRID, smooth=True)
    tri, dc = (cell_solve(r, FINE_ZGRID, k, [0.0], FINE_POINTS)
               for k in (TRIANGULAR, DELTA_CONJUGATED))
    assert fd_slope_gap(r, FINE_ZGRID, TRIANGULAR, -0.5, points=FINE_POINTS) < 1e-5
    assert abs(tri["slope"][0] - dc["slope"][0]) < 1e-6


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(Z=st.floats(0.5, 200.0), log_n=st.integers(2, 16),
                  window=st.floats(0.0, 20.0), t=st.floats(-8.0, 8.0))
def test_z_min_is_the_root_of_its_cubic(Z, log_n, window, t):
    # z_min is the positive root of z^3 = a z + b, checked in exact
    # arithmetic; a refusal means the cubic is still below zero at Z
    rho = 2.0 * np.pi / POINTS_PER_PERIOD
    hz = 2.0 * Z / 2**log_n
    a, b = Fraction(window * hz / rho), Fraction(4.0 * abs(t) * hz / rho)
    tol = Fraction(1, 10**13)
    try:
        z = suggest_z_min(Z, 2**log_n, window=window, t_max=t)
    except InvalidArgumentError:
        assert Fraction(Z) ** 3 < (a * Fraction(Z) + b) * (1 + tol)
        return
    assert 0.0 <= z <= Z
    root = Fraction(z)
    assert abs(root**3 - a * root - b) <= tol * root**3
