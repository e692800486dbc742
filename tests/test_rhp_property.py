"""Property tests of the Beals-Coifman solver and its z cut (need ``hypothesis``)."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.errors import InvalidArgumentError  # noqa: E402
from wkist.lattice import _TAIL_REGION, _tail_outside, make_spectral_grid  # noqa: E402
from wkist.rhp import (  # noqa: E402
    DELTA_CONJUGATED,
    NEUMANN_TOL,
    POINTS_PER_PERIOD,
    TRIANGULAR,
    _dense_solve,
    _m0_rows,
    _neumann,
    _solve_batch,
    suggest_z_min,
)
from rhp_cells import both_rows, cell_solve, exact_residual, fd_slope_gap, jump_batch  # noqa: E402

ZGRID = make_spectral_grid(20.0, 256, z_min=0.5)
FINE_ZGRID = make_spectral_grid(20.0, 512, z_min=0.5)

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


def edges_off(r, zgrid):
    """``r`` switched off by a C-infinity step before the edge samples
    that ``_tail_completion`` fits, so that the grid holds all of the jump."""
    edge = _TAIL_REGION * zgrid.half_width
    return r * smooth_step(8.0 * (1.0 - np.abs(zgrid.points) / edge))


def dense_row_1(r, x_H, kind, zgrid=ZGRID):
    """u21, u12 of one cell, row 1 of its mu from the dense solve, and the band term.

    The dense solve takes the right-hand side ``_solve_batch`` solves
    with: column 2 carries the outer band ``_tail_outside(u12)``, whose
    value at z = 0 is the band's part of M12(0).
    """
    u21, u12 = jump_batch(r, zgrid, kind, [x_H])
    band = _tail_outside(u12[0], zgrid)
    mu = _dense_solve(u21[0], u12[0], [(np.ones(zgrid.point_count), band)], kind, zgrid)[0]
    return u21, u12, mu, band[zgrid.point_count // 2]


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_neumann_agrees_with_dense_on_random_small_data(seed, amplitude, x_H, kind):
    # random smooth data with max |r| <= 0.3: the sweeps and the dense
    # collocation solve the same discrete system, for row 1 of mu (the
    # row the inverse solves) and the slope read off it
    u21, u12, (mu11, mu12), band0 = dense_row_1(random_reflection(seed, amplitude), x_H, kind)
    out = _solve_batch(u21, u12, kind, ZGRID)
    assert np.max(np.abs(out["mu"][0][0] - mu11)) < 1e-9
    assert np.max(np.abs(out["mu"][1][0] - mu12)) < 1e-9
    m11, m12 = _m0_rows(mu11, mu12, u21[0], u12[0], ZGRID)
    assert abs(out["slope"][0] - 2j * (1.0 + m11) * (m12 + band0)) < 1e-9


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(seed=small_data["seed"], amplitude=small_data["amplitude"],
                  x_H=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                  kind=small_data["kind"])
def test_reported_residual_is_the_exact_residual_on_random_small_data(seed, amplitude, x_H,
                                                                      kind):
    # the sweeps stop at a half-step check and return the pair it
    # measured: every cell's residual must be that pair's, recomputed
    # from the full operator, and below tol
    u21, u12 = jump_batch(random_reflection(seed, amplitude), ZGRID, kind, x_H)
    out = _solve_batch(u21, u12, kind, ZGRID)
    rhs = (np.ones_like(u21), _tail_outside(u12, ZGRID))
    exact = exact_residual(out["mu"], rhs, u21, u12, kind, ZGRID)
    assert np.all(out["residual"] < NEUMANN_TOL)
    # relative 1e-3; a cell that kept contracting while the batch waited
    # for the others can fall to ~1e-14, where the recomputation's own
    # round-off (~3e-17) is no longer small beside it, so the gap is
    # taken relative to at least 1e-13
    gap = np.abs(out["residual"] - exact) / np.maximum(exact, 1e-13)
    assert np.all(gap < 1e-3)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_row_2_is_the_schwarz_reflection_of_row_1(seed, amplitude, x_H, kind):
    # u12 = conj(u21) in both kinds and C-(conj v) = -conj(C+ v), so row 2
    # of mu is fixed by row 1: this is why the inverse solves row 1 alone.
    # Both rows of the operator, with the mu right-hand sides, as the two
    # cells of one batch
    jump = jump_batch(random_reflection(seed, amplitude), ZGRID, kind, [x_H])
    (x1, x2), _, _, ok, _ = _neumann(*both_rows(*jump), kind, ZGRID)
    assert ok.all()
    assert np.max(np.abs(x1[1] + np.conj(x2[0]))) < 1e-9
    assert np.max(np.abs(x2[1] - np.conj(x1[0]))) < 1e-9


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_slope_identity_on_random_data(seed, amplitude, x_H, kind):
    # slope = d m^(1)_12/d x_H = 2i M11(0) M12(0) on the inverse's own
    # solve, for random smooth r that vanishes for |z| < z_min.  The
    # identity holds for the continuous problem, so the grid must
    # resolve the data and the phase e^{2 i x_H/z} down to z_min:
    # FINE_ZGRID has twice ZGRID's points
    r = random_reflection(seed, amplitude, FINE_ZGRID, smooth=True)
    tri, dc = (cell_solve(r, FINE_ZGRID, k, [0.0]) for k in (TRIANGULAR, DELTA_CONJUGATED))
    assert abs(tri["m11"][0] - dc["m11"][0]) < 1e-6

    # the batched slope against the same formula on the dense solution
    u21, u12, (mu11, mu12), band0 = dense_row_1(r, x_H, kind, FINE_ZGRID)
    m11, m12 = _m0_rows(mu11, mu12, u21[0], u12[0], FINE_ZGRID)
    out = _solve_batch(u21, u12, kind, FINE_ZGRID)
    assert abs(out["slope"][0] - 2j * (1.0 + m11) * (m12 + band0)) < 1e-9

    # the slope against central differences of the full-line m^(1)_12
    # (criterion 10's 1e-5) and the kinds' slopes at x_H = 0 (criterion
    # 5's 1e-6) hold only where the tail completion is exact, so these
    # take the draw with its edges off; on a Gaussian edge they fail
    # (test_slope_identity_on_a_gaussian_edge)
    r = edges_off(r, FINE_ZGRID)
    assert fd_slope_gap(r, FINE_ZGRID, kind, x_H) < 1e-5
    tri, dc = (cell_solve(r, FINE_ZGRID, k, [0.0]) for k in (TRIANGULAR, DELTA_CONJUGATED))
    assert abs(tri["slope"][0] - dc["slope"][0]) < 1e-6


@pytest.mark.xfail(strict=True, reason="_tail_completion extrapolates a Gaussian edge of "
                   "1.5e-4 into a band that moves the slope off the full-line equation by "
                   "5.1e-4 (ROADMAP item 2)")
def test_slope_identity_on_a_gaussian_edge():
    # a draw of random_reflection whose Gaussians reach the edge samples
    # that the tail fit reads
    r = random_reflection(6, 0.2, FINE_ZGRID, smooth=True)
    tri, dc = (cell_solve(r, FINE_ZGRID, k, [0.0]) for k in (TRIANGULAR, DELTA_CONJUGATED))
    assert fd_slope_gap(r, FINE_ZGRID, TRIANGULAR, -0.5) < 1e-5
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
