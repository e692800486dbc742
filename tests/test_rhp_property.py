"""Property tests of the Beals-Coifman solver (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import GridFunction, _tail_outside, make_spectral_grid  # noqa: E402
from wkist.rhp import (  # noqa: E402
    DELTA_CONJUGATED,
    NEUMANN_TOL,
    TRIANGULAR,
    _apply_cw,
    _dense_solve,
    _jump_entries,
    _l2_residual,
    _m0_rows,
    _solve_batch,
    build_factorization,
    delta_function,
    dx_m1,
    m1_moment,
    solve_mu,
)

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


def dense_row_1(r, x_H, kind, zgrid=ZGRID):
    """u21, u12 of one cell, row 1 of its mu from the dense solve, and the band term.

    The dense solve takes the right-hand side ``_solve_batch`` solves
    with: column 2 carries the outer band ``_tail_outside(u12)``, whose
    value at z = 0 is the band's part of M12(0).
    """
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    u21, u12, _ = _jump_entries(kind, r, zgrid, np.array([[x_H]]), 0.0, Delta)
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
    r = random_reflection(seed, amplitude)
    Delta = delta_function(GridFunction(ZGRID, r))[2].values if kind == DELTA_CONJUGATED else None
    u21, u12, _ = _jump_entries(kind, r, ZGRID, np.array(x_H)[:, None], 0.0, Delta)
    out = _solve_batch(u21, u12, kind, ZGRID)
    rhs = (np.ones_like(u21), _tail_outside(u12, ZGRID))
    c = _apply_cw(*(x[None] for x in out["mu"]), u21, u12, kind, ZGRID)
    exact = _l2_residual([x - b - cw[0] for x, b, cw in zip(out["mu"], rhs, c)], ZGRID.spacing)
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
    # of mu is fixed by row 1: this is why the inverse solves row 1 alone
    f = build_factorization(GridFunction(ZGRID, random_reflection(seed, amplitude)),
                            x_H, 0.0, kind)
    m = solve_mu(f).mu
    assert np.max(np.abs(m[:, 1, 0] + np.conj(m[:, 0, 1]))) < 1e-9
    assert np.max(np.abs(m[:, 1, 1] - np.conj(m[:, 0, 0]))) < 1e-9


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_slope_identity_on_random_data(seed, amplitude, x_H, kind):
    # d m1/d x_H = -i (M(0) sigma3 M(0)^{-1} - sigma3) for random smooth r
    # that vanishes for |z| < z_min: against central differences of the
    # moment (criterion 10's 1e-5), between the kinds at x_H = 0
    # (criterion 5's 1e-6), and the batched slope against the same
    # formula on the dense solution.  The identity holds for the
    # continuous problem, so the grid must resolve the data and the phase
    # e^{2 i x_H/z} down to z_min: FINE_ZGRID has twice ZGRID's points
    r = GridFunction(FINE_ZGRID, random_reflection(seed, amplitude, FINE_ZGRID, smooth=True))
    delta = 1e-3
    f = build_factorization(r, x_H, 0.0, kind)
    up = build_factorization(r, x_H + delta, 0.0, kind)
    dn = build_factorization(r, x_H - delta, 0.0, kind)
    diff = (m1_moment(up, solve_mu(up)) - m1_moment(dn, solve_mu(dn))) / (2 * delta)
    assert np.max(np.abs(dx_m1(f, solve_mu(f)) - diff)) < 1e-5

    ft, fd = (build_factorization(r, 0.0, 0.0, k) for k in (TRIANGULAR, DELTA_CONJUGATED))
    st, sd = solve_mu(ft), solve_mu(fd)
    assert abs(m1_moment(ft, st)[0, 1] - m1_moment(fd, sd)[0, 1]) < 1e-6
    assert abs(dx_m1(ft, st)[0, 1] - dx_m1(fd, sd)[0, 1]) < 1e-6

    u21, u12, (mu11, mu12), band0 = dense_row_1(r.values, x_H, kind, FINE_ZGRID)
    m11, m12 = _m0_rows(mu11, mu12, u21[0], u12[0], FINE_ZGRID)
    out = _solve_batch(u21, u12, kind, FINE_ZGRID)
    assert abs(out["slope"][0] - 2j * (1.0 + m11) * (m12 + band0)) < 1e-9
