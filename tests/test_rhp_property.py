"""Property tests of the Beals-Coifman solver (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import GridFunction, _cauchy_plus_batch, make_spectral_grid  # noqa: E402
from wkist.rhp import (  # noqa: E402
    DELTA_CONJUGATED,
    TRIANGULAR,
    _apply_cw,
    _dense_solve,
    _derivative_pass,
    _inv_z,
    _jump_derivatives,
    _jump_entries,
    _solve_batch,
    build_factorization,
    delta_function,
    solve_dmu,
    solve_mu,
)

ZGRID = make_spectral_grid(20.0, 256, z_min=0.5)

small_data = dict(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 0.3),
                  x_H=st.floats(-1.0, 1.0),
                  kind=st.sampled_from([TRIANGULAR, DELTA_CONJUGATED]))


def random_reflection(seed, amplitude):
    """Random smooth reflection data on ZGRID with max |r| = amplitude."""
    z = ZGRID.points
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 2)) @ [1.0, 1j]
    centers, widths = rng.uniform(-8.0, 8.0, 3), rng.uniform(0.5, 4.0, 3)
    r = (c * np.exp(-((z[:, None] - centers) / widths) ** 2)).sum(axis=1)
    r = np.where(np.abs(z) >= ZGRID.z_min, r, 0.0)
    return r * (amplitude / np.max(np.abs(r)))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_neumann_agrees_with_dense_on_random_small_data(seed, amplitude, x_H, kind):
    # random smooth data with max |r| <= 0.3: the sweeps and the dense
    # collocation solve the same discrete system, for row 1 of mu and of
    # dmu (the rows the inverse solves)
    zgrid = ZGRID
    r = random_reflection(seed, amplitude)
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    u21, u12, _ = _jump_entries(kind, r, zgrid, np.array([[x_H]]), 0.0, Delta)
    out = _solve_batch(u21, u12, kind, zgrid)
    assert out["solver"][0] == "neumann"

    def dense_row_1(rhs1, rhs2):
        return _dense_solve(u21[0], u12[0], [(rhs1, rhs2)], kind, zgrid)[0]

    one, zero = np.ones(zgrid.point_count, complex), np.zeros(zgrid.point_count, complex)
    mu11, mu12 = dense_row_1(one, zero)
    g1, g2 = _apply_cw(mu11[None], mu12[None], *_jump_derivatives(u21, u12, zgrid), kind, zgrid)
    dmu11, dmu12 = dense_row_1(g1[0], g2[0])
    assert np.max(np.abs(out["mu"][0][0] - mu11)) < 1e-9
    assert np.max(np.abs(out["mu"][1][0] - mu12)) < 1e-9
    assert np.max(np.abs(out["dmu"][0][0] - dmu11)) < 1e-9
    assert np.max(np.abs(out["dmu"][1][0] - dmu12)) < 1e-9


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(**small_data)
def test_row_2_is_the_schwarz_reflection_of_row_1(seed, amplitude, x_H, kind):
    # u12 = conj(u21) in both kinds and C-(conj v) = -conj(C+ v), so row 2
    # of mu and dmu is fixed by row 1: this is why the inverse solves
    # row 1 alone
    f = build_factorization(GridFunction(ZGRID, random_reflection(seed, amplitude)),
                            x_H, 0.0, kind)
    sol = solve_dmu(f, solve_mu(f))
    assert sol.solver == sol.solver_dmu == "neumann"
    for m in (sol.mu, sol.dmu):
        assert np.max(np.abs(m[:, 1, 0] + np.conj(m[:, 0, 1]))) < 1e-9
        assert np.max(np.abs(m[:, 1, 1] - np.conj(m[:, 0, 0]))) < 1e-9


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), log2_n=st.integers(6, 10),
                  minus=st.booleans(), sign=st.sampled_from([1, -1]),
                  at_zero=st.sampled_from([0.0, 0.3 - 0.4j]))
def test_derivative_pass_is_the_projection_of_x_du(seed, log2_n, minus, sign, at_zero):
    # the sinc kernel's 1/z identity turns C(x u) into C(x du), du = +-2i u/z,
    # with and without a sample at the node z = 0 (r(0) != 0 in a file)
    zgrid = make_spectral_grid(20.0, 2**log2_n)
    z = zgrid.points
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(2, 3, z.size)) + 1j * rng.normal(size=(2, 3, z.size))) * 0.3 + 1.0
    u = (rng.normal(size=(3, z.size)) + 1j * rng.normal(size=(3, z.size))) * np.exp(-(z / 6.0) ** 2)
    u[:, z.size // 2] = at_zero
    du = sign * 2j * _inv_z(zgrid) * u
    c = _cauchy_plus_batch(x * u, zgrid, minus=minus)
    got, integral = _derivative_pass(c, x, u, sign, zgrid)
    want = _cauchy_plus_batch(x * du, zgrid, minus=minus)
    assert np.max(np.abs(got - want)) < 1e-13 * (1.0 + np.max(np.abs(want)))
    trapezoid = np.trapezoid(x * du, dx=zgrid.spacing, axis=-1)
    assert np.max(np.abs(integral - trapezoid)) < 1e-13 * (1.0 + np.max(np.abs(trapezoid)))
