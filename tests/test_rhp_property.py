"""Property tests of the Beals-Coifman solver (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import GridFunction, make_spectral_grid  # noqa: E402
from wkist.rhp import (  # noqa: E402
    DELTA_CONJUGATED,
    TRIANGULAR,
    _apply_cw,
    _dense_solve,
    _jump_derivatives,
    _jump_entries,
    _solve_batch,
    delta_function,
)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 0.3),
                  x_H=st.floats(-1.0, 1.0),
                  kind=st.sampled_from([TRIANGULAR, DELTA_CONJUGATED]))
def test_neumann_agrees_with_dense_on_random_small_data(seed, amplitude, x_H, kind):
    # random smooth data with max |r| <= 0.3: the sweeps and the dense
    # collocation solve the same discrete system, for mu and for dmu
    zgrid = make_spectral_grid(20.0, 256, z_min=0.5)
    z = zgrid.points
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 2)) @ [1.0, 1j]
    centers, widths = rng.uniform(-8.0, 8.0, 3), rng.uniform(0.5, 4.0, 3)
    r = (c * np.exp(-((z[:, None] - centers) / widths) ** 2)).sum(axis=1)
    r = np.where(np.abs(z) >= zgrid.z_min, r, 0.0)
    r *= amplitude / np.max(np.abs(r))
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    u21, u12, _ = _jump_entries(kind, r, zgrid, np.array([[x_H]]), 0.0, Delta)
    out = _solve_batch(u21, u12, kind, zgrid)
    assert out["solver"][0] == "neumann"

    def dense(rhs):
        rows = _dense_solve(u21[0], u12[0], [(rhs[0][0], rhs[1][0]), (rhs[2][0], rhs[3][0])],
                            kind, zgrid)
        return [a[None, :] for row in rows for a in row]

    one, zero = np.ones(zgrid.point_count, complex), np.zeros(zgrid.point_count, complex)
    mu = dense([one[None], zero[None], zero[None], one[None]])
    dmu = dense(_apply_cw(*mu, *_jump_derivatives(u21, u12, zgrid), kind, zgrid))
    for got, want in ((out["mu"], mu), (out["dmu"], dmu)):
        assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-9
