"""Property tests of the symmetries of the transform (need ``hypothesis``).

Three maps of the potential act on the scattering data in closed form: a
constant phase, q -> e^{i phi} q, takes r to r e^{-i phi}; a translation,
q(x) -> q(x - x0), takes b(lam) to b e^{2 i lam x0}, so r(z) to
r e^{-2 i x0 / z} at lam = -1/z; and a dilation, q(x) -> q(x / c), takes
lam to lam / c, so the z grid to c z.  The discrete transform keeps each
to rounding where its grids carry the map: the phase at any t, a
translation by whole grid steps, and a dilation by 2, which scales every
grid spacing and every product by a power of two.  The march's steps
start at a box's edges, so they move with it, and its step rule reads
only lam_max h and |q|, which the dilation keeps, so both marches take
the same steps and substeps.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.direct_scattering import reflection_coefficient  # noqa: E402
from wkist.lattice import make_spatial_grid, make_spectral_grid  # noqa: E402
from wkist.lax import make_potential  # noqa: E402
from wkist.reconstruction import inverse_transform  # noqa: E402
from wkist.rhp import DEFAULT_WINDOW, suggest_z_min  # noqa: E402

# (L, N, Z, N_z, window): the console script's smoke grid and the default grid
SMOKE = (20.0, 512, 40.0, 1024, 4.5)
DEFAULT = (20.0, 2048, 40.0, 4096, DEFAULT_WINDOW)
# Rounding bounds, set from the worst of two sets of 300 random draws over
# the tests' own ranges.  Phase: 5.9e-16 on r and 5.3e-16 on the
# roundtrip's q.  Translation: 9.7e-15, because x - k h rounds off the grid
# point by up to an ulp of L, which moves q by |q_x| ulp(L).
PHASE_BOUND = 5e-15
TRANSLATION_BOUND = 1e-13

SHAPES = {"gaussian": lambda x, w: np.exp(-((x / w) ** 2)),
          "sech": lambda x, w: 1.0 / np.cosh(x / w),
          "box": lambda x, w: (np.abs(x) <= w).astype(float)}


def grids(L, N, Z, N_z, window, t=0.0):
    zgrid = make_spectral_grid(Z, N_z, z_min=suggest_z_min(Z, N_z, window=window, t_max=t))
    return make_spatial_grid(L, N), zgrid


def profile(family, amplitude, width, momentum):
    shape = SHAPES[family]
    return lambda x: amplitude * shape(x, width) * np.exp(1j * momentum * x)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(phi=st.floats(-np.pi, np.pi), amplitude=st.floats(0.01, 0.1),
                  width=st.floats(0.95, 1.2), momentum=st.floats(-0.5, 0.5),
                  t=st.floats(0.0, 0.25))
def test_a_constant_phase_turns_r_and_the_roundtrip(phi, amplitude, width, momentum, t):
    # the smoke roundtrip's Gaussians: wider or taller ones leave |q| above
    # its decay floor at the ends of the mapped range; the inverse runs at
    # t, so the phase map also commutes with the evolution
    window = SMOKE[4]
    xgrid, zgrid = grids(*SMOKE, t=t)
    q = profile("gaussian", amplitude, width, momentum)
    turn = np.exp(1j * phi)
    sd = reflection_coefficient(make_potential(xgrid, q), zgrid, a_floor=0.0)
    sd_turned = reflection_coefficient(make_potential(xgrid, lambda x: turn * q(x)), zgrid,
                                       a_floor=0.0)
    assert np.max(np.abs(sd_turned.r - sd.r * np.conj(turn))) < PHASE_BOUND
    rec, rec_turned = (inverse_transform(s, t, xgrid, window=window, decay_floor=1e-3)
                       for s in (sd, sd_turned))
    assert np.max(np.abs(rec_turned.q.values - rec.q.values * turn)) < PHASE_BOUND


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(k=st.integers(-20, 20), family=st.sampled_from(["gaussian", "box"]),
                  amplitude=st.floats(0.01, 0.5), width=st.floats(0.8, 1.2),
                  momentum=st.floats(0.0, 0.5))
def test_a_translation_by_grid_steps_turns_r_by_its_phase(k, family, amplitude, width,
                                                          momentum):
    # families that decay to rounding at the grid ends: a sech keeps
    # 4e-9 of its amplitude there, and moving that tail moves r by 1e-9
    xgrid, zgrid = grids(*SMOKE)
    q = profile(family, amplitude, width, momentum)
    shift = k * xgrid.spacing
    sd = reflection_coefficient(make_potential(xgrid, q), zgrid, a_floor=0.0)
    sd_moved = reflection_coefficient(make_potential(xgrid, lambda x: q(x - shift)), zgrid,
                                      a_floor=0.0)
    z = zgrid.points[zgrid.active]
    expected = sd.r[zgrid.active] * np.exp(-2j * shift / z)
    assert np.max(np.abs(sd_moved.r[zgrid.active] - expected)) < TRANSLATION_BOUND


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(family=st.sampled_from(["gaussian", "sech", "box"]),
                  amplitude=st.floats(0.05, 1.0), width=st.floats(0.8, 1.2),
                  momentum=st.floats(0.0, 0.5))
def test_a_dilation_by_two_doubles_z_and_keeps_r(family, amplitude, width, momentum):
    # doubling L, Z and the window with N and N_z kept doubles every
    # spacing and halves every lam, which changes no product's bits, and
    # the jump points of a box double with the grid; the amplitudes are
    # the benchmark's forward scan's
    L, N, Z, N_z, window = DEFAULT
    xgrid, zgrid = grids(*DEFAULT)
    xgrid2, zgrid2 = grids(2.0 * L, N, 2.0 * Z, N_z, 2.0 * window)
    assert zgrid2.z_min == 2.0 * zgrid.z_min
    q = profile(family, amplitude, width, momentum)
    p = make_potential(xgrid, q)
    p2 = make_potential(xgrid2, lambda x: q(x / 2.0))
    sd = reflection_coefficient(p, zgrid, a_floor=0.0)
    sd2 = reflection_coefficient(p2, zgrid2, a_floor=0.0)
    assert sd2.r.tobytes() == sd.r.tobytes()
