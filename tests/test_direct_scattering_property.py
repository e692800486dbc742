"""Property tests of the Jost propagator and the time evolution (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.direct_scattering import (  # noqa: E402
    _lam_lattice,
    _wronskians,
    evolve_reflection,
    reflection_coefficient,
)
from wkist.lattice import make_spatial_grid, make_spectral_grid  # noqa: E402
from wkist.lax import make_potential  # noqa: E402
from wkist.rhp import suggest_z_min  # noqa: E402

from jost_checks import propagate_jost  # noqa: E402

XGRID = make_spatial_grid(10.0, 512)

potentials = dict(family=st.sampled_from(["gaussian", "sech", "box"]),
                  amplitude=st.floats(0.01, 1.0), width=st.floats(0.8, 1.2),
                  momentum=st.floats(0.0, 0.5))


def potential(family, amplitude, width, momentum, grid=XGRID):
    shape = {"gaussian": lambda x: np.exp(-((x / width) ** 2)),
             "sech": lambda x: 1.0 / np.cosh(x / width),
             "box": lambda x: (np.abs(x) <= width).astype(float)}[family]
    return make_potential(grid, lambda x: amplitude * shape(x) * np.exp(1j * momentum * x))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(lam_max=st.floats(0.5, 8.0), **potentials)
def test_transition_matrix_is_unimodular_and_symmetric(lam_max, family, amplitude,
                                                       width, momentum):
    # every cell propagator is in SU(2) for real lam, so |a|^2 + |b|^2 = 1,
    # d = -conj(b) and c = conj(a) hold to roundoff at any resolution,
    # sub-stepped cells (lam^2 |q| h^3 above the bound) included
    p = potential(family, amplitude, width, momentum)
    lams = np.linspace(-lam_max, lam_max, 33)
    a, b, c, d, det_defect = _wronskians(p, lams)
    assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) < 1e-12
    assert np.max(np.abs(d + np.conj(b))) < 1e-12
    assert np.max(np.abs(c - np.conj(a))) < 1e-12
    assert det_defect < 1e-12


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(lam=st.floats(-8.0, 8.0), side=st.sampled_from("-+"), **potentials)
def test_det_defect_matches_the_complex_determinant(lam, side, family, amplitude,
                                                    width, momentum):
    # the march reads det psi as |alpha|^2 + |beta|^2 off its first column;
    # the complex det of the full SU(2) samples gives the same defect
    p = potential(family, 0.5 * amplitude, width, momentum,
                  grid=make_spatial_grid(10.0, 256))
    sol = propagate_jost(p, lam, side)
    psi = sol.psi
    det = psi[:, 0, 0] * psi[:, 1, 1] - psi[:, 0, 1] * psi[:, 1, 0]
    assert abs(sol.det_defect - np.max(np.abs(det - 1.0))) <= 1e-15


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(t1=st.floats(-0.5, 0.5), t2=st.floats(-0.5, 0.5), **potentials)
def test_evolution_is_a_group(t1, t2, family, amplitude, width, momentum):
    # evolving to t1 and then by t2 is evolving to t1 + t2
    p = potential(family, 0.5 * amplitude, width, momentum,
                  grid=make_spatial_grid(10.0, 256))
    sd = reflection_coefficient(p, make_spectral_grid(20.0, 256, z_min=0.5), a_floor=0.0)
    twice = evolve_reflection(evolve_reflection(sd, t1), t2)
    once = evolve_reflection(sd, t1 + t2)
    assert np.max(np.abs(twice.r - once.r)) < 1e-14
    assert np.max(np.abs(twice.b - once.b)) < 1e-14
    assert twice.time == pytest.approx(once.time, abs=1e-15)


# The console script's small grid: 374 lattice lam for a band of 1,011; and a
# coarse z grid whose band of 125 lam is smaller than its lattice of 164.
SMALL_XGRID = make_spatial_grid(20.0, 512)
SMALL_ZGRIDS = (make_spectral_grid(40.0, 1024, z_min=suggest_z_min(40.0, 1024, window=4.5)),
                make_spectral_grid(40.0, 128, z_min=1.0))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(family=st.sampled_from(["gaussian", "sech", "box"]),
                  amplitude=st.floats(0.05, 1.0), width=st.floats(0.8, 1.2),
                  momentum=st.floats(0.0, 0.25))
def test_lattice_reflection_is_within_its_estimate(family, amplitude, width, momentum):
    # the interpolant from the lam lattice misses the band's own march by less
    # than its halving estimate, and the lattice's Wronskians are exact.
    # A batch's substep schedule follows its largest |lam|, and moving it
    # moves r by the scheme's O(h^2) error (1e-5 on this grid), so the
    # band is marched with the lattice's end node in its batch.
    p = potential(family, amplitude, width, momentum, grid=SMALL_XGRID)
    for zgrid in SMALL_ZGRIDS:
        sd = reflection_coefficient(p, zgrid, a_floor=0.0)
        end = _lam_lattice(p, sd.lam)[-1]
        a, b = (v[:-1] for v in _wronskians(p, np.append(sd.lam, end))[:2])
        miss = np.max(np.abs(sd.r[sd.active] - b / a))
        assert miss <= sd.diagnostics["spectral_lattice_error_estimate"]
        for key in ("unitarity_defect", "det_defect", "symmetry_defect"):
            assert sd.diagnostics[key] < 1e-10
