import numpy as np
import pytest

from wkist.errors import InvalidArgumentError
from wkist.lattice import make_spatial_grid
from wkist.lax import (
    _spectral_derivative,
    akns_potentials,
    conserved_E1,
    eigvec_matrix,
    make_potential,
)

# High-precision reference values (40-digit arithmetic):
# eigenvector matrix at q = 1, and E1 of the standard small Gaussian.
G11_AT_ONE = 0.92387953251128675613
G12_AT_ONE = -0.38268343236508977173j
E1_GAUSSIAN = 0.0015659510125457746


def gaussian_potential(L=20.0, N=2048, amp=0.05):
    grid = make_spatial_grid(L, N)
    return make_potential(grid, lambda x: amp * np.exp(-(x**2)))


def test_eigvec_matrix_reference_value():
    G = eigvec_matrix(1.0 + 0.0j)
    assert G[0, 0] == pytest.approx(G11_AT_ONE, abs=1e-15)
    assert G[1, 1] == pytest.approx(G11_AT_ONE, abs=1e-15)
    assert G[0, 1] == pytest.approx(G12_AT_ONE, abs=1e-15)
    assert G[1, 0] == pytest.approx(G12_AT_ONE, abs=1e-15)


def test_eigvec_matrix_is_unimodular():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    G = eigvec_matrix(q)
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-14


def test_eigvec_matrix_at_zero_is_identity():
    G = eigvec_matrix(0.0j)
    assert np.allclose(G, np.eye(2), atol=1e-16)


def test_spectral_derivative_matches_the_closed_form():
    grid = make_spatial_grid(20.0, 2048)
    x = grid.points
    samples = 0.05 * np.exp(-x**2) * np.exp(1j * x)
    p = make_potential(grid, samples)
    # spectral accuracy on a Gaussian that has decayed to rounding at the
    # grid ends: 7.7e-16 here, where centered differences miss by 2.3e-5
    assert np.max(np.abs(_spectral_derivative(p) - samples * (1j - 2.0 * x))) < 1e-14


def test_make_potential_takes_no_fft(monkeypatch):
    # no pipeline reads q_x: the AKNS fields take it when they are built
    def fft(*args, **kwargs):
        raise AssertionError("make_potential called np.fft.fft")

    monkeypatch.setattr(np.fft, "fft", fft)
    grid = make_spatial_grid(20.0, 256)
    make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    make_potential(grid, np.zeros(256, dtype=complex))
    with pytest.raises(AssertionError, match="np.fft.fft"):
        akns_potentials(make_potential(grid, np.zeros(256, dtype=complex)))


def test_gauge_field_b_vanishes_for_real_potentials():
    p = gaussian_potential()
    fields = akns_potentials(p)
    assert np.max(np.abs(fields.B)) < 1e-16


def test_gauge_field_b_is_purely_imaginary():
    grid = make_spatial_grid(20.0, 2048)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2) + 2j * x))
    fields = akns_potentials(p)
    assert np.max(np.abs(fields.B.real)) < 1e-18
    # for q = g(x) e^{2ix} with real g:  qx conj(q) - q conj(qx) = 4i|q|^2
    w = np.sqrt(1.0 + np.abs(p.q) ** 2)
    expected = 4j * np.abs(p.q) ** 2 / (4.0 * (w**2 + w))
    assert np.max(np.abs(fields.B - expected)) < 1e-10


def test_hodograph_density_and_map():
    p = gaussian_potential()
    fields = akns_potentials(p)
    assert np.all(fields.H >= 0)
    assert np.all(np.diff(fields.p) > 0)
    # p(x) - x climbs from 0 to E1 across the grid
    assert fields.p[0] - p.grid.points[0] == pytest.approx(0.0, abs=1e-30)
    assert fields.p[-1] - p.grid.points[-1] == pytest.approx(
        conserved_E1(p), abs=1e-12
    )


def test_conserved_e1_reference_value():
    assert conserved_E1(gaussian_potential()) == pytest.approx(
        E1_GAUSSIAN, abs=1e-12
    )


def test_conserved_e1_of_zero_potential():
    grid = make_spatial_grid(10.0, 256)
    p = make_potential(grid, np.zeros(256, dtype=complex))
    assert conserved_E1(p) == 0.0


def test_make_potential_rejects_wrong_sample_count():
    grid = make_spatial_grid(10.0, 256)
    with pytest.raises(InvalidArgumentError):
        make_potential(grid, np.zeros(255, dtype=complex))
