import numpy as np
import pytest

from wkist.errors import InvalidArgumentError
from wkist.lattice import make_spatial_grid
from wkist.lax import conserved_E1, make_potential

from jost_checks import gauge_field_b

# High-precision reference value (40-digit arithmetic): E1 of the
# standard small Gaussian.
E1_GAUSSIAN = 0.0015659510125457746


def gaussian_potential(L=20.0, N=2048, amp=0.05):
    grid = make_spatial_grid(L, N)
    return make_potential(grid, lambda x: amp * np.exp(-(x**2)))


def test_make_potential_takes_no_fft(monkeypatch):
    # no pipeline reads q_x, so sampling a potential takes no transform
    def fft(*args, **kwargs):
        raise AssertionError("make_potential called np.fft.fft")

    monkeypatch.setattr(np.fft, "fft", fft)
    grid = make_spatial_grid(20.0, 256)
    make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    make_potential(grid, np.zeros(256, dtype=complex))
    # the patch bites: a transform would have raised
    with pytest.raises(AssertionError, match="np.fft.fft"):
        np.fft.fft(np.zeros(256))


# The gauge field B of the AKNS form, which the large-lam check of a
# integrates (``jost_checks.gauge_field_b``)

def test_gauge_field_b_vanishes_for_real_potentials():
    assert np.max(np.abs(gauge_field_b(gaussian_potential()))) < 1e-16


def test_gauge_field_b_is_purely_imaginary():
    grid = make_spatial_grid(20.0, 2048)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2) + 2j * x))
    B = gauge_field_b(p)
    assert np.max(np.abs(B.real)) < 1e-18
    # for q = g(x) e^{2ix} with real g:  qx conj(q) - q conj(qx) = 4i|q|^2
    w = np.sqrt(1.0 + np.abs(p.q) ** 2)
    expected = 4j * np.abs(p.q) ** 2 / (4.0 * (w**2 + w))
    assert np.max(np.abs(B - expected)) < 1e-10


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
