"""Property tests of the lattice interpolants (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import _halving_miss, _lagrange_interpolant  # noqa: E402


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(n=st.integers(20, 80), spacing=st.floats(0.01, 1.0),
                  start=st.floats(-5.0, 5.0),
                  phases=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                  coeffs=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                                  min_size=4, max_size=4))
def test_lagrange_miss_at_the_midpoints_is_within_its_halving_estimate(n, spacing, start,
                                                                       phases, coeffs):
    # band-limited sums of c_k e^{i w_k x}, |w_k| h <= 2 pi / 10: ten nodes
    # per shortest period, as on the hodograph lattice
    nodes = start + spacing * np.arange(n)
    omegas = 2.0 * np.pi / 10 * np.asarray(phases) / spacing

    def wave(x):
        return np.exp(1j * np.outer(x, omegas)) @ np.asarray(coeffs[:len(omegas)])

    values = wave(nodes)
    midpoints = (nodes[1:] + nodes[:-1]) / 2
    miss = np.max(np.abs(_lagrange_interpolant(nodes, values)(midpoints) - wave(midpoints)))
    # rounding bounds both where the sum is close to a polynomial of degree 9
    rounding = 1e-13 * np.max(np.abs(values))
    assert miss <= _halving_miss(nodes, values, _lagrange_interpolant) + rounding
