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
    assert miss <= _halving_miss(nodes, values) + rounding


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=40),
                  spacing=st.floats(0.01, 1.0), start=st.floats(-5.0, 5.0),
                  degree=st.integers(0, 9),
                  coeffs=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                                  min_size=10, max_size=10),
                  fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_lagrange_interpolant_is_exact_on_degree_nine_on_uneven_nodes(gaps, spacing, start,
                                                                     degree, coeffs,
                                                                     fractions):
    # on two or more nodes whose gaps differ up to twofold, as the mapped
    # nodes x(x_H) do: a polynomial of degree <= 9 (and below the node
    # count) is its own interpolant between the end nodes
    nodes = start + spacing * np.concatenate([[0.0], np.cumsum(gaps)])
    a, b = nodes[0], nodes[-1]
    c = coeffs[:min(degree, nodes.size - 1) + 1]

    def poly(x):
        return np.polyval(c, (x - a) / (b - a))

    inside = np.clip(a + (b - a) * np.asarray(fractions), a, b)
    got = _lagrange_interpolant(nodes, poly(nodes))(inside)
    assert np.max(np.abs(got - poly(inside))) <= 1e-13 * np.max(np.abs(poly(nodes)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40),
                  start=st.floats(-5.0, 5.0), seed=st.integers(0, 2**16))
def test_lagrange_interpolant_returns_uneven_node_values_and_zero_one_ulp_outside(gaps, start,
                                                                                  seed):
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
    interpolant = _lagrange_interpolant(nodes, values)
    assert interpolant(nodes).tobytes() == values.tobytes()
    a, b = nodes[0], nodes[-1]
    outside = np.array([np.nextafter(a, -np.inf), a - 1.0, np.nextafter(b, np.inf), b + 1.0])
    assert np.all(interpolant(outside) == 0.0)
