"""Property tests of the hodograph inversion (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import make_spatial_grid  # noqa: E402
from wkist.lax import conserved_E1, make_potential  # noqa: E402
from wkist.reconstruction import (  # noqa: E402
    _cubic_spline,
    resample_q,
    x_from_qh,
)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(amplitude=st.floats(0.01, 0.5), width=st.floats(0.5, 2.0),
                  center=st.floats(-1.0, 1.0), momentum=st.floats(-1.0, 1.0),
                  n=st.sampled_from([256, 512, 1024]))
def test_x_from_qh_is_increasing_and_its_total_shift_is_E1(amplitude, width, center,
                                                           momentum, n):
    # a small Gaussian q_H, decayed to ~2e-9 at the grid ends
    g = make_spatial_grid(10.0, n)
    q_H = amplitude * np.exp(-(((g.points - center) / width) ** 2) + 1j * momentum * g.points)
    x = x_from_qh(g.points, q_H)
    assert x[0] == g.points[0]
    assert np.all(np.diff(x) > 0)
    # eps(+inf) = int (<q> - 1) dx is E1 of the potential the map gives,
    # up to the trapezoid and resampling errors, O(h^2)
    q, _ = resample_q(q_H, x, g)
    e1 = conserved_E1(make_potential(g, q.values))
    assert abs(g.points[-1] - x[-1] - e1) < (amplitude * g.spacing / width) ** 2


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=40),
                  start=st.floats(-5.0, 5.0),
                  coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3,
                                  max_size=3),
                  fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_interp_decaying_reproduces_quadratics_and_vanishes_outside(gaps, start, coeffs,
                                                                    fractions):
    # on three or more non-uniform nodes (the parabola's branch on three):
    # the quadratic inside them, 0 outside
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    c0, c1, c2 = coeffs

    def quadratic(x):
        return c0 + c1 * x + c2 * x**2

    spline = _cubic_spline(nodes, quadratic(nodes))
    a, b = nodes[0], nodes[-1]
    inside = np.clip(a + (b - a) * np.asarray(fractions), a, b)
    scale = 1.0 + np.max(np.abs(quadratic(nodes)))
    assert np.max(np.abs(spline(inside) - quadratic(inside))) <= 1e-12 * scale
    outside = np.array([np.nextafter(a, -np.inf), a - 1.0, np.nextafter(b, np.inf), b + 1.0])
    assert np.all(spline(outside) == 0.0)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=40),
                  start=st.floats(-5.0, 5.0),
                  coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=4,
                                  max_size=4),
                  fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_not_a_knot_reproduces_cubics(gaps, start, coeffs, fractions):
    # on four or more non-uniform nodes: the cubic inside them, 0 outside
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    a, b = nodes[0], nodes[-1]

    def cubic(x):
        return np.polyval(coeffs, (x - a) / (b - a))

    spline = _cubic_spline(nodes, cubic(nodes))
    inside = np.clip(a + (b - a) * np.asarray(fractions), a, b)
    scale = 1.0 + np.max(np.abs(cubic(nodes)))
    assert np.max(np.abs(spline(inside) - cubic(inside))) <= 1e-12 * scale
    outside = np.array([np.nextafter(a, -np.inf), a - 1.0, np.nextafter(b, np.inf), b + 1.0])
    assert np.all(spline(outside) == 0.0)
