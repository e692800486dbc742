"""Property tests of the hodograph inversion (need ``hypothesis``)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import make_spatial_grid  # noqa: E402
from wkist.lax import conserved_E1, make_potential  # noqa: E402
from wkist.reconstruction import resample_q, x_from_qh  # noqa: E402


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
    q = resample_q(q_H, x, g)
    e1 = conserved_E1(make_potential(g, q.values))
    assert abs(g.points[-1] - x[-1] - e1) < (amplitude * g.spacing / width) ** 2
