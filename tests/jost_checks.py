"""Reference views of the forward transform, for the tests.

The pipelines only need the first Jost column where the two marches
meet, near x = 0, on a batch of lam (``wkist.direct_scattering``).
The tests also look at the whole Jost solution and the transition
matrix at single lam: ``whole_plan`` joins the two halves of the
package's schedule into one march across the grid, ``propagate_jost``
samples psi at every step end of it, and ``transition_matrix``
arranges the Wronskians as T.  As independent
checks of those outputs, ``symmetry_defect`` measures the real-lam
symmetry of T, ``b_from_integral`` computes b from its integral
representation, and ``check_a_asymptotics`` compares a with its
large-lam limit e^{-i lam int H - int B}, from the AKNS gauge fields:
H = <q> - 1, whose integral is E1, and B = (q_x conj(q) - q conj(q_x)) /
(4 (<q>^2 + <q>)), with q_x taken spectrally.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from wkist.direct_scattering import _fill_second_column, _lam_batch, _layout, _march, _wronskians
from wkist.errors import InvalidArgumentError
from wkist.lax import Potential, conserved_E1


@dataclass
class JostSolution:
    lam: float
    side: str  # "+" or "-": which infinity carries the e^{i lam sigma3 x} normalization
    grid: object
    nodes: np.ndarray  # increasing grid indices of the samples: the step ends
    psi: np.ndarray  # (len(nodes), 2, 2) samples
    det_defect: float

    def at(self, node: int) -> np.ndarray:
        """psi at grid index ``node``, which must end a step."""
        return self.psi[np.flatnonzero(self.nodes == node)[0]]


def whole_plan(p: Potential, lam_max: float, side: str):
    """The march across the whole grid from the ``side`` infinity, as a plan for ``_march``.

    (H, q1, q2, node, start): the (sub)steps of ``_layout`` in march
    order, H signed and the Gauss values in path order, as the package's
    half-marches take them, but both halves and no start rule: the march
    starts at the grid end.
    """
    if side not in ("-", "+"):
        raise InvalidArgumentError(f"a march runs from side '+' or '-', got {side!r}")
    width, low, high, left, right, _ = _layout(p, lam_max)
    if side == "-":
        return width, low, high, right, 0
    return -width[::-1], high[::-1], low[::-1], left[::-1], p.grid.point_count - 1


def propagate_jost(p: Potential, lam: float, side: str) -> JostSolution:
    """Jost solution normalized at the `side` infinity, sampled at every step end.

    The march of the scattering coefficients, from the grid end across
    the whole grid (``whole_plan``), so the samples span it.  det psi = 1
    holds to roundoff at every sample because each step propagator is
    exactly unimodular; ``det_defect`` is the largest deviation over the
    samples, |alpha|^2 + |beta|^2 - 1 as in the march.
    """
    lams = _lam_batch([float(lam)])
    plan = whole_plan(p, float(np.abs(lams[0])), side)
    blocks = [(block[:, :, 0].copy(), nodes, defect)
              for block, nodes, defect in _march(p, lams, plan)]
    cols = np.concatenate([block for block, _, _ in blocks])
    nodes = np.concatenate([nodes for _, nodes, _ in blocks])
    det_defect = max(defect for _, _, defect in blocks)
    psi_samples = np.empty((nodes.size, 2, 2), dtype=complex)
    psi = np.moveaxis(psi_samples, 0, -1)
    order = slice(None) if side == "-" else slice(None, None, -1)
    psi[:, 0] = cols[order].T
    _fill_second_column(psi)
    return JostSolution(float(lam), side, p.grid, nodes[order], psi_samples, det_defect)


def transition_matrix(p: Potential, lam: float) -> np.ndarray:
    """Transition matrix T = [[a, d], [b, c]] with psi_+ = psi_- T."""
    a, b, c, d, _ = _wronskians(p, [lam])
    return np.array([[a[0], d[0]], [b[0], c[0]]], dtype=complex)


def symmetry_defect(T: np.ndarray) -> float:
    """|d + conj(b)| + |c - conj(a)|; zero for the exact real-lam symmetry."""
    return float(abs(T[0, 1] + np.conj(T[1, 0])) + abs(T[1, 1] - np.conj(T[0, 0])))


def b_from_integral(p: Potential, lam: float) -> complex:
    """b via its integral representation, as a cross-check of the Wronskians.

    Writing the left Jost column as (e^{i lam x} m11, ...), its second
    component obeys v(x) = int_{-inf}^x e^{-i lam (x-y)} lam conj(q) u dy,
    and matching the x -> +inf behavior against psi_+ = psi_- T gives

        b = -lam * int e^{2 i lam y} conj(q(y)) m11(y) dy.
    """
    sol = propagate_jost(p, lam, "-")
    # m11 is smooth: a cubic spline through the step ends carries it to
    # every grid node, where the trapezoid rule takes the integral
    x_ends = p.grid.points[sol.nodes]
    m11_ends = sol.psi[:, 0, 0] * np.exp(-1j * lam * x_ends)
    x = p.grid.points
    m11 = CubicSpline(x_ends, m11_ends)(x)
    integrand = np.exp(2j * lam * x) * np.conj(p.q) * m11
    return complex(-lam * np.trapezoid(integrand, x=x))


def gauge_field_b(p: Potential) -> np.ndarray:
    """B = (q_x conj(q) - q conj(q_x)) / (4 (<q>^2 + <q>)), purely imaginary.

    q_x is spectral, on the periodic truncation of the grid.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(len(p.q), d=p.grid.spacing)
    q, q_x = p.q, np.fft.ifft(1j * k * np.fft.fft(p.q))
    w = np.sqrt(1.0 + np.abs(q) ** 2)
    return (q_x * np.conj(q) - q * np.conj(q_x)) / (4.0 * (w * w + w))


def check_a_asymptotics(p: Potential, lam_list) -> dict:
    """Defect |a(lam) e^{i lam int H} - e^{-int B}| per requested lam.

    The defect decreases as |lam| grows (until the resolution floor),
    reflecting the large-lam limit of a in its analytic domain.
    """
    int_H = conserved_E1(p)
    int_B = complex(np.trapezoid(gauge_field_b(p), dx=p.grid.spacing))
    lams = np.atleast_1d(np.asarray(lam_list, dtype=float))

    a = _wronskians(p, lams)[0]
    defects = np.abs(a * np.exp(1j * lams * int_H) - np.exp(-int_B))
    return {
        "lams": lams,
        "defects": defects,
        "int_H": int_H,
        "int_B": int_B,
    }
