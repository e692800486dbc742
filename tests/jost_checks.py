"""Reference views of the forward transform, for the tests.

The pipelines only need the first Jost column at x = 0 on a batch of
lam (``wkist.direct_scattering``).  The tests also look at the whole
Jost solution and the transition matrix at single lam:
``propagate_jost`` samples psi over the whole grid with the same march,
and ``transition_matrix`` arranges the Wronskians as T.  As independent
checks of those outputs, ``symmetry_defect`` measures the real-lam
symmetry of T, and ``b_from_integral`` computes b from its integral
representation.
"""

from dataclasses import dataclass

import numpy as np

from wkist.direct_scattering import _fill_second_column, _march, _wronskians
from wkist.lax import Potential


@dataclass
class JostSolution:
    lam: float
    side: str  # "+" or "-": which infinity carries the e^{i lam sigma3 x} normalization
    grid: object
    psi: np.ndarray  # (N, 2, 2) samples over the spatial grid
    det_defect: float


def propagate_jost(p: Potential, lam: float, side: str) -> JostSolution:
    """Jost solution normalized at the `side` infinity, sampled on the grid.

    The same cell propagation as the scattering coefficients, continued
    through x = 0 to the far end so the samples cover the whole grid.
    det psi = 1 holds to roundoff at every point because each cell
    propagator is exactly unimodular; ``det_defect`` is the largest
    deviation over the grid, |alpha|^2 + |beta|^2 - 1 as in the march.
    """
    N = p.grid.point_count
    cols = np.empty((N, 2), dtype=complex)  # in march order
    det_defect, n = 0.0, 0
    for block, defect in _march(p, [float(lam)], side, 0 if side == "+" else N - 1):
        det_defect = max(det_defect, defect)
        cols[n:n + len(block)] = block[:, :, 0]
        n += len(block)
    psi_samples = np.empty((N, 2, 2), dtype=complex)
    psi = np.moveaxis(psi_samples, 0, -1)
    psi[:, 0] = (cols if side == "-" else cols[::-1]).T
    _fill_second_column(psi)
    return JostSolution(float(lam), side, p.grid, psi_samples, det_defect)


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
    x = p.grid.points
    m11 = sol.psi[:, 0, 0] * np.exp(-1j * lam * x)
    integrand = np.exp(2j * lam * x) * np.conj(p.q) * m11
    return complex(-lam * np.trapezoid(integrand, dx=p.grid.spacing))
