"""Independent checks of the forward transform's outputs, for the tests.

``symmetry_defect`` measures the real-lam symmetry of a transition
matrix, and ``b_from_integral`` computes b from its integral
representation, as a cross-check of the Wronskians.
"""

import numpy as np

from wkist.direct_scattering import propagate_jost
from wkist.lax import Potential


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
