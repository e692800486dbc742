"""The soliton's RHP moment entries m1_12 and m1_11 in closed form (the
formulas of ``wkist.soliton``'s docstring), for the tests: the slope is
the x_H-derivative of m1_12, and Im m1_11 integrates the hodograph
density 1 - 1/<q_H>.
"""

import numpy as np

from wkist.soliton import SolitonParams, _phases


def soliton_m1_entries(x_H, t: float, p: SolitonParams):
    """Moment entries (m1_12, m1_11) of the soliton's RHP solution."""
    Phi, chi = _phases(p, x_H, t)
    amp = p.eta / p.modulus_sq
    m12 = -amp * np.exp(-1j * Phi) / np.cosh(chi)
    m11 = 1j * amp * (np.tanh(chi) + 1.0)
    return m12, m11
