"""The inverse's own RHP cell solve, for the tests that read its moments.

``inverse_transform`` solves each batch of lattice cells as
``_jump_entries`` -> ``_solve_batch`` -> ``_moment_rows`` and removes the
delta conjugation's shift d1 from m^(1)_11 of the DeltaConjugated kind.
``cell_solve`` makes the same calls, so a check on what it returns is a
check on the equation the inverse solves.  It also gives m^(1)_12, which
the inverse never reads but whose x_H-derivative the slope is: the
windowed ``_moment_rows`` entry plus the outer band's part of the
integral (``band_moment``); ``fd_slope_gap`` checks the slope against
its central differences.
"""

import numpy as np

from wkist.lattice import _TAIL_SCALE, _TAIL_TERMS, GridFunction, _tail_completion
from wkist.rhp import (
    DELTA_CONJUGATED,
    _delta_shift,
    _jump_entries,
    _moment_rows,
    _solve_batch,
    delta_function,
)


def jump_batch(r, zgrid, kind, x_H):
    """u21, u12 of a batch of cells, with Delta built for the DeltaConjugated kind."""
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    return _jump_entries(kind, r, zgrid, np.asarray(x_H, float)[:, None], Delta)


def band_moment(u12, zgrid):
    """-(1/2 pi i) int_{|s| > Z} of the fitted tail of u12, per row.

    The tail is the least-squares fit sum_k c_k (a/(s + i a))^k of the
    edge samples that ``_tail_outside`` completes the solve with (out
    there mu ~ I, so X11 u12 ~ u12).  The full-line integral of a term
    is -i pi a for k = 1 and 0 for k >= 2; the exact antiderivative over
    [-Z, Z] is subtracted from it.
    """
    edge, fit, _ = _tail_completion(zgrid.point_count, zgrid.half_width)
    a, k = _TAIL_SCALE, np.arange(2, _TAIL_TERMS + 1)
    lo, hi = -zgrid.half_width + 1j * a, zgrid.half_width + 1j * a
    window = np.concatenate([[a * (np.log(hi) - np.log(lo))],
                             a**k * (hi ** (1 - k) - lo ** (1 - k)) / (1 - k)])
    full = np.zeros(_TAIL_TERMS, complex)
    full[0] = -1j * np.pi * a
    return -((u12[..., edge] @ fit) @ (full - window)) / (2j * np.pi)


def cell_solve(r, zgrid, kind, x_H):
    """``_solve_batch``'s output for cells ``x_H`` of one kind, with their moments.

    Adds the jump entries "u21", "u12" and the moment entries "m11"
    (d1 removed for the DeltaConjugated kind, as the inverse does) and
    "m12" (the full-line (1,2) moment, band included).
    """
    u21, u12 = jump_batch(r, zgrid, kind, x_H)
    out = _solve_batch(u21, u12, kind, zgrid)
    m11, m12 = _moment_rows(*out["mu"], u21, u12, zgrid.spacing)
    if kind == DELTA_CONJUGATED:
        m11 = m11 - _delta_shift(r, zgrid)
    return dict(out, u21=u21, u12=u12, m11=m11, m12=m12 + band_moment(u12, zgrid))


def fd_slope_gap(r, zgrid, kind, x_H, delta=1e-3):
    """|slope - central difference of the full-line m^(1)_12| at cell ``x_H``."""
    out = cell_solve(r, zgrid, kind, [x_H, x_H + delta, x_H - delta])
    return abs(out["slope"][0] - (out["m12"][1] - out["m12"][2]) / (2 * delta))
