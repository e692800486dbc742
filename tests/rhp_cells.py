"""The inverse's own RHP cell solve, for the tests that read its moments.

``inverse_transform`` solves each batch of lattice cells with
``_solve_cells``, and ``cell_solve`` calls it too, so a check on what it
returns is a check on the equation the inverse solves.  It completes
m^(1)_12, which the inverse never reads but whose x_H-derivative the
slope is, with the outer band's part of the integral (``band_moment``);
``fd_slope_gap`` checks the slope against its central differences.
``both_rows`` poses both rows of the mu equation as cells of one batch.
"""

import numpy as np

from wkist.lattice import _TAIL_SCALE, _TAIL_TERMS, GridFunction, _tail_completion
from wkist.reconstruction import _solve_cells
from wkist.rhp import (
    DELTA_CONJUGATED,
    _delta_shift,
    _half_step,
    _jump_entries,
    _l2_residual,
    delta_function,
)


def jump_batch(r, zgrid, kind, x_H):
    """u21, u12 of a batch of cells, with Delta built for the DeltaConjugated kind."""
    Delta = delta_function(GridFunction(zgrid, r))[2].values if kind == DELTA_CONJUGATED else None
    return _jump_entries(kind, r, zgrid, np.asarray(x_H, float), Delta)


def both_rows(u21, u12):
    """Both rows of the mu equation of B cells as a batch of 2B cells.

    The jump entries are stacked twice, with the right-hand-side columns
    (1 || 0, 0 || 1): cell j of row i is cell i B + j of the batch.
    Returns (u21, u12, rhs1, rhs2), the leading arguments of ``_neumann``.
    """
    ones, zeros = np.ones_like(u21), np.zeros_like(u21)
    return (np.concatenate([u21, u21]), np.concatenate([u12, u12]),
            np.concatenate([ones, zeros]), np.concatenate([zeros, ones]))


def exact_residual(x, rhs, u21, u12, kind, zgrid):
    """Each cell's L2 residual of the column pair ``x``, recomputed over both columns."""
    c = (_half_step(x[1], u21, 21, kind, zgrid), _half_step(x[0], u12, 12, kind, zgrid))
    return _l2_residual(np.concatenate([xa - ra - ca for xa, ra, ca in zip(x, rhs, c)], axis=-1),
                        zgrid.spacing)


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
    """``_solve_cells`` at cells ``x_H`` of one kind, with "m12" the full-line moment."""
    Delta = d1 = None
    if kind == DELTA_CONJUGATED:
        Delta, d1 = delta_function(GridFunction(zgrid, r))[2].values, _delta_shift(r, zgrid)
    out = _solve_cells(kind, r, zgrid, np.asarray(x_H, float), Delta, d1)
    return dict(out, m12=out["m12"] + band_moment(out["u12"], zgrid))


def fd_slope_gap(r, zgrid, kind, x_H, delta=1e-3):
    """|slope - central difference of the full-line m^(1)_12| at cell ``x_H``."""
    out = cell_solve(r, zgrid, kind, [x_H, x_H + delta, x_H - delta])
    return abs(out["slope"][0] - (out["m12"][1] - out["m12"][2]) / (2 * delta))
