"""The inverse's own RHP cell solve, for the tests that read its moments.

``inverse_transform`` poses the RHP on the lam grid of ``lam_grid`` with
r from ``lam_reflection``, and solves each batch of lattice cells with
``_solve_cells``; ``lam_data`` builds the same grid and data from
z-grid samples, and ``cell_solve`` calls ``_solve_cells`` on them, so a
check on what it returns is a check on the equation the inverse solves.
m^(1)_12, which the inverse never reads but whose x_H-derivative the
slope is, is the full-line moment: the lam grid holds the whole jump.
``fd_slope_gap`` checks the slope against its central differences.
``both_rows`` poses both rows of the mu equation as cells of one batch.
``dense_solve`` is the reference the sweeps are compared against: a
direct collocation solve of the same discrete system, one cell at a
time, which the package itself never runs.
"""

import numpy as np

from wkist.errors import RhpUnsolvedError
from wkist.lattice import GridFunction, SpectralGrid, _cauchy_plus_batch
from wkist.reconstruction import _solve_cells
from wkist.rhp import (
    DELTA_CONJUGATED,
    _delta_shift,
    _half_step,
    _in_w_plus,
    _jump_entries,
    _l2_residual,
    delta_function,
    lam_grid,
    lam_reflection,
)

# L + window of the inverse's default grid and sweep, 20 + 6
EXTENT = 26.0
# largest grid the dense reference solve takes: its operator is 2N x 2N
DENSE_CAP = 1024


def lam_data(r, zgrid, extent=EXTENT, points=None):
    """r on the lam grid the inverse would solve z-grid data ``r`` on, and that grid.

    ``points`` replaces the grid's point count, for synthetic data whose
    content in lam the extent rule of ``lam_grid`` does not bound.
    """
    grid = lam_grid(zgrid, extent)
    if points is not None:
        grid = SpectralGrid(grid.half_width, points)
    return lam_reflection(r, zgrid, grid), grid


def jump_batch(r, grid, kind, x_H):
    """u21, u12 of a batch of cells on the lam ``grid``, with Delta for the DeltaConjugated kind."""
    Delta = delta_function(GridFunction(grid, r))[2].values if kind == DELTA_CONJUGATED else None
    return _jump_entries(kind, r, grid, np.asarray(x_H, float), Delta)


def both_rows(u21, u12):
    """Both rows of the mu equation of B cells as a batch of 2B cells.

    The jump entries are stacked twice, with the right-hand-side columns
    (1 || 0, 0 || 1): cell j of row i is cell i B + j of the batch.
    Returns (u21, u12, rhs1, rhs2), the leading arguments of ``_neumann``.
    """
    ones, zeros = np.ones_like(u21), np.zeros_like(u21)
    return (np.concatenate([u21, u21]), np.concatenate([u12, u12]),
            np.concatenate([ones, zeros]), np.concatenate([zeros, ones]))


def exact_residual(x, rhs, u21, u12, kind, grid):
    """Each cell's L2 residual of the column pair ``x``, recomputed over both columns."""
    c = (_half_step(x[1], u21, 21, kind, grid), _half_step(x[0], u12, 12, kind, grid))
    return np.hypot(*(_l2_residual(xa - ra - ca, grid.spacing) for xa, ra, ca in zip(x, rhs, c)))


def cell_solve(r, zgrid, kind, x_H, points=None):
    """``_solve_cells`` at cells ``x_H`` of one kind, for z-grid data ``r``, on its lam grid."""
    r, grid = lam_data(r, zgrid, points=points)
    Delta = d1 = None
    if kind == DELTA_CONJUGATED:
        Delta, d1 = delta_function(GridFunction(grid, r))[2].values, _delta_shift(r, grid)
    return _solve_cells(kind, r, grid, np.asarray(x_H, float), Delta, d1)


def fd_slope_gap(r, zgrid, kind, x_H, delta=1e-3, points=None):
    """|slope - central difference of the full-line m^(1)_12| at cell ``x_H``."""
    out = cell_solve(r, zgrid, kind, [x_H, x_H + delta, x_H - delta], points)
    return abs(out["slope"][0] - (out["m12"][1] - out["m12"][2]) / (2 * delta))


def dense_matrix(u21_row, u12_row, kind, grid):
    """The 2N x 2N collocation matrix of I - C_w for one cell, on the lam ``grid``."""
    n = grid.point_count
    if n > DENSE_CAP:
        raise RhpUnsolvedError(
            f"dense reference solve capped at N = {DENSE_CAP}, grid has {n}"
        )
    eye = np.eye(n, dtype=complex)
    KP = _cauchy_plus_batch(eye, grid).T
    KM = KP - eye
    # each projection less its value at lam = 0 (``_half_step``)
    KP -= KP[n // 2]
    KM -= KM[n // 2]
    S1 = KM if _in_w_plus(kind, 21) else KP
    S2 = KM if _in_w_plus(kind, 12) else KP
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = np.eye(n)
    A[n:, n:] = np.eye(n)
    A[:n, n:] = -S1 * u21_row[None, :]
    A[n:, :n] = -S2 * u12_row[None, :]
    return A


def dense_solve(u21_row, u12_row, rhs_pairs, kind, grid):
    """Direct collocation solve of (I - C_w) X = rhs for one cell.

    ``rhs_pairs`` is a list of (rhs_col1, rhs_col2) row right-hand
    sides; both matrix rows share the same 2N x 2N operator.
    """
    n = grid.point_count
    A = dense_matrix(u21_row, u12_row, kind, grid)
    B = np.stack([np.concatenate([r1, r2]) for r1, r2 in rhs_pairs], axis=1)
    X = np.linalg.solve(A, B)
    return [(X[:n, j], X[n:, j]) for j in range(X.shape[1])]
