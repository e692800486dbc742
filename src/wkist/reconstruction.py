"""Potential recovery from reflection data: moments -> slope -> hodograph.

The chain per hodograph cell x_H:

1. solve the jump RHP and read off s(x_H) = d/dx_H m^(1)_{12},
2. undo the stereographic slope:  |q_H|^2 = |s|^2 / (1 - |s|^2),
   q_H = sqrt(1 + |q_H|^2) s,
3. undo the hodograph map.  The physical coordinate satisfies
   x_H = x + eps(x) with eps(x) = int_{-inf}^x (sqrt(1+|q|^2) - 1) dy,
   recovered either by Picard iteration on
   eps(x) = int (sqrt(1+|q_H(y + eps(y))|^2) - 1) dy   (primary route)
   or explicitly from the diagonal moment, x = x_H - Im m^(1)_{11}
   (cross-check route).

The sweep of x_H cells is taken directly from the physical grid inside
a finite window; outside the window the potential is below the decay
floor and is extended by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .direct_scattering import ScatteringData, evolve_reflection
from .errors import (
    HodographInconsistentError,
    HodographUnsolvedError,
    InvalidArgumentError,
    RangeError,
    SlopeConditionError,
)
from .lattice import GridFunction, SpatialGrid
from .lax import conserved_E1, make_potential
from .rhp import (
    DELTA_CONJUGATED,
    TRIANGULAR,
    _jump_derivatives,
    _jump_entries,
    _moment_rows,
    _solve_batch,
    delta_function,
    fit_tail_model,
    outer_band_moments,
    tail_band_rhs,
)

__all__ = [
    "EpsilonResult",
    "ReconstructionResult",
    "qh_from_slope",
    "epsilon_fixed_point",
    "x_from_m11",
    "resample_q",
    "inverse_transform",
]

SLOPE_MARGIN = 1e-6
EPSILON_TOL = 1e-10
EPSILON_CAP = 500
DEFAULT_WINDOW = 6.0
CHUNK = 64


def qh_from_slope(s: np.ndarray, margin: float = SLOPE_MARGIN) -> np.ndarray:
    """Invert the slope relation s -> q_H.

    Requires max |s| < 1 - margin; the relation degenerates at |s| = 1
    (vertical tangent of the hodograph), which is the regime boundary,
    so violation raises SlopeConditionError rather than clipping.
    """
    s = np.asarray(s, dtype=complex)
    mags = np.abs(s)
    worst = float(mags.max()) if mags.size else 0.0
    if worst >= 1.0 - margin:
        raise SlopeConditionError(
            f"max |s| = {worst:.6g} is not below 1 - {margin:g}", max_slope=worst
        )
    return s / np.sqrt(1.0 - mags**2)


@dataclass
class EpsilonResult:
    x: np.ndarray
    values: np.ndarray
    iterations: int
    final_update: float


def _interp_decaying(nodes: np.ndarray, values: np.ndarray) -> PchipInterpolator:
    """Shape-preserving interpolant, identically zero outside the nodes."""
    f = PchipInterpolator(nodes, values, extrapolate=False)

    def evaluate(x):
        out = f(x)
        return np.nan_to_num(out, nan=0.0)

    return evaluate


def epsilon_fixed_point(q_H: GridFunction, tol: float = EPSILON_TOL,
                        max_iterations: int = EPSILON_CAP) -> EpsilonResult:
    """Picard iteration for the hodograph shift eps on the grid of q_H.

    The integrand sqrt(1+|q_H|^2) - 1 is interpolated shape-preservingly
    and treated as zero outside the sampled range (the potential must
    have decayed there).  Converges geometrically because the integrand
    is small and Lipschitz; hitting the iteration cap raises
    HodographUnsolvedError.
    """
    x = q_H.grid.points
    h = q_H.grid.spacing
    w = np.sqrt(1.0 + np.abs(q_H.values) ** 2) - 1.0
    w_at = _interp_decaying(x, w)
    eps = np.zeros_like(x)
    for iteration in range(1, max_iterations + 1):
        integrand = w_at(x + eps)
        new = np.concatenate([[0.0], np.cumsum(0.5 * h * (integrand[1:] + integrand[:-1]))])
        update = float(np.max(np.abs(new - eps)))
        eps = new
        if update < tol:
            return EpsilonResult(x=x, values=eps, iterations=iteration,
                                 final_update=update)
    raise HodographUnsolvedError(
        f"hodograph fixed point did not settle in {max_iterations} iterations "
        f"(last update {update:.3e})"
    )


def x_from_m11(x_H: np.ndarray, m1_11: np.ndarray,
               tolerance: float = 1e-3) -> np.ndarray:
    """Explicit hodograph inversion x = x_H - Im m^(1)_{11}.

    The diagonal moment must be (numerically) purely imaginary with
    nonnegative imaginary part, and the resulting x must be increasing
    in x_H; violations mean the moment does not describe a decaying
    potential and raise HodographInconsistentError.
    """
    x_H = np.asarray(x_H, dtype=float)
    m1_11 = np.asarray(m1_11, dtype=complex)
    if m1_11.size:
        worst_re = float(np.max(np.abs(m1_11.real)))
        worst_im = float(np.min(m1_11.imag))
        if worst_re > tolerance:
            raise HodographInconsistentError(
                f"diagonal moment has real part {worst_re:.3e}"
            )
        if worst_im < -tolerance:
            raise HodographInconsistentError(
                f"diagonal moment has imaginary part {worst_im:.3e} < 0"
            )
    x = x_H - m1_11.imag
    if x.size > 1 and np.any(np.diff(x) <= 0):
        raise HodographInconsistentError("explicit hodograph map is not increasing")
    return x


def resample_q(q_H: np.ndarray, x_map: np.ndarray, xgrid: SpatialGrid,
               decay_floor: float = 1e-6):
    """Interpolate pairs (x_map[i], q_H[i]) onto a uniform grid.

    Outside the mapped range the potential is extended by zero, which is
    only legitimate if it has decayed below ``decay_floor`` at the ends;
    otherwise RangeError.  Returns the resampled GridFunction and an
    interpolation-error estimate obtained by dropping every other node
    and measuring the miss at the dropped ones.
    """
    q_H = np.asarray(q_H, dtype=complex)
    x_map = np.asarray(x_map, dtype=float)
    if np.any(np.diff(x_map) <= 0):
        raise HodographInconsistentError("resampling map is not increasing")
    edge = max(abs(q_H[0]), abs(q_H[-1]))
    if edge > decay_floor:
        raise RangeError(
            f"potential has not decayed at the mapped range ends (|q| = {edge:.3e})"
        )
    re = _interp_decaying(x_map, q_H.real)
    im = _interp_decaying(x_map, q_H.imag)
    values = re(xgrid.points) + 1j * im(xgrid.points)

    coarse_re = _interp_decaying(x_map[::2], q_H.real[::2])
    coarse_im = _interp_decaying(x_map[::2], q_H.imag[::2])
    miss = (coarse_re(x_map[1::2]) + 1j * coarse_im(x_map[1::2])) - q_H[1::2]
    estimate = float(np.max(np.abs(miss))) if miss.size else 0.0
    return GridFunction(xgrid, values), estimate


@dataclass
class ReconstructionResult:
    xgrid: SpatialGrid
    q: GridFunction                      # recovered potential on xgrid
    x_H: np.ndarray                      # hodograph sweep cells
    slope: np.ndarray                    # s(x_H)
    q_H: np.ndarray                      # potential over the sweep
    m1_12: np.ndarray
    m1_11: np.ndarray
    epsilon: EpsilonResult
    x_explicit: np.ndarray
    q_explicit: GridFunction             # cross-check route potential
    cells: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _window_mask(points: np.ndarray, window: float) -> np.ndarray:
    return np.abs(points) <= window + 1e-12


def inverse_transform(sd: ScatteringData, t: float, xgrid: SpatialGrid,
                      window: float = DEFAULT_WINDOW, chunk: int = CHUNK,
                      tail_completion: bool = True, tol: float = 1e-10,
                      slope_margin: float = SLOPE_MARGIN,
                      decay_floor: float = 1e-6) -> ReconstructionResult:
    """Recover q(., t) on xgrid from reflection data.

    The reflection data is evolved to time t first and the jump is then
    built at time zero -- the evolution factor e^{4 i t / z^2} and the
    t-part of the phase are the same thing, and composing them twice
    would double it.  The same holds beyond the grid edge: the tail
    model is fitted to the evolved data, so its coefficients already
    carry the (analytic in 1/z) evolution factor and the outer-band
    completion is evaluated at time zero as well.

    Hodograph cells x_H <= 0 use the Triangular factorization; cells
    x_H > 0 use the DeltaConjugated one (each keeps its oscillatory
    entries decaying in the half-plane its projection sees).

    ``decay_floor`` bounds how large the recovered q_H may be at the
    sweep-window ends; the reconstruction noise there scales with the
    spectral quadrature error, so coarse z-grids need a looser floor.
    """
    if window > xgrid.half_width:
        raise InvalidArgumentError("window exceeds the spatial grid half-width")
    sd_t = evolve_reflection(sd, t - sd.time) if t != sd.time else sd
    zgrid = sd_t.zgrid
    rv = np.asarray(sd_t.r, dtype=complex)

    sweep = xgrid.points[_window_mask(xgrid.points, window)]
    neg = sweep[sweep <= 0.0]
    pos = sweep[sweep > 0.0]

    Delta = d1 = None
    if pos.size:
        Delta = delta_function(GridFunction(zgrid, rv))[2].values
        d1 = np.trapezoid(np.log1p(np.abs(rv) ** 2), dx=zgrid.spacing) / (2j * np.pi)

    tail = fit_tail_model(sd_t) if tail_completion else None

    n_cells = sweep.size
    m12 = np.zeros(n_cells, dtype=complex)
    m11 = np.zeros(n_cells, dtype=complex)
    m11_raw = np.zeros(n_cells, dtype=complex)   # before the d1 shift: 1/s
    dm11 = np.zeros(n_cells, dtype=complex)      # coefficients of mu_11
    dx12 = np.zeros(n_cells, dtype=complex)
    cells = []
    dense_count = 0
    worst_residual = 0.0

    offset = 0
    for kind, part in ((TRIANGULAR, neg), (DELTA_CONJUGATED, pos)):
        for block in np.array_split(part, max(1, int(np.ceil(part.size / chunk)))):
            if block.size == 0:
                continue
            u21, u12, _ = _jump_entries(kind, rv, zgrid, block[:, None], 0.0, Delta)
            trhs = tail_band_rhs(tail, zgrid, block, 0.0) if tail is not None else None
            out = _solve_batch(u21, u12, kind, zgrid, tol=tol, tail_rhs=trhs)
            mu = out["mu"]
            dmu = out["dmu"]
            e11, e12, _, _ = _moment_rows(*mu, u21, u12, zgrid.spacing)
            a = _moment_rows(*dmu, u21, u12, zgrid.spacing)
            b = _moment_rows(*mu, *_jump_derivatives(u21, u12, zgrid), zgrid.spacing)
            sl = offset
            m11_raw[sl:sl + block.size] = e11
            dm11[sl:sl + block.size] = a[0] + b[0]
            if kind == DELTA_CONJUGATED:
                e11 = e11 - d1
            m12[sl:sl + block.size] = e12
            m11[sl:sl + block.size] = e11
            dx12[sl:sl + block.size] = a[1] + b[1]
            dense_count += int(np.sum(out["solver"] == "dense"))
            worst_residual = max(worst_residual, float(out["residual"].max()),
                                 float(np.nanmax(out["residual_dmu"])))
            for j, xh in enumerate(block):
                cells.append({
                    "x_H": float(xh), "t": float(t), "kind": kind,
                    "iterations": int(out["cell_iterations"][j]),
                    "residual": float(out["residual"][j]),
                    "solver": str(out["solver"][j]),
                    "abs_dx_m1_12": float(abs(dx12[sl + j])),
                })
            offset += block.size

    c1 = 0.0 + 0.0j
    if tail is not None:
        c1 = tail.c1
        tails = outer_band_moments(tail, zgrid.half_width, sweep, 0.0,
                                   m11=m11_raw, dm11=dm11)
        m12 = m12 + tails["m1_12"]
        dx12 = dx12 + tails["dx_m1_12"]

    q_H = qh_from_slope(dx12, margin=slope_margin)

    # primary route: hodograph fixed point on the sweep
    sweep_grid = _SweepGrid(sweep)
    eps = epsilon_fixed_point(GridFunction(sweep_grid, q_H), tol=1e-10)
    qh_re = _interp_decaying(sweep, q_H.real)
    qh_im = _interp_decaying(sweep, q_H.imag)
    q_values = qh_re(sweep + eps.values) + 1j * qh_im(sweep + eps.values)
    q_full = np.zeros(xgrid.point_count, dtype=complex)
    q_full[_window_mask(xgrid.points, window)] = q_values
    q = GridFunction(xgrid, q_full)

    # cross-check route: explicit map from the diagonal moment
    x_exp = x_from_m11(sweep, m11)
    q_explicit, interp_err = resample_q(q_H, x_exp, xgrid, decay_floor=decay_floor)

    eps_at = _interp_decaying(sweep, eps.values)
    route_gap_eps = float(np.max(np.abs(eps_at(x_exp) - m11.imag)))
    route_gap_q = float(np.max(np.abs(q.values - q_explicit.values)))
    e1 = conserved_E1(make_potential(xgrid, q_full))
    diagnostics = {
        "max_slope": float(np.max(np.abs(dx12))) if dx12.size else 0.0,
        "worst_residual": worst_residual,
        "dense_cells": dense_count,
        "tail_coefficient": c1,
        "route_gap_epsilon": route_gap_eps,
        "route_gap_q": route_gap_q,
        "epsilon_infinity": float(eps.values[-1]),
        "E1_reconstructed": e1,
        "epsilon_vs_E1": abs(float(eps.values[-1]) - e1),
        "resample_error_estimate": interp_err,
        "picard_iterations": eps.iterations,
    }
    return ReconstructionResult(
        xgrid=xgrid, q=q, x_H=sweep, slope=dx12, q_H=q_H, m1_12=m12,
        m1_11=m11, epsilon=eps, x_explicit=x_exp, q_explicit=q_explicit,
        cells=cells, diagnostics=diagnostics,
    )


class _SweepGrid:
    """Minimal grid facade for a uniform slice of a spatial grid."""

    def __init__(self, points: np.ndarray):
        if points.size < 2:
            raise InvalidArgumentError("sweep needs at least two cells")
        self._points = points
        self.spacing = float(points[1] - points[0])
        self.point_count = points.size
        self.half_width = float(max(abs(points[0]), abs(points[-1])))

    @property
    def points(self) -> np.ndarray:
        return self._points
