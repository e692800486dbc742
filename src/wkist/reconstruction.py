"""Potential recovery from reflection data: moments -> slope -> hodograph.

The chain per hodograph cell x_H:

1. solve the jump RHP, with the outer band beyond the grid edge taken
   from the lattice's closed-form tail completion, and read off
   s(x_H) = d/dx_H m^(1)_{12} = 2i M11(0) M12(0),
2. undo the stereographic slope:  |q_H|^2 = |s|^2 / (1 - |s|^2),
   q_H = sqrt(1 + |q_H|^2) s,
3. undo the hodograph map.  The physical coordinate satisfies
   x_H = x + eps(x) with eps(x) = int_{-inf}^x (sqrt(1+|q|^2) - 1) dy,
   so dx_H/dx = <q> = sqrt(1+|q|^2) and x is recovered either by the
   quadrature x(x_H) = int dx_H / <q_H>   (primary route)
   or explicitly from the diagonal moment, x = x_H - Im m^(1)_{11}
   (cross-check route); both routes resample the complex q_H from
   their map, whose nodes are close to uniform but not equally spaced,
   onto the physical grid.

The sweep of x_H cells is the physical grid inside a finite window,
which must hold at least two of its points; outside the window the
potential is below the decay floor and is extended by zero.  The RHP is
not solved at every sweep cell: m^(1) and the slope depend on x_H only
through e^{2 i x_H / z} on the active band |z| >= z_min, so they are
band-limited to 2 lambda_max = 2 / min |z|, and step 1 runs on a uniform
hodograph lattice of spacing h_H = stride * h, the largest multiple of
the grid spacing h with 2 lambda_max h_H <= ``LATTICE_PHASE_STEP``, ten
nodes per shortest period, and the slope and m^(1)_11 are carried onto
the sweep; steps 2 and 3 run on the sweep.  Both the lattice and the
resampling are interpolated by the ten-point Lagrange stencil
(``lattice._lagrange_interpolant``), and both estimate their error as
its miss at every other node (``_halving_miss``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .direct_scattering import ScatteringData, evolve_reflection
from .errors import (
    HodographInconsistentError,
    InvalidArgumentError,
    RangeError,
    RhpUnsolvedError,
    SlopeConditionError,
    check_threshold,
)
from .lattice import GridFunction, SpatialGrid, _halving_miss, _lagrange_interpolant
from .lax import conserved_E1, make_potential
from .rhp import (
    DEFAULT_WINDOW,
    DELTA_CONJUGATED,
    TRIANGULAR,
    _delta_shift,
    _jump_entries,
    _moment_rows,
    _solve_batch,
    delta_function,
)

__all__ = [
    "ReconstructionResult",
    "qh_from_slope",
    "x_from_qh",
    "x_from_m11",
    "resample_q",
    "inverse_transform",
]

SLOPE_MARGIN = 1e-6
# Largest |Re| and -Im the explicit map admits in the diagonal moment
MOMENT_TOLERANCE = 1e-3
# Largest |q_H| the recovered potential may keep at the sweep-window ends
DEFAULT_DECAY_FLOOR = 1e-6
# Spectral samples per batch of cells: a batch's (B, N_z) arrays are 512 KiB
# and the kernel's padded buffer 1 MiB, inside a per-core L2 cache.  Fastest
# of 2^13..2^17 on both N_z = 2048 and 4096.
BATCH_SAMPLES = 2**15
# Largest phase step 2 lambda_max h_H, in radians, of the fastest jump mode
# between hodograph lattice nodes: ten nodes per shortest period, one per
# point of the ``LAGRANGE_POINTS`` stencil that carries the lattice onto
# the sweep.
LATTICE_PHASE_STEP = 2.0 * np.pi / 10


def qh_from_slope(s: np.ndarray) -> np.ndarray:
    """Invert the slope relation s -> q_H.

    Requires max |s| < 1 - ``SLOPE_MARGIN``; the relation degenerates at |s| = 1
    (vertical tangent of the hodograph), which is the regime boundary,
    so violation raises SlopeConditionError rather than clipping.  A
    non-finite slope is a failed solve, not a regime outcome, and raises
    RhpUnsolvedError.
    """
    s = np.asarray(s, dtype=complex)
    if not np.all(np.isfinite(s)):
        raise RhpUnsolvedError("the RHP solves returned a non-finite slope")
    mags = np.abs(s)
    worst = float(mags.max()) if mags.size else 0.0
    if worst >= 1.0 - SLOPE_MARGIN:
        raise SlopeConditionError(
            f"max |s| = {worst:.6g} is not below 1 - {SLOPE_MARGIN:g}", max_slope=worst
        )
    return s / np.sqrt(1.0 - mags**2)


def _hodograph_lattice(sweep: np.ndarray, h: float, z_near: float) -> np.ndarray:
    """The x_H nodes the RHP is solved at, for a sweep of spacing ``h``.

    The lattice spacing is h_H = stride * h, stride = floor(
    ``LATTICE_PHASE_STEP`` * z_near / (2 h)), where 1 / z_near is the
    largest |lambda| of the active band (z_near = inf when nothing is
    active).  The nodes are j h_H for every j that covers the sweep, so
    x_H = 0, where the factorization kind switches, is one, and the end
    nodes overhang the sweep by less than h_H.  A stride of 1, or a
    lattice of fewer than four nodes, gives the sweep itself.
    """
    stride = np.floor(LATTICE_PHASE_STEP * z_near / (2.0 * h))
    if stride >= 2:
        h_H = stride * h
        # the slack keeps a sweep end that is a node to rounding from
        # growing one more node
        j = np.arange(np.floor(sweep[0] / h_H + 1e-9), np.ceil(sweep[-1] / h_H - 1e-9) + 1)
        if j.size >= 4:
            return j * h_H
    return sweep


def x_from_qh(x_H: np.ndarray, q_H: np.ndarray) -> np.ndarray:
    """Hodograph inversion by quadrature, x(x_H) = x_H[0] + int dx_H / <q_H>.

    ``x_H`` is a uniform grid of at least two points and ``q_H`` the
    potential there; the integral is the trapezoid rule, started at
    x(x_H[0]) = x_H[0] (the potential must have decayed there).  The
    shift eps = x_H - x accumulates 1 - 1/<q_H>, which lies in [0, 1),
    so the map is strictly increasing.
    """
    x_H = np.asarray(x_H, dtype=float)
    if x_H.ndim != 1 or x_H.size < 2 or np.shape(q_H) != x_H.shape:
        raise InvalidArgumentError("x_from_qh needs two or more nodes and one q_H per node")
    h = float(x_H[1] - x_H[0])
    rate = 1.0 - 1.0 / np.sqrt(1.0 + np.abs(q_H) ** 2)
    eps = np.concatenate([[0.0], np.cumsum(0.5 * h * (rate[1:] + rate[:-1]))])
    return x_H - eps


def x_from_m11(x_H: np.ndarray, m1_11: np.ndarray) -> np.ndarray:
    """Explicit hodograph inversion x = x_H - Im m^(1)_{11}.

    ``m1_11`` has one value per ``x_H``.  The diagonal moment must be
    finite and purely imaginary with nonnegative imaginary part, both up
    to ``MOMENT_TOLERANCE``, and the resulting x must be increasing in
    x_H; violations mean the moment does not describe a decaying
    potential and raise HodographInconsistentError.
    """
    x_H = np.asarray(x_H, dtype=float)
    m1_11 = np.asarray(m1_11, dtype=complex)
    if m1_11.shape != x_H.shape:
        raise InvalidArgumentError("x_from_m11 needs one m1_11 per node")
    if not np.all(np.isfinite(m1_11)):
        raise HodographInconsistentError("diagonal moment is not finite")
    worst_re = float(np.max(np.abs(m1_11.real), initial=0.0))
    if worst_re > MOMENT_TOLERANCE:
        raise HodographInconsistentError(f"diagonal moment has real part {worst_re:.3e}")
    worst_im = float(np.min(m1_11.imag, initial=0.0))
    if worst_im < -MOMENT_TOLERANCE:
        raise HodographInconsistentError(f"diagonal moment has imaginary part {worst_im:.3e} < 0")
    x = x_H - m1_11.imag
    if np.any(np.diff(x) <= 0):
        raise HodographInconsistentError("explicit hodograph map is not increasing")
    return x


def resample_q(q_H: np.ndarray, x_map: np.ndarray, xgrid: SpatialGrid,
               decay_floor: float = DEFAULT_DECAY_FLOOR):
    """Interpolate pairs (x_map[i], q_H[i]) onto a uniform grid.

    ``x_map`` holds x at the hodograph cells: q(x) = q_H(x_H(x)) is
    interpolated by ``_lagrange_interpolant`` and extended by zero outside the
    mapped range, which is only legitimate if it has decayed below
    ``decay_floor`` at the end nodes; otherwise RangeError.  Returns the
    resampled GridFunction and the interpolation-error estimate
    ``_halving_miss`` of (x_map, q_H).
    """
    q_H = np.asarray(q_H, dtype=complex)
    x_map = np.asarray(x_map, dtype=float)
    if x_map.size < 2 or np.any(np.diff(x_map) <= 0):
        raise HodographInconsistentError("resampling map needs two or more increasing nodes")
    edge = max(abs(q_H[0]), abs(q_H[-1]))
    if edge > decay_floor:
        raise RangeError(f"potential has not decayed at the mapped range ends (|q| = {edge:.3e})")
    values = _lagrange_interpolant(x_map, q_H)(xgrid.points)
    return GridFunction(xgrid, values), _halving_miss(x_map, q_H)


@dataclass
class ReconstructionResult:
    xgrid: SpatialGrid
    q: GridFunction                      # recovered potential on xgrid
    x_H: np.ndarray                      # hodograph sweep cells
    slope: np.ndarray                    # s(x_H) over the sweep
    q_H: np.ndarray                      # potential over the sweep
    m1_11: np.ndarray
    epsilon: np.ndarray                  # eps = x_H - x at the sweep cells
    x_explicit: np.ndarray
    q_explicit: GridFunction             # cross-check route potential
    cells: dict = field(default_factory=dict)   # per solved lattice cell, in x_H order
    diagnostics: dict = field(default_factory=dict)


def _solve_cells(kind, r, zgrid, x_H, Delta=None, d1=None) -> dict:
    """``_solve_batch`` at cells ``x_H`` of one kind, with their jump entries and moments.

    Adds "u21", "u12", "m11" (less the delta shift ``d1`` for the
    DeltaConjugated kind, which also needs ``Delta``) and "m12", the
    windowed (1,2) moment.
    """
    u21, u12 = _jump_entries(kind, r, zgrid, x_H, Delta)
    # row 1 of mu: the only row the moment and the slope read
    out = _solve_batch(u21, u12, kind, zgrid)
    m11, m12 = _moment_rows(*out["mu"], u21, u12, zgrid.spacing)
    if kind == DELTA_CONJUGATED:
        m11 = m11 - d1
    return dict(out, u21=u21, u12=u12, m11=m11, m12=m12)


def _window_mask(points: np.ndarray, window: float) -> np.ndarray:
    return np.abs(points) <= window + 1e-12


def inverse_transform(sd: ScatteringData, t: float, xgrid: SpatialGrid,
                      window: float = DEFAULT_WINDOW,
                      decay_floor: float = DEFAULT_DECAY_FLOOR) -> ReconstructionResult:
    """Recover q(., t) on xgrid from reflection data.

    The reflection data is evolved to time t first and the jump is then
    built at time zero -- the evolution factor e^{4 i t / z^2} and the
    t-part of the phase are the same thing, and composing them twice
    would double it.  The outer band beyond the grid edge is completed
    from the edge samples of the jump itself, so it carries the evolution
    factor too.

    The RHP is solved at the nodes of the hodograph lattice
    (``_hodograph_lattice``), whose spacing the active band sets, and the
    slope and m^(1)_11 are carried onto the sweep by
    ``_lagrange_interpolant``; a lattice that is the sweep itself is not
    interpolated.  ``cells`` has one entry per lattice node, and the
    diagnostic ``lattice_error_estimate`` is the slope's ``_halving_miss``
    over the lattice (0 when nothing is interpolated).  Lattice nodes x_H <= 0 use the Triangular
    factorization; nodes x_H > 0 use the DeltaConjugated one (each keeps
    its oscillatory entries decaying in the half-plane its projection
    sees).  Every solve adds the outer band of the jump
    (``_solve_batch``) and stops at ``NEUMANN_TOL``; the slope must stay
    below 1 - ``SLOPE_MARGIN``.  Cells are solved in even, equally spaced
    batches of at most max(1, ``BATCH_SAMPLES // N_z``).

    The hodograph map is then undone twice: by the quadrature of
    dx = dx_H / <q_H> (``x_from_qh``, the primary route, which gives
    ``q`` and ``epsilon`` = x_H - x at the cells) and explicitly from the
    diagonal moment (``x_from_m11``, the cross-check route, which gives
    ``q_explicit``).  Both resample q_H onto ``xgrid`` with ``resample_q``;
    the diagnostic ``resample_error_estimate`` is the primary route's.

    ``decay_floor`` bounds how large the recovered q_H may be at the
    sweep-window ends; the reconstruction noise there scales with the
    spectral quadrature error, so coarse z-grids need a looser floor.

    The reflection data must vanish off ``sd.active`` (|z| < z_min and
    z = 0), as the forward map leaves it: the slope is read off M(0),
    which needs a jump that is the identity around z = 0.  The window
    must hold at least two points of ``xgrid``.
    """
    check_threshold("decay_floor", decay_floor)
    if np.any(sd.r[~sd.active] != 0):
        raise InvalidArgumentError("reflection data is nonzero for |z| < z_min or at z = 0")
    if window > xgrid.half_width:
        raise InvalidArgumentError("window exceeds the spatial grid half-width")
    sweep = xgrid.points[_window_mask(xgrid.points, window)]
    if sweep.size < 2:
        raise InvalidArgumentError("sweep needs at least two cells")
    sd_t = evolve_reflection(sd, t - sd.time) if t != sd.time else sd
    zgrid = sd_t.zgrid
    rv = np.asarray(sd_t.r, dtype=complex)

    z_near = np.min(np.abs(zgrid.points[sd_t.active]), initial=np.inf)
    nodes = _hodograph_lattice(sweep, xgrid.spacing, z_near)
    neg = nodes[nodes <= 0.0]
    pos = nodes[nodes > 0.0]

    Delta = d1 = None
    if pos.size:
        Delta = delta_function(GridFunction(zgrid, rv))[2].values
        d1 = _delta_shift(rv, zgrid)

    n_cells = nodes.size
    m11 = np.zeros(n_cells, dtype=complex)
    dx12 = np.zeros(n_cells, dtype=complex)
    cells = {
        "x_H": nodes,
        "t": np.full(n_cells, float(t)),
        "kind": np.empty(n_cells, dtype=object),
        "iterations": np.zeros(n_cells, dtype=int),
        "residual": np.zeros(n_cells),
    }

    batch = max(1, BATCH_SAMPLES // zgrid.point_count)
    offset = 0
    for kind, part in ((TRIANGULAR, neg), (DELTA_CONJUGATED, pos)):
        for block in np.array_split(part, max(1, int(np.ceil(part.size / batch)))):
            if block.size == 0:
                continue
            out = _solve_cells(kind, rv, zgrid, block, Delta, d1)
            sl = slice(offset, offset + block.size)
            m11[sl] = out["m11"]
            dx12[sl] = out["slope"]
            cells["kind"][sl] = kind
            cells["iterations"][sl] = out["cell_iterations"]
            cells["residual"][sl] = out["residual"]
            offset += block.size
            # free this batch's (B, N) arrays before the next batch builds its own
            del out
    # hypot rounds as abs() of a complex scalar does; np.abs of an array
    # can differ from it in the last bit
    cells["abs_dx_m1_12"] = np.hypot(dx12.real, dx12.imag)

    slope, m1_11, lattice_err = dx12, m11, 0.0
    if nodes is not sweep:
        # the end nodes cover the sweep only to rounding; the interpolant
        # is 0 beyond
        inside = np.clip(sweep, nodes[0], nodes[-1])
        slope, m1_11 = _lagrange_interpolant(nodes, np.stack([dx12, m11], axis=1))(inside).T
        lattice_err = _halving_miss(nodes, dx12)

    q_H = qh_from_slope(slope)

    # the explicit map is checked first: a moment that does not describe a
    # decaying potential is reported as such, before the range check
    x_exp = x_from_m11(sweep, m1_11)
    # primary route: the quadrature of dx = dx_H / <q_H>
    x_map = x_from_qh(sweep, q_H)
    q, interp_err = resample_q(q_H, x_map, xgrid, decay_floor=decay_floor)
    eps = sweep - x_map
    # cross-check route: explicit map from the diagonal moment
    q_explicit, _ = resample_q(q_H, x_exp, xgrid, decay_floor=decay_floor)

    e1 = conserved_E1(make_potential(xgrid, q.values))
    diagnostics = {
        "max_slope": float(np.max(np.abs(slope))),
        "worst_residual": float(cells["residual"].max()),
        "route_gap_epsilon": float(np.max(np.abs(eps - m1_11.imag))),
        "route_gap_q": float(np.max(np.abs(q.values - q_explicit.values))),
        "epsilon_infinity": float(eps[-1]),
        "E1_reconstructed": e1,
        "epsilon_vs_E1": abs(float(eps[-1]) - e1),
        "resample_error_estimate": interp_err,
        "lattice_error_estimate": lattice_err,
    }
    return ReconstructionResult(
        xgrid=xgrid, q=q, x_H=sweep, slope=slope, q_H=q_H,
        m1_11=m1_11, epsilon=eps, x_explicit=x_exp, q_explicit=q_explicit,
        cells=cells, diagnostics=diagnostics,
    )
