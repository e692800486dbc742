"""Potential recovery from reflection data: moments -> slope -> hodograph.

The chain per hodograph cell x_H:

1. solve the jump RHP on the uniform lam = -1/z grid of
   ``rhp.lam_grid``, which holds the whole jump, and read off
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
through e^{-2 i x_H lam} on the band the forward map leaves, |lam| <=
lambda_max = 1 / min |z|, so they are band-limited to 2 lambda_max.
The hodograph lattice has spacing h_H = stride * h, the largest multiple
of the grid spacing h with 2 lambda_max h_H <= ``LATTICE_PHASE_STEP``,
ten nodes per shortest period.  Step 1 runs first on its half lattice, every other node from
x_H = 0 (five per period) and both end nodes, and on check cells where
its interpolant is likeliest to miss: the lattice midpoints flanking
x_H = 0, where the factorization kind switches; the points of the two
end intervals where the one-sided stencil's node polynomial peaks; and
the midpoints beside the peak, on each side of x_H = 0, of the half
lattice's own every-other-node miss profile.  x_H = 0 is solved in both
kinds, and the gap of their slopes is ``kind_gap``.  When the
interpolant from the half lattice misses its check cells, and the kinds
differ, by at most ``LATTICE_TOLERANCE``, the slope and m^(1)_11 are
carried onto the sweep from the half lattice; otherwise the rest of the
lattice is solved and they are carried from all of it.  Each kind's
cells of a wave are solved in as few equal batches as hold them, each of
at most ``BATCH_SAMPLES`` spectral samples.  Steps 2 and 3
run on the sweep.  Both the lattice and the resampling are interpolated
by the ten-point Lagrange stencil (``lattice._lagrange_interpolant``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .direct_scattering import ScatteringData
from .errors import (
    HodographInconsistentError,
    InvalidArgumentError,
    RangeError,
    RhpUnsolvedError,
    SlopeConditionError,
    check_number,
)
from .lattice import (LAGRANGE_POINTS, GridFunction, SpatialGrid, _halving_miss,
                      _lagrange_interpolant)
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
    lam_grid,
    lam_reflection,
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
# Spectral samples per batch of cells, the solve's memory bound: a batch's
# (B, N) arrays are at most 512 KiB and the kernel's padded buffer 1 MiB.
# The lam grid grows with t (``rhp.lam_grid``); at its 256 points for t = 0
# a batch holds 128 cells, and each kind's lattice wave is one batch.
BATCH_SAMPLES = 2**15
# Largest phase step 2 lambda_max h_H, in radians, of the fastest jump mode
# between hodograph lattice nodes: ten nodes per shortest period, one per
# point of the ``LAGRANGE_POINTS`` stencil that carries the lattice onto
# the sweep.
LATTICE_PHASE_STEP = 2.0 * np.pi / LAGRANGE_POINTS
# Largest lattice_error_estimate at which the slope is carried from the
# half lattice, five nodes per shortest period
LATTICE_TOLERANCE = 5e-7


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
    resampled GridFunction.
    """
    check_number("decay_floor", decay_floor, 0.0)
    q_H = np.asarray(q_H, dtype=complex)
    x_map = np.asarray(x_map, dtype=float)
    if x_map.size < 2 or np.any(np.diff(x_map) <= 0):
        raise HodographInconsistentError("resampling map needs two or more increasing nodes")
    edge = max(abs(q_H[0]), abs(q_H[-1]))
    if edge > decay_floor:
        raise RangeError(f"potential has not decayed at the mapped range ends (|q| = {edge:.3e})")
    values = _lagrange_interpolant(x_map, q_H)(xgrid.points)
    return GridFunction(xgrid, values)


@dataclass
class ReconstructionResult:
    xgrid: SpatialGrid
    q: GridFunction                      # recovered potential on xgrid
    x_H: np.ndarray                      # hodograph sweep cells
    nodes: np.ndarray                    # x_H the slope is interpolated from
    slope: np.ndarray                    # s(x_H) over the sweep
    q_H: np.ndarray                      # potential over the sweep
    m1_11: np.ndarray
    epsilon: np.ndarray                  # eps = x_H - x at the sweep cells
    x_explicit: np.ndarray
    q_explicit: GridFunction             # cross-check route potential
    cells: dict = field(default_factory=dict)   # per solved lattice cell, in x_H order
    diagnostics: dict = field(default_factory=dict)


def _solve_cells(kind, r, grid, x_H, Delta=None, d1=None) -> dict:
    """``_solve_batch`` at cells ``x_H`` of one kind, with their jump entries and moments.

    Adds "u21", "u12", "m11" (less the delta shift ``d1`` for the
    DeltaConjugated kind, which also needs ``Delta``) and "m12", the
    (1,2) moment; ``grid`` is the lam grid ``r`` is sampled on.
    """
    u21, u12 = _jump_entries(kind, r, grid, x_H, Delta)
    # row 1 of mu: the only row the moment and the slope read
    out = _solve_batch(u21, u12, kind, grid)
    m11, m12 = _moment_rows(*out["mu"], u21, u12, grid.spacing)
    if kind == DELTA_CONJUGATED:
        m11 = m11 - d1
    return dict(out, u21=u21, u12=u12, m11=m11, m12=m12)


def _window_mask(points: np.ndarray, window: float) -> np.ndarray:
    return np.abs(points) <= window + 1e-12


def _kind(x_H: float) -> str:
    """A cell x_H <= 0 takes the Triangular factorization, a cell x_H > 0 the DeltaConjugated one."""
    return TRIANGULAR if x_H <= 0.0 else DELTA_CONJUGATED


def _by_kind(x_H) -> dict:
    """Increasing cells ``x_H`` split by ``_kind``, each kind's from the sweep end inward."""
    x_H = np.asarray(x_H, dtype=float)
    return {TRIANGULAR: x_H[x_H <= 0.0], DELTA_CONJUGATED: x_H[x_H > 0.0][::-1]}


def _solved_at(solved: dict, x_H: np.ndarray, column: int) -> np.ndarray:
    """One column of ``solved`` at cells ``x_H``, each read in the kind its sign gives."""
    return np.array([solved[_kind(x), x][column] for x in x_H])


def _carry(nodes: np.ndarray, solved: dict):
    """``_lagrange_interpolant`` of the (slope, m^(1)_11) columns solved at ``nodes``."""
    return _lagrange_interpolant(nodes, np.stack([_solved_at(solved, nodes, 0),
                                                  _solved_at(solved, nodes, 1)], axis=1))


def _miss(carry, nodes: np.ndarray, solved: dict, checks: np.ndarray) -> float:
    """Worst miss of the slope ``carry`` takes through ``nodes`` at solved cells ``checks``."""
    if checks.size == 0:
        return 0.0
    inside = np.clip(checks, nodes[0], nodes[-1])
    return float(np.max(np.abs(carry(inside)[:, 0] - _solved_at(solved, checks, 0))))


def _check_cells(fine: np.ndarray, coarse: np.ndarray, points) -> np.ndarray:
    """``points`` as check cells of the half lattice ``coarse``: a point
    that is a node of ``fine`` to rounding is that node, and one that is
    a node of ``coarse`` is dropped."""
    tol = 1e-9 * (fine[1] - fine[0])
    out = []
    for x in points:
        k = np.argmin(np.abs(fine - x))
        x = fine[k] if abs(fine[k] - x) <= tol else x
        if not np.any(coarse == x):
            out.append(x)
    return np.array(sorted(set(out)))


def _end_peaks(nodes: np.ndarray) -> list:
    """Where in each end interval of ``nodes`` the node polynomial of its
    one-sided ``_lagrange_interpolant`` stencil peaks: the interpolant's
    likeliest worst miss there, nearer the end node than the midpoint."""
    out = []
    for ends in (nodes[:LAGRANGE_POINTS], nodes[::-1][:LAGRANGE_POINTS]):
        x = np.linspace(ends[0], ends[1], 65)[1:-1]
        out.append(x[np.argmax(np.abs(np.prod(x[:, None] - ends, axis=1)))])
    return out


def _peak_midpoints(fine: np.ndarray, coarse: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The midpoints of ``fine`` beside the worst node on each side of
    x_H = 0 of the half lattice's own every-other-node miss profile."""
    dropped = np.arange(1, coarse.size - 1, 2)
    if dropped.size < 3:
        return np.empty(0)
    profile = np.abs(_lagrange_interpolant(coarse[::2], slope[::2])(coarse[dropped])
                     - slope[dropped])
    # the end values are left to the sweep-end checks
    profile[[0, -1]] = 0.0
    beside = []
    for side in (coarse[dropped] < 0.0, coarse[dropped] > 0.0):
        if side.any():
            k = np.searchsorted(fine, coarse[dropped[side][np.argmax(profile[side])]])
            # the end nodes are half-lattice nodes
            beside += [fine[i] for i in (k - 1, k + 1) if 0 < i < fine.size - 1]
    return np.array(beside)


def inverse_transform(sd: ScatteringData, t: float, xgrid: SpatialGrid,
                      window: float = DEFAULT_WINDOW,
                      decay_floor: float = DEFAULT_DECAY_FLOOR) -> ReconstructionResult:
    """Recover q(., t) on xgrid from reflection data.

    The RHP is solved on the uniform lam grid of ``rhp.lam_grid``, sized
    from the band edge, the window and L: r is carried there from the z
    band samples ``sd.r`` (``rhp.lam_reflection``, so a run from
    reflection.csv solves the same cells as one in memory), then evolved
    from ``sd.time`` to t on that grid by e^{4 i t lam^2} and the jump is
    built at time zero -- the evolution factor and the t-part of the
    phase are the same thing, and composing them twice would double it.

    The RHP is solved on the hodograph lattice (``_hodograph_lattice``),
    whose spacing the active band sets, in up to three waves.  The first
    solves its half lattice, every other node from x_H = 0 and both end
    nodes, the DeltaConjugated cell at x_H = 0, and the check cells known
    before any solve (module docstring: the flanking midpoints and the
    end-interval points).  If their miss and ``kind_gap``, the slope gap
    of the two kinds at x_H = 0, are at most ``LATTICE_TOLERANCE``, the
    second wave solves the profile-peak midpoints.
    ``lattice_error_estimate`` is then the larger of the half-lattice
    interpolant's worst miss at the check cells and ``kind_gap``; at most
    ``LATTICE_TOLERANCE``, the slope and m^(1)_11 are carried onto the
    sweep from the half lattice by ``_lagrange_interpolant``.  Otherwise
    the last wave solves the rest of the lattice, the estimate becomes
    the larger of the slope's ``_halving_miss`` over the lattice and
    ``kind_gap``, and they are carried from the whole lattice.  A lattice
    that is the sweep itself is solved in one wave and not interpolated
    (estimate 0).  ``nodes`` are the x_H interpolated from; ``cells`` has one entry per solved cell, in x_H
    order, x_H = 0 once per kind, and ``worst_residual`` is the largest
    residual over all of them.  Cells x_H <= 0 use the Triangular
    factorization and cells x_H > 0 the DeltaConjugated one (each keeps
    its oscillatory entries decaying in the half-plane its projection
    sees).  Every solve stops at ``NEUMANN_TOL``; the slope must stay
    below 1 - ``SLOPE_MARGIN``.  A wave's cells of each kind, from the
    sweep end inward and its check cells after them, are split evenly
    into ceil(n / cap) batches, cap = max(1, ``BATCH_SAMPLES // N``) and
    N the lam grid's points.

    The hodograph map is then undone twice: by the quadrature of
    dx = dx_H / <q_H> (``x_from_qh``, the primary route, which gives
    ``q`` and ``epsilon`` = x_H - x at the cells) and explicitly from the
    diagonal moment (``x_from_m11``, the cross-check route, which gives
    ``q_explicit``).  Both resample q_H onto ``xgrid`` with ``resample_q``;
    the diagnostic ``resample_error_estimate`` is the ``_halving_miss`` of
    the primary route's (x, q_H).

    ``decay_floor`` bounds how large the recovered q_H may be at the
    sweep-window ends; the reconstruction noise there is set by the band
    cut at z_min, so coarse z-grids need a looser floor.

    The reflection data must vanish off ``sd.active`` (|z| < z_min and
    z = 0), as the forward map leaves it: the slope is read off M(0),
    which needs a jump that is the identity around z = 0.  The window
    must hold at least two points of ``xgrid``.
    """
    check_number("decay_floor", decay_floor, 0.0)
    if np.any(sd.r[~sd.active] != 0):
        raise InvalidArgumentError("reflection data is nonzero for |z| < z_min or at z = 0")
    if window > xgrid.half_width:
        raise InvalidArgumentError("window exceeds the spatial grid half-width")
    sweep = xgrid.points[_window_mask(xgrid.points, window)]
    if sweep.size < 2:
        raise InvalidArgumentError("sweep needs at least two cells")
    zgrid = sd.zgrid
    grid = lam_grid(zgrid, xgrid.half_width + window, t)
    rv = lam_reflection(sd.r, zgrid, grid, window)
    if t != sd.time:
        # evolve_reflection's factor e^{4 i t / z^2}, at z = -1/lam
        rv = rv * np.exp(4j * check_number("t", t - sd.time) * grid.points ** 2)
    r = GridFunction(grid, rv)

    fine = _hodograph_lattice(sweep, xgrid.spacing, np.min(np.abs(zgrid.points[sd.active])))
    Delta = delta_function(r)[2].values
    d1 = _delta_shift(rv, grid)
    cap = max(1, BATCH_SAMPLES // grid.point_count)
    solved = {}

    def solve(waves):
        # each kind's cells split evenly into as few batches of at most
        # cap cells as hold them; a cell's slope, m^(1)_11, sweep count
        # and residual go into solved under (kind, x_H)
        for kind, cells in waves.items():
            for block in np.array_split(cells, -(-cells.size // cap)) if cells.size else ():
                out = _solve_cells(kind, rv, grid, block, Delta, d1)
                for row in zip(block, out["slope"], out["m11"], out["cell_iterations"],
                               out["residual"]):
                    solved[kind, row[0]] = row[1:]
                # free this batch's (B, N) arrays before the next batch builds its own
                del out

    def kind_gap():
        return float(abs(solved[DELTA_CONJUGATED, 0.0][0] - solved[TRIANGULAR, 0.0][0]))

    def unsolved(cells):
        # by kind, with the DeltaConjugated cell at x_H = 0 last
        cells = _by_kind([x for x in cells if (_kind(x), x) not in solved])
        if (DELTA_CONJUGATED, 0.0) not in solved:
            cells[DELTA_CONJUGATED] = np.append(cells[DELTA_CONJUGATED], 0.0)
        return cells

    if fine is sweep:
        # nothing is interpolated: every sweep cell is solved, and x_H = 0
        nodes, lattice_err = sweep, 0.0
        solve(unsolved(np.sort(np.append(sweep[sweep != 0.0], 0.0))))
    else:
        # the half lattice: every other node from x_H = 0, and both end
        # nodes, with the DeltaConjugated cell at x_H = 0, then its check
        # cells known before any solve, the midpoints flanking x_H = 0 and
        # the end-interval peaks
        zero = np.flatnonzero(fine == 0.0)[0]
        half = (np.arange(fine.size) - zero) % 2 == 0
        half[[0, -1]] = True
        coarse = fine[half]
        checks = _check_cells(fine, coarse, (fine[zero - 1], fine[zero + 1], *_end_peaks(coarse)))
        first, known = unsolved(coarse), _by_kind(checks)
        solve({kind: np.concatenate([first[kind], known[kind]]) for kind in first})
        carry = _carry(coarse, solved)
        lattice_err = max(_miss(carry, coarse, solved, checks), kind_gap())
        if lattice_err <= LATTICE_TOLERANCE:
            # the midpoints beside the peaks of the half lattice's
            # every-other-node miss profile
            peaks = np.array(sorted(set(_peak_midpoints(fine, coarse,
                                                        _solved_at(solved, coarse, 0)))
                                    - set(checks)))
            solve(_by_kind(peaks))
            checks = np.concatenate([checks, peaks])
            lattice_err = max(_miss(carry, coarse, solved, checks), kind_gap())
        nodes = coarse
        if lattice_err > LATTICE_TOLERANCE:
            # the rest of the lattice
            solve(unsolved(fine))
            nodes, carry = fine, _carry(fine, solved)
            lattice_err = max(_halving_miss(fine, _solved_at(solved, fine, 0)), kind_gap())

    # the cells in x_H order, the Triangular cell at x_H = 0 first
    keys = sorted(solved, key=lambda key: (key[1], key[0] == DELTA_CONJUGATED))
    rows = [solved[key] for key in keys]
    dx12 = np.array([row[0] for row in rows])
    cells = {
        "x_H": np.array([x for _, x in keys]),
        "t": np.full(len(keys), float(t)),
        "kind": np.array([kind for kind, _ in keys], dtype=object),
        "iterations": np.array([row[2] for row in rows], dtype=int),
        "residual": np.array([row[3] for row in rows]),
        # hypot rounds as abs() of a complex scalar does; np.abs of an
        # array can differ from it in the last bit
        "abs_dx_m1_12": np.hypot(dx12.real, dx12.imag),
    }

    if nodes is sweep:
        slope, m1_11 = _solved_at(solved, sweep, 0), _solved_at(solved, sweep, 1)
    else:
        # the end nodes cover the sweep only to rounding; the interpolant
        # is 0 beyond
        slope, m1_11 = carry(np.clip(sweep, nodes[0], nodes[-1])).T

    q_H = qh_from_slope(slope)

    # the explicit map is checked first: a moment that does not describe a
    # decaying potential is reported as such, before the range check
    x_exp = x_from_m11(sweep, m1_11)
    # primary route: the quadrature of dx = dx_H / <q_H>
    x_map = x_from_qh(sweep, q_H)
    q = resample_q(q_H, x_map, xgrid, decay_floor=decay_floor)
    eps = sweep - x_map
    # cross-check route: explicit map from the diagonal moment
    q_explicit = resample_q(q_H, x_exp, xgrid, decay_floor=decay_floor)

    e1 = conserved_E1(make_potential(xgrid, q.values))
    diagnostics = {
        "max_slope": float(np.max(np.abs(slope))),
        "worst_residual": float(cells["residual"].max()),
        "route_gap_epsilon": float(np.max(np.abs(eps - m1_11.imag))),
        "route_gap_q": float(np.max(np.abs(q.values - q_explicit.values))),
        "epsilon_infinity": float(eps[-1]),
        "E1_reconstructed": e1,
        "epsilon_vs_E1": abs(float(eps[-1]) - e1),
        "resample_error_estimate": _halving_miss(x_map, q_H),
        "lattice_error_estimate": lattice_err,
        "kind_gap": kind_gap(),
    }
    return ReconstructionResult(
        xgrid=xgrid, q=q, x_H=sweep, nodes=nodes, slope=slope, q_H=q_H,
        m1_11=m1_11, epsilon=eps, x_explicit=x_exp, q_explicit=q_explicit,
        cells=cells, diagnostics=diagnostics,
    )
