"""Jump factorizations and the Beals-Coifman singular integral solve, in lam = -1/z.

For jump data v = (I - w_-)^{-1} (I + w_+) on the real z line, the
sectionally analytic solution of the normalized RHP is parameterized by
mu solving

    mu = I + C+(mu w_-) + C-(mu w_+),

after which the large-z moment m^(1) = lim z (m(z) - I) is an integral
of mu against the jump data.  The equation is posed in lam = -1/z,
which maps each half-plane onto itself and z = infinity, where the RHP
is normalized, onto the interior point lam = 0 (Olver, Numer. Math.
2012; Trogdon & Olver, SIAM 2016).  With s = -1/sigma,

    C_z[f](z) = C[f](lam) - C[f](0),

so each half-step of the solve is the lattice Cauchy kernel on a
uniform lam grid (``lam_grid``) less its own value at the node lam = 0,
where the jump vanishes because r does.  r on that grid is carried from
the z band the forward map leaves (``lam_reflection``); the band's z
cut at |z| = Z becomes the gap |lam| < 1/Z around lam = 0, which the
interpolant spans, so no outer band or tail completion enters the solve.

Two factorizations of the same jump are used, switched on the sign of
x_H so that the off-diagonal phases decay in the half-plane where each
Cauchy projection lives:

* Triangular (x_H <= 0): w_+ has only the (2,1) entry r e^{2 i theta},
  w_- only the (1,2) entry conj(r) e^{-2 i theta}.
* DeltaConjugated (x_H > 0): the jump is first conjugated by the
  scalar function delta = exp(C[log(1 + |r|^2)] - C[log(1 + |r|^2)](0)),
  1 at lam = 0, after which w_+ has only (1,2) = conj(rho) e^{-2 i theta}
  and w_- only (2,1) = rho e^{2 i theta}, with rho = r / (delta_- delta_+).

The delta conjugation rescales the RHP solution columns, so the raw
moment of the conjugated problem differs from the original one by the
diagonal d1 * sigma3, d1 = (1/2 pi i) int log(1 + |r|^2) ds (the 1/z
coefficient of log delta).  The inverse transform removes d1 from
m^(1)_11 of its DeltaConjugated cells, so the two factorization kinds
report the moment of the same underlying problem.

In both kinds the (2,1)-position entry carries e^{+2 i theta} and the
(1,2)-position entry carries e^{-2 i theta}, theta = x_H/z = -x_H lam;
the time factor e^{4 i t lam^2} is carried by r itself
(``evolve_reflection``).

The moments are read at lam = 0.  With ds = d lam / lam^2, m^(1) =
-(1/2 pi i) int X (w_+ + w_-) ds is minus the lam-derivative there of
the Cauchy integral, which on the sinc grid is a sum over the nodes at
odd offsets m from lam = 0 of 2 (X u)_m / (m^2 h) (``_moment_rows``;
Stenger 1993; Weideman 1995), and d1 the same sum of log(1 + |r|^2).

The equation (I - C_w) X = rhs is solved a batch of cells at a time by
block Gauss-Seidel sweeps that measure their exact residual after every
half-step at no extra cost, in the z line's L2 norm (``_l2_residual``),
and stop at the first iterate that meets tol
(``_neumann``: 2 s + 1 or 2 s + 2 Cauchy kernel passes for s column-1
updates, each pass C+ or C- directly).  They are the only solver: for
small data the operator is a contraction (Beals & Coifman, CPAM 37,
1984; Zhou, SIAM J. Math. Anal. 20, 1989), and a batch in which any
cell fails to converge raises ``RhpUnsolvedError``.  The tests compare
the sweeps against a dense collocation solve of the same discrete
system (``tests/rhp_cells.py``).  A cell is one row of X: the two rows
solve the same operator with their own right-hand sides, so both rows of
a jump are two cells of one batch.
The inverse transform (``_solve_batch``) solves row 1 alone, since
m^(1)_11 and the slope are integrals of row 1; row 2 is its Schwarz
reflection.

The x_H-derivative of the moment needs no second solve.  The jump
depends on x_H only through e^{i (x_H/z) sigma3} and is the identity
for |z| < z_min, so M(z) is analytic at z = 0 and M(z) e^{-i (x_H/z)
sigma3} has an x_H-independent jump; by Liouville (the Lax pair of the
RHP, Beals & Coifman, CPAM 37, 1984)

    d m^(1)/d x_H = -i (M(0) sigma3 M(0)^{-1} - sigma3),

whose (1,2) entry is the slope 2i M11(0) M12(0).  z = 0 is lam =
infinity, where the lam-plane Cauchy integral vanishes, so M(z = 0) - I
is minus its value at lam = 0, the kernel's own odd-offset sum
(``_m0_rows``); the DeltaConjugated kind solves for M delta^{sigma3},
which leaves both the product and the derivative unchanged, and costs no
kernel pass beyond the solve's.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (InvalidArgumentError, ResolutionExceededError, RhpUnsolvedError,
                     check_number)
from .lattice import GridFunction, SpectralGrid, _cauchy_plus_batch, _lagrange_interpolant

__all__ = ["delta_function", "lam_grid", "lam_reflection", "suggest_z_min"]

NEUMANN_TOL = 1e-10
NEUMANN_CAP = 200
POINTS_PER_PERIOD = 5.0
# half-width of the x_H window the inverse sweeps, unless a run sets one
DEFAULT_WINDOW = 6.0
# nodes of the lam grid per period of its fastest jump mode (``lam_grid``)
LAM_POINTS_PER_PERIOD = 4.0
# most points a lam grid may have
LAM_CAP = 2**16
# largest |r| on the lam grid, in units of the largest band sample, that
# ``lam_reflection`` accepts from the frame of the potential, above the
# 1.02 that the forward map's data reach in it
OVERSHOOT = 1.5

TRIANGULAR = "Triangular"
DELTA_CONJUGATED = "DeltaConjugated"


def lam_grid(zgrid: SpectralGrid, extent: float, t: float = 0.0) -> SpectralGrid:
    """The uniform lam grid [-Lambda, Lambda) the RHP of data on ``zgrid`` is solved on.

    Lambda = 1/(z_near - h_z), z_near the band's smallest |z|: the first
    z node without data, where ``lam_reflection`` lets r reach zero (at
    most 2/z_near, for a band that reaches the node next to z = 0).  The
    jump oscillates in lam no faster than e^{2 i reach lam}: r(lam) like
    e^{2 i lam x} with |x| <= L, the phase e^{-2 i lam x_H} with |x_H| <=
    window, and the time factor e^{4 i t lam^2} at most like e^{8 i t
    Lambda lam}, so reach = ``extent`` + 4 |t| Lambda with ``extent`` = L
    + window.  N is the smallest power of two (>= 4) that puts
    ``LAM_POINTS_PER_PERIOD`` nodes on the period pi / reach; lam = 0,
    node N/2, is where the RHP is normalized.  A grid above ``LAM_CAP``
    points is refused.
    """
    z_near = float(np.min(np.abs(zgrid.points[zgrid.active])))
    lam_max = 1.0 / max(z_near - zgrid.spacing, z_near / 2.0)
    reach = extent + 4.0 * abs(t) * lam_max
    n = 2.0 * lam_max * reach * LAM_POINTS_PER_PERIOD / math.pi
    if not n <= LAM_CAP:  # also refuses inf and NaN
        raise ResolutionExceededError(
            f"the lam grid needs {n:.3g} points (> {LAM_CAP}) to resolve the jump")
    return SpectralGrid(lam_max, max(4, 1 << math.ceil(math.log2(max(n, 1.0)))))


def _roll_off(s):
    """A C-infinity step from 1 at s <= 0 to 0 at s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    f = lambda y: np.exp(-1.0 / np.maximum(y, 1e-300)) * (y > 0.0)
    return f(1.0 - s) / (f(1.0 - s) + f(s))


def lam_reflection(r_values: np.ndarray, zgrid: SpectralGrid, grid: SpectralGrid,
                   window: float = DEFAULT_WINDOW) -> np.ndarray:
    """r(lam) = r(z = -1/lam) on the lam ``grid`` of :func:`lam_grid`, from z-grid samples.

    The band's lam = -1/z are crowded toward lam = 0, spaced h_z lam^2,
    and stop at |lam| = 1/Z; r vanishes at lam = 0 (z = infinity) like
    -c1 lam.  The band nodes are thinned, on each side outward from lam
    = 0, to the first node of each interval of ``grid.spacing`` (so that
    no stencil holds clustered nodes beside the gap), lam = 0 is added
    with the value 0, and ``_lagrange_interpolant`` carries them onto
    the grid: every grid point in the gap |lam| < 1/Z has band nodes on
    both sides of its stencil, so nothing is extrapolated across it.

    The interpolant runs in the frame of the potential: r of a potential
    moved by x0 is r e^{2 i lam x0}, so r is carried as r e^{-2 i lam
    x_c}, with x_c the |r|^2-weighted mean of (1/2) d arg r / d lam over
    neighbouring nodes at most a grid spacing apart, which moves with
    the potential.  The sparse band nodes near |lam| = 1/z_min then see
    the potential's shape, not its position, and a translated potential
    gets the translated data to rounding.  An x_c beyond the sweep
    ``window``, or a frame whose interpolant overshoots the largest
    sample by more than ``OVERSHOOT`` (data that turn too fast in it for
    the sparse nodes), belongs to no potential the window holds, and the
    frame stays at 0.  The forward map's data on the grids the command
    line builds stay within 1.02 of their largest sample in the frame
    x_c; the frame falls back for band data it did not write, such as a
    hand-written reflection.csv of z-Gaussians cut below the z_min floor
    of ``suggest_z_min``, whose x_c is no potential's position and whose
    framed interpolant can reach thousands of times the largest sample.

    Beyond the band's outermost node of a side, r continues the line
    through its two outermost nodes up to 1/z_min, the band edge, and is
    rolled off from there to zero at the grid end Lambda, the first z
    node without data, by a C-infinity step: a cut with a jump there
    would ring across the whole x_H window, and a solve with one
    converges only at first order in the grid spacing.
    """
    active = zgrid.active
    lam = -1.0 / zgrid.points[active]
    values = np.asarray(r_values)[active]
    nodes, kept = [np.zeros(1)], [np.zeros(1, dtype=complex)]
    for side in (lam < 0.0, lam > 0.0):
        order = np.argsort(np.abs(lam[side]))
        reach = np.abs(lam[side][order])
        first = np.unique(np.floor((reach - reach[:1]) / grid.spacing), return_index=True)[1]
        nodes.append(lam[side][order][first])
        kept.append(values[side][order][first])
    nodes, kept = np.concatenate(nodes), np.concatenate(kept)
    order = np.argsort(nodes)
    nodes, kept = nodes[order], kept[order]
    points = grid.points
    # the frame of the potential, from the phase steps of neighbouring
    # nodes at most a grid spacing apart, weighted by |r|^2
    step = np.diff(nodes)
    turn = kept[1:] * np.conj(kept[:-1])
    near = (step <= grid.spacing) & (nodes[1:] * nodes[:-1] > 0.0)
    weight = np.abs(turn[near])
    x_c = 0.0
    if weight.sum() > 0.0:
        x_c = float(np.sum(weight * np.angle(turn[near]) / (2.0 * step[near])) / weight.sum())
    if not abs(x_c) <= window:
        x_c = 0.0
    # frame 0 is the fallback, so it is interpolated once
    for x_c in (x_c, 0.0) if x_c else (0.0,):
        framed = kept * np.exp(-2j * nodes * x_c)
        out = _lagrange_interpolant(nodes, framed)(points)
        if np.max(np.abs(out)) <= OVERSHOOT * np.max(np.abs(kept)):
            break
    kept = framed
    edge = 1.0 / max(zgrid.z_min, 1.0 / grid.half_width)
    for beyond, end in ((points < nodes[0], slice(0, 2)), (points > nodes[-1], slice(-2, None))):
        (x0, x1), (y0, y1) = nodes[end], kept[end]
        line = y0 + (y1 - y0) * ((points[beyond] - x0) / (x1 - x0))
        if edge < grid.half_width:
            line *= _roll_off((np.abs(points[beyond]) - edge) / (grid.half_width - edge))
        out[beyond] = line
    return out * np.exp(2j * points * x_c)


def delta_function(r: GridFunction):
    """delta_+- = exp(C+-[log(1 + |r|^2)] - C[log(1 + |r|^2)](0)) and Delta = 1/(delta_- delta_+).

    On the lam grid, ``r`` vanishing at lam = 0 (z = infinity), where
    delta is 1.  Built from the lattice Cauchy projections, so the
    boundary relation delta_+ = delta_- (1 + |r|^2) is a direct
    consequence of the exact Plemelj identity, and |delta_+ delta_-| = 1
    because C+ + C- is an imaginary multiplier (a Hilbert transform) on
    the real integrand, less its value at lam = 0, which is imaginary.
    """
    grid = r.grid
    g = np.log1p(np.abs(np.asarray(r.values)) ** 2).astype(complex)
    cp = _cauchy_plus_batch(g, grid)
    cp -= cp[grid.point_count // 2]
    cm = cp - g
    delta_plus = np.exp(cp)
    delta_minus = np.exp(cm)
    Delta = 1.0 / (delta_minus * delta_plus)
    return (
        GridFunction(grid, delta_plus),
        GridFunction(grid, delta_minus),
        GridFunction(grid, Delta),
    )


def _phases(x_H, grid):
    """e^{2 i theta}, theta = -x_H lam, on the lam ``grid``: a (B, N) array, a row per x_H.

    The grid is uniform, so with node k = j m + i the phase is e^{-2 i
    x_H lam_{jm}} e^{-2 i x_H i h}: each row is the outer product of a
    table over every m-th node and one over the m offsets, one complex
    product per sample and no accumulation, and matches ``np.exp(2j *
    theta)`` to the rounding of theta whatever the other rows are.  m =
    N/16 (1 below 16 points) divides every grid: the coarse table holds
    16 exponentials and the product's inner loops run m samples long.
    """
    m = max(grid.point_count // 16, 1)
    x = x_H[:, None]
    coarse = np.exp(2j * (x * -grid.points[::m]))
    fine = np.exp(2j * (x * (-grid.spacing * np.arange(m))))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(x_H), grid.point_count)


def _jump_entries(kind, r_values, grid, x_H, Delta=None):
    """u21, u12 as (B, N) arrays for a batch of B x_H values, a (B,) array.

    ``r_values`` are r on the lam ``grid``; the DeltaConjugated kind
    needs ``Delta`` from :func:`delta_function`.  The phase is theta =
    -x_H lam; the jump entries vanish at lam = 0 because r does.  Time
    enters only through r itself.  Each cell's phase row is the outer
    product of two short exponential tables along the grid (:func:`_phases`).
    """
    e2 = _phases(np.asarray(x_H, dtype=float), grid)
    if kind == TRIANGULAR:
        u21 = r_values * e2
    elif kind == DELTA_CONJUGATED:
        u21 = (r_values * Delta) * e2
    else:
        raise InvalidArgumentError(f"unknown factorization kind {kind!r}")
    # conj(r) / e2 up to an ulp, since |e2| = 1
    return u21, np.conj(u21)


@functools.lru_cache(maxsize=16)
def _odd_offsets(n: int) -> np.ndarray:
    """1/m on the nodes at odd offsets m from lam = 0 (node n/2) of an n-point grid, 0 elsewhere."""
    m = np.arange(n) - n // 2
    out = np.where(m % 2 == 1, 1.0 / np.where(m == 0, 1, m), 0.0)
    out.setflags(write=False)
    return out


def _delta_shift(r_values: np.ndarray, grid: SpectralGrid) -> complex:
    """d1 = (1/2 pi i) int log(1 + |r|^2) ds, ds = d lam / lam^2, as a sum on the lam grid.

    The 1/z coefficient of log delta, by which the DeltaConjugated kind's
    raw moment is shifted (module docstring); the sum is the odd-offset
    rule of :func:`_moment_rows`.
    """
    w = _odd_offsets(grid.point_count)
    log = np.log1p(np.abs(r_values) ** 2)
    return 2.0 * np.dot(log, w * w) / (grid.spacing * 2j * np.pi)


# --------------------------------------------------------------------------
# batched Beals-Coifman solver.  The rows of the 2x2 system decouple: row i,
# (X_i1, X_i2), solves the same equation with its own right-hand side, so a
# cell is one row at one x_H.  A solve takes the column pair (x1, x2) of a
# batch as (B, N) arrays, and each half-step of a Gauss-Seidel sweep is one
# Cauchy kernel pass over its B cells.
# --------------------------------------------------------------------------

def _in_w_plus(kind, entry: int) -> bool:
    """Whether the ``entry`` (21 or 12) jump entry sits in w_+.

    The Triangular kind puts the (2,1) entry in w_+ and the (1,2) entry
    in w_-; the DeltaConjugated kind the other way round.  Products with
    a w_+ entry are projected by C-, those with a w_- entry by C+.
    """
    return (kind == TRIANGULAR) == (entry == 21)


def _half_step(x, u, entry, kind, grid):
    """C_w on one column: the projection of x * u for every cell, less its value at lam = 0.

    ``x`` is (B, N): the column the jump entry ``u`` multiplies, i.e.
    column 2 (X_i2) for the (2,1) entry, giving column 1 of C_w(X), and
    column 1 (X_i1) for the (1,2) entry, giving column 2.  One kernel
    pass, C- for a w_+ entry and C+ for a w_- entry; C_z[f](z) =
    C[f](lam) - C[f](0), and u vanishes at lam = 0, where C+ and C- agree.
    """
    out = _cauchy_plus_batch(x, grid, minus=_in_w_plus(kind, entry), weight=u)
    out -= out[..., grid.point_count // 2, None]
    return out


@functools.lru_cache(maxsize=16)
def _ds_weights(n: int) -> np.ndarray:
    """1/m^2 at offset m from lam = 0 (node n/2) of an n-point grid, 0 there, twice per node."""
    m = np.arange(n) - n // 2
    out = np.repeat(np.where(m == 0, 0.0, 1.0 / np.where(m == 0, 1, m) ** 2), 2)
    out.setflags(write=False)
    return out


def _l2_residual(e, h):
    """L2(ds) norm, ds = d lam / lam^2 = dz, of each cell of a (B, N) residual on a lam grid.

    ``h`` is the spacing of the grid, whose node N/2 is lam = 0, where
    every residual vanishes.  The measure is the z line's, which the
    moments and M(z = 0) integrate against (``_moment_rows``,
    ``_m0_rows``), so by Cauchy-Schwarz a residual below ``NEUMANN_TOL``
    bounds their error by ``NEUMANN_TOL`` times the jump's norm, however
    fine the grid; the plain L2(d lam) norm would let the moment's
    weights 2/(m^2 h) magnify it by 1/h.  Formed on a float view,
    without a complex temporary.
    """
    v = np.ascontiguousarray(e).view(float)
    return np.sqrt(np.einsum("...i,...i,i->...", v, v, _ds_weights(v.shape[-1] // 2)) / h)


def _neumann(u21, u12, rhs1, rhs2, kind, grid,
             tol=NEUMANN_TOL, cap=NEUMANN_CAP):
    """Solve (I - C_w) X = rhs by block Gauss-Seidel sweeps, batched.

    ``rhs1`` and ``rhs2`` are the right-hand-side columns, (B, N), one row
    per cell.  Every kernel pass transforms the B cells.

    The system couples column 1 (X_i1) only to column 2 (X_i2) through
    the (2,1) entry, and column 2 only to column 1 through the (1,2)
    entry; its diagonal blocks are zero.  A sweep updates column 1 from
    column 2, then column 2 from the new column 1, one Cauchy pass each.
    On this 2-cyclic system Gauss-Seidel contracts at the square of the
    Jacobi rate (Young's theorem; Varga, Matrix Iterative Analysis,
    1962), so it needs about half the sweeps Jacobi needs iterations, at
    the same two passes apiece.

    Convergence is tested after every half-step, at no extra kernel
    pass.  Once column 2 has been updated from column 1, the column-2
    equations of the pair (x1, x2) hold exactly, so the next column-1
    update, new1 - x1, is the exact residual of that pair; once column 1
    has been updated, the next column-2 update, new2 - x2, is.  The solve
    stops at the first check at which every cell is below ``tol``, any
    cell is hopeless (non-finite, or above 1e8 (1 + its first
    residual)), or the pair has had ``cap`` column-1 updates, and
    returns the pair that check measured, so the reported residual is
    exact.  The sweep count s is the number of column-1 updates in the
    returned pair: a solve makes 2 s + 2 kernel passes when it stops on
    a column-1 check and 2 s + 1 when it stops on a column-2 check.
    ``cap`` = 0 returns x1 = rhs1 after two passes.

    Returns the solution columns (x1, x2), per-cell residuals, sweep
    count, converged mask, and per cell the sweep count of the first
    check its residual met ``tol`` at (the sweep count for cells that
    never did).
    """
    h = grid.spacing
    # a copy, so the returned columns never alias the caller's right-hand side
    x1 = np.array(rhs1, dtype=complex)
    x2 = _half_step(x1, u12, 12, kind, grid)
    x2 += rhs2
    x = [x1, x2]
    # half-step k updates column c = k % 2 (0: column 1, 1: column 2)
    # from the other one; its update is the residual of the current pair
    steps = ((u21, 21, rhs1), (u12, 12, rhs2))
    met = np.full(len(u21), -1)
    first = None
    k = 0
    # divergence is detected and reported as an unconverged cell, so the
    # intermediate overflow it produces is not an error condition here
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            c = k % 2
            u, entry, rhs = steps[c]
            new = _half_step(x[1 - c], u, entry, kind, grid)
            new += rhs
            res = _l2_residual(new - x[c], h)
            sweeps = (k + 1) // 2
            met[(met < 0) & (res < tol)] = sweeps
            if first is None:
                first = res
            hopeless = ~np.isfinite(res) | (res > 1e8 * first + 1e8)
            # one hopeless cell fails the whole batch (``_solve_batch``), so
            # sweeping on for the others would be wasted
            if sweeps == cap or hopeless.any() or np.all(res < tol):
                break
            x[c] = new
            k += 1
    met[met < 0] = sweeps
    return (x[0], x[1]), res, sweeps, res < tol, met


def _solve_batch(u21, u12, kind, grid):
    """Row 1 of mu and the slope d m^(1)_12/d x_H, with residuals, for (B, N) cells.

    The inverse map reads m^(1)_11 and the slope, which are integrals of
    row 1 only, and row 1's equations do not involve row 2; so only row
    1 is solved, with the right-hand side (1, 0), and every kernel pass
    transforms the B cells.  ``grid`` is the lam grid the jump entries
    are sampled on.  "mu" is the pair (X11, X12) of (B, N) arrays;
    "residual" is each cell's exact residual of the returned iterate.
    "iterations" is the sweep count of the batch's solve (column-1
    updates in the returned iterate), "cell_iterations" the sweep count
    of the first half-step check at which each cell met ``NEUMANN_TOL``.
    A batch in which any cell misses it in ``NEUMANN_CAP`` sweeps raises
    ``RhpUnsolvedError``, naming how many cells, the kind, the sweep
    count and the worst residual.

    The slope is 2i M11(0) M12(0) (module docstring), from the solved
    row 1, so a batch makes only its solve's kernel passes: 2 s + 1 or
    2 s + 2 for s sweeps (``_neumann``).
    """
    # read-only broadcasts: the sweeps only read the right-hand side
    ones = np.broadcast_to(np.complex128(1.0), u21.shape)
    zeros = np.broadcast_to(np.complex128(0.0), u21.shape)
    mu, res, its, ok, met = _neumann(u21, u12, ones, zeros, kind, grid, NEUMANN_TOL, NEUMANN_CAP)
    if not ok.all():
        raise RhpUnsolvedError(
            f"{np.count_nonzero(~ok)} of {ok.size} {kind} cells unsolved after "
            f"{its} sweeps (worst residual {np.max(res):.3e})"
        )
    m11, m12 = _m0_rows(*mu, u21, u12, grid)
    return {
        "mu": mu,
        "slope": 2j * (1.0 + m11) * m12,
        "residual": res,
        "iterations": its,
        "cell_iterations": met,
    }


def _moment_rows(x1, x2, u21, u12, h):
    """m^(1) = -(1/2 pi i) int X (w_+ + w_-) ds per cell, as a column pair.

    ``x1``, ``x2`` are the (B, N) columns of the cells' rows on a lam
    grid of spacing ``h``; for row i the (i,1) entry integrates X_i2 u21
    and the (i,2) entry X_i1 u12.  With ds = d lam / lam^2 the integral
    is minus the lam-derivative at lam = 0 of the Cauchy integral, which
    on the sinc grid is the sum over the nodes at odd offsets m from
    lam = 0 of 2 (X u)_m / (m^2 h) (Stenger 1993; Weideman 1995).
    """
    w2 = _odd_offsets(x1.shape[-1]) ** 2
    pref = -2.0 / (h * 2j * np.pi)
    dot = lambda x, u: np.einsum("...n,...n->...", x * w2, u)
    return pref * dot(x2, u21), pref * dot(x1, u12)


def _m0_rows(x1, x2, u21, u12, grid):
    """M(z = 0) - I = -C[X (w_+ + w_-)](lam = 0) per cell, as a column pair.

    Shapes as in :func:`_moment_rows`.  z = 0 is lam = infinity, where
    the lam-plane Cauchy integral vanishes, so M(z = 0) - I is minus its
    value at lam = 0: the kernel's own value there, (1/2 pi i) times the
    sum over the nodes at odd offsets m of 2 (X u)_m / m, which no
    kernel pass is spent on.
    """
    w = _odd_offsets(grid.point_count)
    pref = -2.0 / (2j * np.pi)
    dot = lambda x, u: np.einsum("...n,...n->...", x * w, u)
    return pref * dot(x2, u21), pref * dot(x1, u12)


def _root(x, e, hz, rho, n):
    """(x 2^e hz / rho)^(1/n) for n = 2 (sqrt) or 3 (cbrt), x >= 0.

    The radicand is (x 2^e) * hz / rho.  Where that would overflow, x is
    scaled by 2^(-n k) first, with k from the exponents of x and hz, and
    the root by 2^k, which is exact; a root beyond the float range is inf.
    """
    size = math.frexp(x)[1] + e + math.frexp(hz)[1]
    k = size // n if size > 1000 else 0
    radicand = math.ldexp(x, e - n * k) * hz / rho
    root = math.sqrt(radicand) if n == 2 else float(np.cbrt(radicand))  # math.cbrt: 3.11
    try:
        return math.ldexp(root, k)
    except OverflowError:
        return math.inf


def suggest_z_min(Z: float, N_z: int, window: float = DEFAULT_WINDOW,
                  t_max: float = 0.0) -> float:
    """Smallest |z| at which N_z points on [-Z, Z) still resolve the jump phase.

    The local wavelength in z of the evolved jump's phase, e^{2 i phi} with
    phi = x_H/z + 2 t/z^2, is 2 pi / |phi'(z)| with |phi'| <= window/z^2 +
    4 t/z^3; the floor is where that wavelength falls to
    ``POINTS_PER_PERIOD`` grid spacings h_z, the one positive root of
    z^3 = a z + b with a = window h_z / rho, b = 4 |t| h_z / rho and
    rho = 2 pi / ``POINTS_PER_PERIOD``.  It is sqrt(a) at t = 0, else
    Cardano's root, in its trigonometric form when the cubic has three
    real roots.  sqrt(a) and cbrt(b) are formed by ``_root``, so that an
    overflowing a or b does not refuse a floor below Z.  A floor above Z
    is refused.
    """
    check_number("window", window, 0.0)
    check_number("t_max", t_max)
    rho = 2.0 * math.pi / POINTS_PER_PERIOD
    hz = 2.0 * float(Z) / int(N_z)
    za, zb = _root(window, 0, hz, rho, 2), _root(abs(t_max), 2, hz, rho, 3)
    if zb == 0.0:
        z = za
    else:
        # in units of k, the larger of the a = 0 and b = 0 roots, p, q <= 1: no underflow
        k = max(za, zb)
        p, q = (za / k) ** 2, (zb / k) ** 3
        disc = (q / 2.0) ** 2 - (p / 3.0) ** 3
        if disc < 0.0:
            r = math.sqrt(p / 3.0)
            z = k * 2.0 * r * math.cos(math.acos(min(q / (2.0 * r**3), 1.0)) / 3.0)
        else:
            u = float(np.cbrt(q / 2.0 + math.sqrt(disc)))
            z = k * (u + p / (3.0 * u))
    if not z <= Z:  # a root beyond the float range is inf, refused too
        raise InvalidArgumentError(
            "the requested window cannot be phase-resolved anywhere on this grid")
    return z
