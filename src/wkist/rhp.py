"""Jump factorizations and the Beals-Coifman singular integral solve.

For jump data v = (I - w_-)^{-1} (I + w_+) on the real z line, the
sectionally analytic solution of the normalized RHP is parameterized by
mu solving

    mu = I + C+(mu w_-) + C-(mu w_+),

after which the large-z moment m^(1) = lim z (m(z) - I) is an integral
of mu against the jump data.  Two factorizations of the same jump are
used, switched on the sign of x_H so that the off-diagonal phases decay
in the half-plane where each Cauchy projection lives:

* Triangular (x_H <= 0): w_+ has only the (2,1) entry r e^{2 i theta},
  w_- only the (1,2) entry conj(r) e^{-2 i theta}.
* DeltaConjugated (x_H > 0): the jump is first conjugated by the
  scalar function delta(z) = exp(C[log(1 + |r|^2)]), after which
  w_+ has only (1,2) = conj(rho) e^{-2 i theta} and w_- only
  (2,1) = rho e^{2 i theta}, with rho = r / (delta_- delta_+).

The delta conjugation rescales the RHP solution columns, so the raw
moment of the conjugated problem differs from the original one by the
diagonal d1 * sigma3, d1 = (1/2 pi i) int log(1 + |r|^2) ds (the 1/z
coefficient of log delta).  The inverse transform removes d1 from
m^(1)_11 of its DeltaConjugated cells, so the two factorization kinds
report the moment of the same underlying problem.

In both kinds the (2,1)-position entry carries e^{+2 i theta} and the
(1,2)-position entry carries e^{-2 i theta}, theta = x_H/z; the time
factor e^{4 i t/z^2} is carried by r itself (``evolve_reflection``).

The equation (I - C_w) X = rhs is solved a batch of cells at a time by
block Gauss-Seidel sweeps that measure their exact residual after every
half-step at no extra cost and stop at the first iterate that meets tol
(``_neumann``: 2 s + 1 or 2 s + 2 Cauchy kernel passes for s column-1
updates, each pass C+ or C- directly).  They are the only solver: for
small data the operator is a contraction (Beals & Coifman, CPAM 37,
1984; Zhou, SIAM J. Math. Anal. 20, 1989), and a batch in which any
cell fails to converge raises ``RhpUnsolvedError``.  The dense
collocation solve (``_dense_solve``) is kept as the reference the tests
compare the sweeps against; nothing in the package calls it.  A cell is
one row of X: the two rows solve the same operator with their own
right-hand sides, so both rows of a jump are two cells of one batch.
The inverse transform (``_solve_batch``) solves row 1 alone, since
m^(1)_11 and the slope are integrals of row 1; row 2 is its Schwarz
reflection.

The grid cuts the contour at |z| = Z, where r still decays only like
c1/z.  ``_solve_batch`` adds the jump's outer band to its right-hand
side, taken from the lattice's closed-form tail completion
(``_tail_outside``, the one tail mechanism of the package), so the
inverse solves the full-line equation, the one RHP equation of the
package.

The x_H-derivative of the moment needs no second solve.  The jump
depends on x_H only through e^{i (x_H/z) sigma3} and is the identity
for |z| < z_min, so M(z) is analytic at z = 0 and M(z) e^{-i (x_H/z)
sigma3} has an x_H-independent jump; by Liouville (the Lax pair of the
RHP, Beals & Coifman, CPAM 37, 1984)

    d m^(1)/d x_H = -i (M(0) sigma3 M(0)^{-1} - sigma3),

whose (1,2) entry is the slope 2i M11(0) M12(0).  M(0) - I =
(1/2 pi i) int mu (w_+ + w_-) ds/s is a sum over every node but z = 0
(``_m0_rows``); the DeltaConjugated kind solves for M(z) delta(z)^{sigma3},
which leaves both the product and the derivative unchanged, and costs no
kernel pass beyond the solve's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, RhpUnsolvedError, check_number
from .lattice import GridFunction, SpectralGrid, _cauchy_plus_batch, _tail_outside

__all__ = ["delta_function", "suggest_z_min"]

NEUMANN_TOL = 1e-10
NEUMANN_CAP = 200
DENSE_CAP = 1024
POINTS_PER_PERIOD = 5.0
# half-width of the x_H window the inverse sweeps, unless a run sets one
DEFAULT_WINDOW = 6.0

TRIANGULAR = "Triangular"
DELTA_CONJUGATED = "DeltaConjugated"


def delta_function(r: GridFunction):
    """delta_+- = exp(C+-[log(1 + |r|^2)]) and Delta = 1/(delta_- delta_+).

    Built from the lattice Cauchy projections, so the boundary relation
    delta_+ = delta_- (1 + |r|^2) is a direct consequence of the exact
    Plemelj identity, and |delta_+ delta_-| = 1 because C+ + C- is an
    imaginary multiplier (a Hilbert transform) on the real integrand.
    """
    grid = r.grid
    g = np.log1p(np.abs(np.asarray(r.values)) ** 2).astype(complex)
    cp = _cauchy_plus_batch(g, grid)
    cm = cp - g
    delta_plus = np.exp(cp)
    delta_minus = np.exp(cm)
    Delta = 1.0 / (delta_minus * delta_plus)
    return (
        GridFunction(grid, delta_plus),
        GridFunction(grid, delta_minus),
        GridFunction(grid, Delta),
    )


def _inv_z(zgrid: SpectralGrid) -> np.ndarray:
    z = zgrid.points
    return np.where(z != 0.0, 1.0 / np.where(z == 0.0, 1.0, z), 0.0)


def _phases(x_H, iz):
    """e^{2 i theta}, theta = x_H / z, as a (B, N) array, rows in the order of ``x_H``.

    ``iz`` is 1/z, 0 at z = 0.  When the x_H are equally spaced to a few
    ulps, as the lattice cells of the inverse are, only the first row
    takes ``np.exp``: each later row is the previous one times
    e^{2 i dx / z}, one complex product per sample instead of a cosine
    and a sine.  The rows then match ``np.exp(2j * theta)`` to the
    rounding of theta.
    """
    b = len(x_H)
    step = (x_H[-1] - x_H[0]) / max(b - 1, 1)
    spread = np.max(np.abs(x_H - (x_H[0] + step * np.arange(b))))
    if b == 1 or spread > 4 * np.finfo(float).eps * np.max(np.abs(x_H)):
        return np.exp(2j * (x_H[:, None] * iz))
    e2 = np.empty((b, iz.size), dtype=complex)
    e2[0] = np.exp(2j * (x_H[0] * iz))
    factor = np.exp((2j * step) * iz)
    for k in range(1, b):
        np.multiply(e2[k - 1], factor, out=e2[k])
    return e2


def _jump_entries(kind, r_values, zgrid, x_H, Delta=None):
    """u21, u12 as (B, N) arrays for a batch of B x_H values, a (B,) array.

    The DeltaConjugated kind needs ``Delta`` from :func:`delta_function`.
    The phase is theta = x_H / z, taken as 0 at z = 0; the jump entries
    vanish there because r does (truncation floor).  Time enters only
    through r itself (``evolve_reflection``).  The phases of an equally
    spaced batch are built by recurrence (:func:`_phases`).
    """
    e2 = _phases(np.asarray(x_H, dtype=float), _inv_z(zgrid))
    if kind == TRIANGULAR:
        u21 = r_values * e2
    elif kind == DELTA_CONJUGATED:
        u21 = (r_values * Delta) * e2
    else:
        raise InvalidArgumentError(f"unknown factorization kind {kind!r}")
    # conj(r) / e2 up to an ulp, since |e2| = 1
    return u21, np.conj(u21)


def _delta_shift(r_values: np.ndarray, zgrid: SpectralGrid) -> complex:
    """d1 = (1/2 pi i) int log(1 + |r|^2) ds by the trapezoid rule.

    The 1/z coefficient of log delta, by which the DeltaConjugated kind's
    raw moment is shifted (module docstring).
    """
    return np.trapezoid(np.log1p(np.abs(r_values) ** 2), dx=zgrid.spacing) / (2j * np.pi)


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


def _half_step(x, u, entry, kind, zgrid):
    """C_w on one column: the projection of x * u for every cell.

    ``x`` is (B, N): the column the jump entry ``u`` multiplies, i.e.
    column 2 (X_i2) for the (2,1) entry, giving column 1 of C_w(X), and
    column 1 (X_i1) for the (1,2) entry, giving column 2.  One kernel
    pass, C- for a w_+ entry and C+ for a w_- entry.
    """
    return _cauchy_plus_batch(x, zgrid, minus=_in_w_plus(kind, entry), weight=u)


def _l2_residual(e, h):
    """Discrete L2 norm of each cell of a (B, N) residual, without temporaries (a float view)."""
    v = np.ascontiguousarray(e).view(float)
    return np.sqrt(h * np.einsum("...i,...i->...", v, v))


def _neumann(u21, u12, rhs1, rhs2, kind, zgrid,
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
    h = zgrid.spacing
    # a copy, so the returned columns never alias the caller's right-hand side
    x1 = np.array(rhs1, dtype=complex)
    x2 = _half_step(x1, u12, 12, kind, zgrid)
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
            new = _half_step(x[1 - c], u, entry, kind, zgrid)
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


def _dense_matrix(u21_row, u12_row, kind, zgrid):
    n = zgrid.point_count
    if n > DENSE_CAP:
        raise RhpUnsolvedError(
            f"dense reference solve capped at N_z = {DENSE_CAP}, grid has {n}"
        )
    KP = _cauchy_plus_batch(np.eye(n, dtype=complex), zgrid).T
    KM = KP - np.eye(n, dtype=complex)
    S1 = KM if _in_w_plus(kind, 21) else KP
    S2 = KM if _in_w_plus(kind, 12) else KP
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = np.eye(n)
    A[n:, n:] = np.eye(n)
    A[:n, n:] = -S1 * u21_row[None, :]
    A[n:, :n] = -S2 * u12_row[None, :]
    return A


def _dense_solve(u21_row, u12_row, rhs_pairs, kind, zgrid):
    """Direct collocation solve of (I - C_w) X = rhs for one cell.

    ``rhs_pairs`` is a list of (rhs_col1, rhs_col2) row right-hand
    sides; both matrix rows share the same 2N x 2N operator.
    """
    n = zgrid.point_count
    A = _dense_matrix(u21_row, u12_row, kind, zgrid)
    B = np.stack([np.concatenate([r1, r2]) for r1, r2 in rhs_pairs], axis=1)
    X = np.linalg.solve(A, B)
    return [(X[:n, j], X[n:, j]) for j in range(X.shape[1])]


def _solve_batch(u21, u12, kind, zgrid):
    """Row 1 of mu and the slope d m^(1)_12/d x_H, with residuals, for (B, N) cells.

    The inverse map reads m^(1)_11 and the slope, which are integrals of
    row 1 only, and row 1's equations do not involve row 2; so only row
    1 is solved, and every kernel pass transforms the B cells.  "mu" is
    the pair (X11, X12) of (B, N) arrays; "residual" is each cell's exact
    residual of the returned iterate.  "iterations" is the sweep count of
    the batch's solve (column-1 updates in the returned iterate),
    "cell_iterations" the sweep count of the first half-step check at
    which each cell met ``NEUMANN_TOL``.  A batch in which any cell misses
    it in ``NEUMANN_CAP`` sweeps raises ``RhpUnsolvedError``, naming how
    many cells, the kind, the sweep count and the worst residual.

    The grid cuts the jump off at |z| = Z, where r still decays only like
    c1/z.  The band term ``_tail_outside(u12)``, the Cauchy transform of
    the fitted tail of u12 beyond the window, is added to the right-hand
    side, so the solve is of the full-line equation: out there mu ~ I
    and Delta -> 1, and inside the window the outer part of C+ and C- is
    the same, so one term serves both kinds.  Only column 2 takes it:
    column 1's outer term, C(X12 u21), is quadratic in r, since X12 is.

    The slope is 2i M11(0) M12(0) (module docstring), from the solved
    row 1 and, in M12(0), the band term's value at z = 0, which is the
    outer band's part of the integral.  So a batch makes only its
    solve's kernel passes: 2 s + 1 or 2 s + 2 for s sweeps (``_neumann``).
    """
    band = _tail_outside(u12, zgrid)
    # a read-only broadcast: the sweeps only read the right-hand side
    ones = np.broadcast_to(np.complex128(1.0), u21.shape)
    mu, res, its, ok, met = _neumann(u21, u12, ones, band, kind, zgrid, NEUMANN_TOL, NEUMANN_CAP)
    if not ok.all():
        raise RhpUnsolvedError(
            f"{np.count_nonzero(~ok)} of {ok.size} {kind} cells unsolved after "
            f"{its} sweeps (worst residual {np.max(res):.3e})"
        )
    m11, m12 = _m0_rows(*mu, u21, u12, zgrid)
    m12 += band[:, zgrid.point_count // 2]
    return {
        "mu": mu,
        "slope": 2j * (1.0 + m11) * m12,
        "residual": res,
        "iterations": its,
        "cell_iterations": met,
    }


def _trapezoid_dot(x, u):
    """Trapezoid sum of x u over the trailing axis (unit spacing), without forming x u."""
    s = np.einsum("...n,...n->...", x, u)
    s -= 0.5 * (x[..., 0] * u[..., 0] + x[..., -1] * u[..., -1])
    return s


def _moment_rows(x1, x2, u21, u12, h):
    """-(1/2 pi i) int X (w_+ + w_-) ds per cell, as a column pair.

    ``x1``, ``x2`` are the (B, N) columns of the cells' rows; for row i
    the (i,1) entry integrates X_i2 u21 and the (i,2) entry X_i1 u12.
    """
    pref = -h / (2j * np.pi)
    return pref * _trapezoid_dot(x2, u21), pref * _trapezoid_dot(x1, u12)


def _m0_rows(x1, x2, u21, u12, zgrid):
    """M(0) - I = (1/2 pi i) int X (w_+ + w_-) ds/s per cell, as a column pair.

    Shapes as in :func:`_moment_rows`.  The grid [-Z, Z) holds one end
    node, and the integrand, ~ conj(c1)/s^2 out there, takes nearly the
    same value at +-Z; so the trapezoid rule on [-Z, Z] weights every
    node fully, the -Z node standing in for both ends, and the band term
    covers |s| > Z.  (Half weights at both ends, right for the odd 1/s
    integrand of :func:`_moment_rows`, would drop the cell [Z - h, Z].)
    The node z = 0, where the jump vanishes, drops out; it is not read
    off a kernel pass, whose value there sees only the nodes at odd
    offsets.
    """
    iz = _inv_z(zgrid)
    pref = zgrid.spacing / (2j * np.pi)
    dot = lambda x, u: np.einsum("...n,...n->...", x * iz, u)
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
