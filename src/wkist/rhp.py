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
coefficient of log delta).  ``m1_moment`` undoes this, making the two
factorization kinds report the moment of the same underlying problem.

In both kinds the (2,1)-position entry carries e^{+2 i theta} and the
(1,2)-position entry carries e^{-2 i theta}, theta = x_H/z + 2 t/z^2,
so the x_H-derivatives of the jump entries are exactly (+-2i/z) times
the entries themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, RhpUnsolvedError
from .lattice import GridFunction, SpectralGrid, _cauchy_plus_batch

__all__ = [
    "JumpFactorization",
    "RHPSolution",
    "phase",
    "delta_function",
    "build_factorization",
    "solve_mu",
    "solve_dmu",
    "m1_moment",
    "dx_m1",
    "suggest_z_min",
    "fit_tail_coefficient",
    "fit_tail_model",
    "TailModel",
    "outer_band_moments",
    "tail_band_rhs",
]

NEUMANN_TOL = 1e-10
NEUMANN_CAP = 200
DENSE_CAP = 1024

TRIANGULAR = "Triangular"
DELTA_CONJUGATED = "DeltaConjugated"


def phase(z: float, x_H: float, t: float) -> float:
    """theta(z) = x_H / z + 2 t / z^2."""
    if z == 0:
        raise InvalidArgumentError("phase is undefined at z = 0")
    return x_H / z + 2.0 * t / z**2


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


@dataclass
class JumpFactorization:
    """Jump data of one (x_H, t): its two nonzero entries and the phase.

    In both kinds exactly one of (w_+, w_-) holds the (1,2) entry and the
    other the (2,1) entry: the Triangular kind puts ``u21`` in w_+ and
    ``u12`` in w_-, the DeltaConjugated kind the other way round.  The
    solver needs only the entry pair and the kind; the (N, 2, 2) matrices
    ``w_plus``, ``w_minus`` and their x_H-derivatives ``dw_plus``,
    ``dw_minus`` are built from them on demand.  ``d1`` is the moment
    correction of the delta conjugation (0 for the Triangular kind).
    """

    kind: str
    zgrid: SpectralGrid
    x_H: float
    t: float
    theta: np.ndarray
    u21: np.ndarray       # (2,1)-position entry, carries e^{+2 i theta}
    u12: np.ndarray       # (1,2)-position entry, carries e^{-2 i theta}
    r: np.ndarray
    d1: complex = 0.0
    Delta: Optional[np.ndarray] = None
    rho: Optional[np.ndarray] = None

    def _factor(self, e21, e12, plus: bool) -> np.ndarray:
        w = np.zeros((e21.shape[-1], 2, 2), dtype=complex)
        if (self.kind == TRIANGULAR) == plus:
            w[:, 1, 0] = e21
        else:
            w[:, 0, 1] = e12
        return w

    @property
    def w_plus(self) -> np.ndarray:
        return self._factor(self.u21, self.u12, plus=True)

    @property
    def w_minus(self) -> np.ndarray:
        return self._factor(self.u21, self.u12, plus=False)

    @property
    def dw_plus(self) -> np.ndarray:
        return self._factor(*_jump_derivatives(self.u21, self.u12, self.zgrid), plus=True)

    @property
    def dw_minus(self) -> np.ndarray:
        return self._factor(*_jump_derivatives(self.u21, self.u12, self.zgrid), plus=False)


@dataclass
class RHPSolution:
    mu: np.ndarray                 # (N, 2, 2)
    residual: float
    iterations: int
    solver: str
    dmu: Optional[np.ndarray] = None
    residual_dmu: float = np.nan
    iterations_dmu: int = 0
    solver_dmu: str = ""


def _inv_z(zgrid: SpectralGrid) -> np.ndarray:
    z = zgrid.points
    return np.where(z != 0.0, 1.0 / np.where(z == 0.0, 1.0, z), 0.0)


def _jump_entries(kind, r_values, zgrid, x_H_col, t, Delta=None):
    """u21, u12, theta as (B, N) arrays for a batch of x_H values.

    The DeltaConjugated kind needs ``Delta`` from :func:`delta_function`.
    theta is reported as 0 at z = 0; the jump entries vanish there
    because r does (truncation floor), so the value is never used.
    """
    iz = _inv_z(zgrid)
    theta = x_H_col * iz + (2.0 * t) * iz**2
    e2 = np.exp(2j * theta)
    if kind == TRIANGULAR:
        u21 = r_values * e2
        u12 = np.conj(r_values) / e2
    elif kind == DELTA_CONJUGATED:
        rho = r_values * Delta
        u21 = rho * e2
        u12 = np.conj(rho) / e2
    else:
        raise InvalidArgumentError(f"unknown factorization kind {kind!r}")
    return u21, u12, theta


def _jump_derivatives(u21, u12, zgrid):
    """x_H-derivatives of the jump entries: (2i/z) u21 and (-2i/z) u12."""
    iz = _inv_z(zgrid)
    return 2j * iz * u21, -2j * iz * u12


def build_factorization(r: GridFunction, x_H: float, t: float, kind: str) -> JumpFactorization:
    """The jump entries and the phase for one (x_H, t).

    The reflection data may be given either at time zero together with
    the physical t here, or already evolved to time t with t = 0 here;
    the two produce identical jump entries because the evolution factor
    e^{4 i t / z^2} is exactly the t-part of e^{2 i theta}.
    """
    zgrid = r.grid
    rv = np.asarray(r.values, dtype=complex)
    d1 = 0.0 + 0.0j
    Delta = rho = None
    if kind == DELTA_CONJUGATED:
        Delta = delta_function(r)[2].values
        rho = rv * Delta
        d1 = np.trapezoid(np.log1p(np.abs(rv) ** 2), dx=zgrid.spacing) / (2j * np.pi)

    u21, u12, theta = _jump_entries(kind, rv, zgrid, np.array([[x_H]]), t, Delta)
    return JumpFactorization(
        kind=kind, zgrid=zgrid, x_H=float(x_H), t=float(t), theta=theta[0],
        u21=u21[0], u12=u12[0], r=rv, d1=d1, Delta=Delta, rho=rho,
    )


# --------------------------------------------------------------------------
# batched Beals-Coifman solver (rows of the 2x2 system decouple; row 1 and
# row 2 are stacked so each iteration costs two Cauchy kernel passes)
# --------------------------------------------------------------------------

def _apply_cw(mu11, mu12, mu21, mu22, u21, u12, kind, zgrid):
    """C_w(mu) entries for a (B, N) batch."""
    p1 = np.concatenate([mu12 * u21, mu22 * u21], axis=0)
    p2 = np.concatenate([mu11 * u12, mu21 * u12], axis=0)
    cp1 = _cauchy_plus_batch(p1, zgrid)
    cp2 = _cauchy_plus_batch(p2, zgrid)
    if kind == TRIANGULAR:
        c1 = cp1 - p1   # the (2,1) entry sits in w_+, handled by C-
        c2 = cp2        # the (1,2) entry sits in w_-, handled by C+
    else:
        c1 = cp1        # (2,1) in w_-: C+
        c2 = cp2 - p2   # (1,2) in w_+: C-
    b = mu11.shape[0]
    return c1[:b], c2[:b], c1[b:], c2[b:]


def _l2_residual(r11, r12, r21, r22, h):
    return np.sqrt(h * (np.abs(r11) ** 2 + np.abs(r12) ** 2
                        + np.abs(r21) ** 2 + np.abs(r22) ** 2).sum(axis=1))


def _neumann(u21, u12, rhs11, rhs12, rhs21, rhs22, kind, zgrid,
             tol=NEUMANN_TOL, cap=NEUMANN_CAP):
    """Solve (I - C_w) X = rhs by successive substitution, batched.

    Returns entries, per-row residuals, iteration count, converged mask.
    """
    h = zgrid.spacing
    x11, x12 = rhs11.copy(), rhs12.copy()
    x21, x22 = rhs21.copy(), rhs22.copy()
    iterations = 0
    # divergence is detected and handed to the dense fallback, so the
    # intermediate overflow it produces is not an error condition here
    first = None
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, cap + 1):
            c11, c12, c21, c22 = _apply_cw(x11, x12, x21, x22, u21, u12, kind, zgrid)
            n11, n12 = rhs11 + c11, rhs12 + c12
            n21, n22 = rhs21 + c21, rhs22 + c22
            res = _l2_residual(n11 - x11, n12 - x12, n21 - x21, n22 - x22, h)
            x11, x12, x21, x22 = n11, n12, n21, n22
            if first is None:
                first = res
            hopeless = ~np.isfinite(res) | (res > 1e8 * first + 1e8)
            if np.all((res < tol) | hopeless):
                break
        c11, c12, c21, c22 = _apply_cw(x11, x12, x21, x22, u21, u12, kind, zgrid)
        res = _l2_residual(x11 - rhs11 - c11, x12 - rhs12 - c12,
                           x21 - rhs21 - c21, x22 - rhs22 - c22, h)
    return (x11, x12, x21, x22), res, iterations, res < tol


def _dense_matrix(u21_row, u12_row, kind, zgrid):
    n = zgrid.point_count
    if n > DENSE_CAP:
        raise RhpUnsolvedError(
            f"dense fallback capped at N_z = {DENSE_CAP}, grid has {n}"
        )
    KP = _cauchy_plus_batch(np.eye(n, dtype=complex), zgrid).T
    KM = KP - np.eye(n, dtype=complex)
    S1, S2 = (KM, KP) if kind == TRIANGULAR else (KP, KM)
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


def _solve(u21, u12, rhs, kind, zgrid, tol=NEUMANN_TOL, cap=NEUMANN_CAP):
    """Solve (I - C_w) X = rhs for a (B, N) batch of cells.

    ``rhs`` holds the four right-hand-side entries.  Neumann iteration
    runs first; each cell on which it does not converge is solved again
    by dense collocation (grids up to N = DENSE_CAP) and its residual is
    recomputed from the dense solution, which must then meet 100 tol.
    Returns the four solution entries, the per-cell residuals, the
    Neumann iteration count and the mask of cells solved densely.
    """
    x, res, iterations, ok = _neumann(u21, u12, *rhs, kind, zgrid, tol, cap)
    dense = ~ok
    for j in np.nonzero(dense)[0]:
        r11, r12, r21, r22 = (a[j] for a in rhs)
        (x[0][j], x[1][j]), (x[2][j], x[3][j]) = _dense_solve(
            u21[j], u12[j], [(r11, r12), (r21, r22)], kind, zgrid)
        xj = [a[j:j + 1] for a in x]
        cj = _apply_cw(*xj, u21[j:j + 1], u12[j:j + 1], kind, zgrid)
        res[j] = _l2_residual(*(xa - ra[j] - ca for xa, ra, ca in zip(xj, rhs, cj)),
                              zgrid.spacing)[0]
        if res[j] > 100 * tol:
            raise RhpUnsolvedError(
                f"dense fallback residual {res[j]:.3e} still above tolerance"
            )
    return x, res, iterations, dense


def _solve_batch(u21, u12, kind, zgrid, tol=NEUMANN_TOL, cap=NEUMANN_CAP,
                 want_derivative=True, tail_rhs=None):
    """Full per-cell solve: mu, d mu/d x_H, residuals. Arrays are (B, N).

    ``tail_rhs`` (from :func:`tail_band_rhs`) carries the Cauchy
    transform of the jump beyond the grid edge; adding it to the
    right-hand side solves the full-line equation rather than the
    truncated one, which otherwise leaves an O(1/Z) bias in the moments.
    A cell is reported as "dense" when either of its solves needed the
    dense fallback.
    """
    ones = np.ones(u21.shape, dtype=complex)
    zeros = np.zeros(u21.shape, dtype=complex)
    trhs = tail_rhs or {"T12": zeros, "T21": zeros, "dT12": 0.0, "dT21": 0.0}
    mu, res_mu, it_mu, dense = _solve(
        u21, u12, (ones, trhs["T12"], trhs["T21"], ones), kind, zgrid, tol, cap)
    dmu, res_dmu, it_dmu = None, np.full(len(u21), np.nan), 0
    if want_derivative:
        g11, g12, g21, g22 = _apply_cw(*mu, *_jump_derivatives(u21, u12, zgrid), kind, zgrid)
        dmu, res_dmu, it_dmu, dense_d = _solve(
            u21, u12, (g11, g12 + trhs["dT12"], g21 + trhs["dT21"], g22), kind, zgrid, tol, cap)
        dense = dense | dense_d
    return {
        "mu": mu,
        "dmu": dmu,
        "residual": res_mu,
        "residual_dmu": res_dmu,
        "iterations": it_mu,
        "iterations_dmu": it_dmu,
        "solver": np.where(dense, "dense", "neumann"),
    }


def _pack_mu(m11, m12, m21, m22):
    """The four (N,) entries as one (N, 2, 2) solution."""
    return np.stack([m11, m12, m21, m22], axis=-1).reshape(-1, 2, 2)


def _unpack_mu(mu):
    """The four entries of an (N, 2, 2) solution as (1, N) batch rows."""
    return tuple(mu[None, :, i, j] for i in (0, 1) for j in (0, 1))


def solve_mu(f: JumpFactorization, tol: float = NEUMANN_TOL,
             max_iterations: int = NEUMANN_CAP) -> RHPSolution:
    """Solve mu = I + C+(mu w_-) + C-(mu w_+) for one factorization.

    Neumann iteration from mu = I, with a dense collocation fallback
    (grids up to N = 1024) when the iteration does not contract.
    """
    out = _solve_batch(f.u21[None, :], f.u12[None, :], f.kind, f.zgrid,
                       tol, max_iterations, want_derivative=False)
    return RHPSolution(
        mu=_pack_mu(*(a[0] for a in out["mu"])),
        residual=float(out["residual"][0]),
        iterations=out["iterations"],
        solver=str(out["solver"][0]),
    )


def solve_dmu(f: JumpFactorization, sol: RHPSolution, tol: float = NEUMANN_TOL,
              max_iterations: int = NEUMANN_CAP) -> RHPSolution:
    """Solve (I - C_w) dmu = C_{dw}(mu); fills the derivative part of sol."""
    u21, u12 = f.u21[None, :], f.u12[None, :]
    g = _apply_cw(*_unpack_mu(sol.mu), *_jump_derivatives(u21, u12, f.zgrid),
                  f.kind, f.zgrid)
    dmu, res, its, dense = _solve(u21, u12, g, f.kind, f.zgrid, tol, max_iterations)
    sol.dmu = _pack_mu(*(a[0] for a in dmu))
    sol.residual_dmu = float(res[0])
    sol.iterations_dmu = its
    sol.solver_dmu = "dense" if dense[0] else "neumann"
    return sol


def _moment_rows(m11, m12, m21, m22, u21, u12, h):
    """-(1/2 pi i) int mu (w_+ + w_-) ds entries for (B, N) batches."""
    pref = -1.0 / (2j * np.pi)
    e11 = pref * np.trapezoid(m12 * u21, dx=h, axis=-1)
    e12 = pref * np.trapezoid(m11 * u12, dx=h, axis=-1)
    e21 = pref * np.trapezoid(m22 * u21, dx=h, axis=-1)
    e22 = pref * np.trapezoid(m21 * u12, dx=h, axis=-1)
    return e11, e12, e21, e22


def m1_moment(f: JumpFactorization, sol: RHPSolution) -> np.ndarray:
    """First moment m^(1) of the RHP solution, in the original normalization.

    For the DeltaConjugated kind the raw moment belongs to the
    delta-conjugated problem; the diagonal shift d1 * sigma3 is removed
    so both kinds report the same matrix.
    """
    e = _moment_rows(*_unpack_mu(sol.mu), f.u21[None, :], f.u12[None, :], f.zgrid.spacing)
    m1 = np.array(e, dtype=complex).reshape(2, 2)
    if f.kind == DELTA_CONJUGATED:
        m1[0, 0] -= f.d1
        m1[1, 1] += f.d1
    return m1


def dx_m1(f: JumpFactorization, sol: RHPSolution) -> np.ndarray:
    """x_H-derivative of the first moment.

    Uses the analytic derivative of the jump entries, (+-2i/z) times the
    entries; the delta correction is x_H-independent so no adjustment is
    needed here.
    """
    if sol.dmu is None:
        raise InvalidArgumentError("solve_dmu must run before dx_m1")
    u21, u12 = f.u21[None, :], f.u12[None, :]
    h = f.zgrid.spacing
    a = _moment_rows(*_unpack_mu(sol.dmu), u21, u12, h)
    b = _moment_rows(*_unpack_mu(sol.mu), *_jump_derivatives(u21, u12, f.zgrid), h)
    return (np.array(a) + np.array(b)).reshape(2, 2)


def suggest_z_min(zgrid_or_Z, N_z=None, window: float = 6.0, t_max: float = 0.0,
                  points_per_period: float = 5.0) -> float:
    """Smallest |z| at which the grid still resolves the jump phase.

    The local wavelength of e^{2 i theta} in z is 2 pi / |theta'(z)| with
    |theta'| <= window/z^2 + 4 t/z^3; the floor is where that wavelength
    falls to ``points_per_period`` grid spacings.
    """
    if N_z is None:
        Z, n = zgrid_or_Z.half_width, zgrid_or_Z.point_count
    else:
        Z, n = float(zgrid_or_Z), int(N_z)
    hz = 2.0 * Z / n
    target = 2.0 * np.pi / points_per_period

    def excess(zz):
        return (window / zz**2 + 4.0 * abs(t_max) / zz**3) * hz - target

    lo, hi = 1e-9, Z
    if excess(hi) > 0:
        raise InvalidArgumentError(
            "the requested window cannot be phase-resolved anywhere on this grid"
        )
    if excess(lo) < 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def fit_tail_coefficient(sd) -> complex:
    """Estimate c1 in r(z) ~ c1/z from the outermost active samples."""
    z = sd.zgrid.points[sd.active]
    r = sd.r[sd.active]
    order = np.argsort(z)
    z, r = z[order], r[order]
    k = min(4, len(z) // 2)
    return complex(0.5 * (np.mean(z[:k] * r[:k]) + np.mean(z[-k:] * r[-k:])))


@dataclass(frozen=True)
class TailModel:
    """Per-side asymptotic model z r(z) ~ sum_k coeff[k] (Z/z)^k.

    ``pos`` covers z > 0 (hence the band s > Z), ``neg`` covers z < 0.
    The leading coefficients are the two one-sided estimates of c1.
    """

    Z: float
    pos: np.ndarray
    neg: np.ndarray

    @property
    def c1(self) -> complex:
        return complex(0.5 * (self.pos[0] + self.neg[0]))

    def series(self, lam: np.ndarray) -> np.ndarray:
        """The fitted z r(z) at z = -1/lam; lam < 0 is the z > 0 side."""
        pv = np.polynomial.polynomial.polyval
        v = -self.Z * lam
        return np.where(lam < 0, pv(v, self.pos), pv(v, self.neg))


def fit_tail_model(sd, terms: int = 4, band: float = 0.5) -> TailModel:
    """Least-squares fit of the large-z behaviour of r, one fit per sign.

    ``z r(z)`` is regressed on powers of v = Z/z over the outer part of
    the active band (|z| >= band * Z).  Extrapolating the fit beyond the
    grid edge models not just the leading c1/z decay but the next few
    corrections, which otherwise leave a completion error that no grid
    refinement at fixed Z can remove.  The variable v stays O(1) on the
    fit band, so the Vandermonde system is well conditioned.
    """
    Z = sd.zgrid.half_width
    z = sd.zgrid.points[sd.active]
    r = sd.r[sd.active]

    def one_side(mask):
        zs, rs = z[mask], r[mask]
        n = min(terms, max(1, zs.size))
        v = Z / zs
        basis = np.vander(v, n, increasing=True)
        coeff, *_ = np.linalg.lstsq(basis, zs * rs, rcond=None)
        return np.concatenate([coeff, np.zeros(terms - n, dtype=complex)])

    return TailModel(
        Z=float(Z),
        pos=one_side((z > 0) & (np.abs(z) >= band * Z)),
        neg=one_side((z < 0) & (np.abs(z) >= band * Z)),
    )


def _panel_nodes(length: float, per_panel: int = 16,
                 levels=(0.9, 0.99, 0.999, 0.9999, 0.99999)):
    """Gauss-Legendre nodes/weights on [0, length], refined toward length.

    Panels shrink geometrically toward the far endpoint so that an
    integrand with a pole just beyond it (at distance >= a grid spacing)
    always sees the pole several panel-lengths away from the panel
    nearest to it; plain Gauss-Legendre then converges geometrically on
    every panel and no singularity subtraction is needed.
    """
    fr = np.concatenate([[0.0], np.asarray(levels), [1.0]]) * length
    xg, wg = np.polynomial.legendre.leggauss(per_panel)
    lam = np.concatenate([0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
                          for lo, hi in zip(fr[:-1], fr[1:])])
    w = np.concatenate([0.5 * (hi - lo) * wg
                        for lo, hi in zip(fr[:-1], fr[1:])])
    return lam, w


def tail_band_rhs(tail: TailModel, zgrid: SpectralGrid, x_H, t: float) -> dict:
    """Cauchy transform of the outer-band jump, evaluated on the band.

    The discrete solve restricts the jump equation to |s| <= Z, so the
    computed mu is the solution of a problem whose jump has simply been
    cut off at the grid edge; the moments it feeds inherit an O(1/Z)
    bias that no refinement at fixed Z removes.  The missing piece of
    the equation is explicit: for z on the band,

        T(z) = (1/2 pi i) integral_{|s|>Z} w(s) / (s - z) ds,

    with w carrying the one off-diagonal entry per triangular factor
    and r(s) replaced by its fitted tail model (mu ~ I out there; the
    first correction is another order 1/Z down).  The kernel is the
    plain Cauchy one because the tail piece is analytic across the
    band, so the C+ / C- distinction disappears.  Adding T to the
    right-hand side of the discrete equation makes the solve consistent
    with the full-line jump through O(1/Z).

    Substituting lam = -1/s maps the two tails to lam in (-1/Z, 1/Z)
    and cancels the 1/s of the tail model exactly:

        T12(z) = (1/2 pi i) int conj(P)(-Z lam) e^{-2 i theta} / (1 + z lam) dlam,
        T21(z) = (1/2 pi i) int      P (-Z lam) e^{+2 i theta} / (1 + z lam) dlam,

    theta = -x_H lam + 2 t lam^2, with the positive-z coefficients used
    for lam < 0 and vice versa.  The integrand's pole at lam = -1/z
    sits beyond the endpoint nearest the same-sign grid edge, at a
    distance that shrinks to h/Z^2 for the outermost grid points, so
    the quadrature uses panels geometrically refined toward both
    endpoints.  Returns T12, T21 and their x_H-derivatives as (B, N_z)
    arrays; the derivative rows feed the d mu / d x_H right-hand side.
    """
    Z = float(zgrid.half_width)
    lam_half, w_half = _panel_nodes(1.0 / Z)
    # lam < 0 is the s > Z side (positive-z tail coefficients)
    lam = np.concatenate([-lam_half, lam_half])
    w = np.concatenate([w_half, w_half])
    P = tail.series(lam)

    x_H = np.atleast_1d(np.asarray(x_H, dtype=float))
    th = -np.outer(x_H, lam) + 2.0 * t * lam**2
    g12 = np.conj(P) * np.exp(-2j * th)
    g21 = P * np.exp(2j * th)

    z = zgrid.points.copy()
    # the grid spans [-Z, Z): the single point at -Z sits on the junction,
    # where T is log-singular; represent its cell by the half-cell midpoint
    edge = np.abs(z) >= Z
    z[edge] = np.sign(z[edge]) * (Z - 0.5 * zgrid.spacing)
    K = w / (1.0 + np.outer(lam, z).T)      # (N_z, nodes), real
    pref = 1.0 / (2j * np.pi)
    return {
        "T12": pref * (g12 @ K.T),
        "T21": pref * (g21 @ K.T),
        "dT12": pref * ((g12 * (2j * lam)) @ K.T),
        "dT21": pref * ((g21 * (-2j * lam)) @ K.T),
    }


def outer_band_moments(tail, Z: float, x_H, t: float, nodes: int = 96,
                       m11=None, dm11=None) -> dict:
    """Analytic completion of the moment integrals over |z| > Z.

    The grid truncates the jump contour at +-Z, but r only decays like
    c1/z there, leaving an O(1/Z) floor in the moments that does not
    shrink under grid refinement.  On the outer band both factorizations
    carry the same entries (Delta -> 1), so the missing contribution is
    an explicit oscillatory integral; substituting lam = -1/s maps it
    to lam in (-1/Z, 1/Z), where it is evaluated by Gauss-Legendre
    quadrature with r(s) replaced by its tail model.

    ``tail`` is a ``TailModel`` carrying the per-side fit, or a plain
    complex c1 (r ~ c1/s), which is read as the one-term model.

    ``m11``/``dm11`` (per-x_H arrays) are the 1/s coefficients of
    mu_11 - 1 and of its x_H-derivative, i.e. the raw first moments of
    the problem actually solved.  With them the completion keeps the
    first mu-coupled term of the (1,2) integrand, mu_11 u_12 ~
    (1 + m11/s) u_12, whose derivative part does not vanish by parity
    and otherwise leaves a potential-cubic O(dm11 c1 / Z) bias in the
    recovered slope.  Returns increments for m1_12, m1_21 and their
    x_H-derivatives (diagonal moments are quadratic in r out there and
    need none; the (2,1) entries are returned at mu ~ I).
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    lam = xg / Z            # lam = -1/s over the outer band
    w = wg / Z
    if not isinstance(tail, TailModel):
        c1 = np.array([complex(tail)])
        tail = TailModel(Z=float(Z), pos=c1, neg=c1)
    rvals = (-lam) * tail.series(lam)
    x_H = np.atleast_1d(np.asarray(x_H, dtype=float))
    th = -np.outer(x_H, lam) + 2.0 * t * lam**2
    pref = -1.0 / (2j * np.pi)
    f12 = np.conj(rvals) * np.exp(-2j * th)
    f21 = rvals * np.exp(2j * th)
    quad = lambda g: pref * (g / lam**2 * w).sum(axis=1)
    # mu11 ~ 1 + m11/s = 1 - m11 lam on the outer band
    mu_c = 0.0 if m11 is None else np.asarray(m11, dtype=complex).reshape(-1, 1)
    dmu_c = 0.0 if dm11 is None else np.asarray(dm11, dtype=complex).reshape(-1, 1)
    return {
        "m1_12": quad(f12 * (1.0 - mu_c * lam)),
        "m1_21": quad(f21),
        # d/dx_H [mu11 u12]: dmu11 u12 + mu11 (2 i lam) u12
        "dx_m1_12": quad(f12 * (-dmu_c * lam) + f12 * (1.0 - mu_c * lam) * (2j * lam)),
        "dx_m1_21": quad(f21 * (-2j * lam)),
    }
