"""Jost solutions, the transition matrix, and the reflection coefficient.

The spectral problem psi_x = A(x) psi with A = i*lam*sigma3 - lam*M(q)
is integrated by a second-order midpoint Magnus scheme: over one cell
the coefficient is frozen at its midpoint value and the cell propagator
is the closed-form exponential

    A^2 = -lam^2 <q>^2 I  =>  exp(hA) = cos(h u) I + sin(h u)/u * A,

with u = lam <q>.  Each factor is exactly unimodular and respects the
conjugation symmetry J conj(A) J^-1 = A (J = [[0,-1],[1,0]]), which is
why det psi = 1 and the transition-matrix symmetry d = -conj(b),
c = conj(a) hold to roundoff for real lam at any resolution; the O(h^2)
midpoint error only moves (a, b) along the unit sphere |a|^2 + |b|^2 = 1.

Scattering coefficients are Wronskians evaluated at x = 0 (both Jost
solutions are propagated only halfway, which also halves the cost):

    a = det((psi+)_1, (psi-)_2)      b = det((psi-)_1, (psi+)_1)
    c = det((psi-)_1, (psi+)_2)      d = det((psi+)_2, (psi-)_2)

and r(z) = b(-1/z)/a(-1/z) on the spectral grid of the inverse problem,
so no interpolation across the z <-> lam map is ever needed.

One loop, `_march`, steps psi for a whole batch of lam.  psi is kept
component-major, shape (2, 2, len(lam)), so every entry is a contiguous
row and each cell product writes into preallocated buffers.  The cell
propagator's diagonal and sin(h u)/u depend on the cell only through
(h, w = sqrt(1 + |q|^2)) and are reused while consecutive (sub)steps
repeat them; only the two off-diagonal entries, proportional to q, are
formed per cell.  For real lam each cell propagator is in SU(2),
[[a, -conj b], [b, conj a]], bit for bit, and so is psi: the loop steps
only its first column and writes the second as (-conj psi21, conj psi11),
half the products of a full 2x2 step.  The rework is bit-identical: each
element equals what a fresh exponential and a full 2x2 product give, so
a, b, c, d and det_defect do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidArgumentError,
    PossibleBoundStateError,
    ResolutionExceededError,
    check_threshold,
)
from .lattice import SpectralGrid
from .lax import Potential, akns_potentials

__all__ = [
    "JostSolution",
    "ScatteringData",
    "propagate_jost",
    "transition_matrix",
    "symmetry_defect",
    "reflection_coefficient",
    "evolve_reflection",
    "check_a_asymptotics",
    "b_from_integral",
]

# Per-step commutator-error surrogate lam^2 |q| h^3 is kept below this
# by substepping; at desk resolutions one step per cell suffices.
LOCAL_ERROR_BOUND = 1e-5
STEP_CAP_FACTOR = 64  # max total substeps per lam, in units of the cell count


@dataclass
class JostSolution:
    lam: float
    side: str  # "+" or "-": which infinity carries the e^{i lam sigma3 x} normalization
    grid: object
    psi: np.ndarray  # (N, 2, 2) samples over the spatial grid
    det_defect: float


@dataclass
class ScatteringData:
    zgrid: SpectralGrid
    r: np.ndarray            # reflection coefficient on the full z grid (0 outside the active band)
    active: np.ndarray       # bool mask of grid z with z_min <= |z| (and z != 0)
    lam: np.ndarray          # -1/z over the active band
    a: np.ndarray            # a(lam) over the active band
    b: np.ndarray            # b(lam) over the active band
    time: float = 0.0
    diagnostics: dict = field(default_factory=dict)


class _CellPropagator:
    """The cell propagator of one batch of lam, reused from step to step.

    ``E`` is component-major, (2, 2, len(lam)).  ``hw`` and ``sc`` are the
    (h, w) it was last built for and its sin(h u)/u.  -lam and i*lam are
    formed once, as the expressions below would form them on every call.
    """

    def __init__(self, lam):
        self.lam, self.neg_lam, self.ilam = lam, -lam, 1j * lam
        self.E = np.empty((2, 2, lam.size), dtype=complex)
        self.hw = self.sc = None


def _cell_exponential(h, qm, cell: _CellPropagator):
    """exp(h * (i lam sigma3 - lam M(qm))) for the batch of ``cell``, into cell.E.

    The diagonal entries and sin(h u)/u, u = lam w, depend on the cell
    only through (h, w = sqrt(1 + |qm|^2)).  When (h, w) repeats the last
    call they are kept, and only the two off-diagonal entries, which are
    proportional to qm, are written.  Every entry is computed by the same
    floating-point operations as in a freshly built exponential, so the
    reuse changes no bit of the result.
    """
    E = cell.E
    w = np.sqrt(1.0 + np.abs(qm) ** 2)
    if cell.hw != (h, w):
        hu = h * (cell.lam * w)
        c = np.cos(hu)
        cell.sc = h * np.sinc(hu / np.pi)  # sin(h u)/u, exact at u = 0
        ilam_sc = cell.ilam * cell.sc
        np.add(c, ilam_sc, out=E[0, 0])
        np.subtract(c, ilam_sc, out=E[1, 1])
        cell.hw = (h, w)
    np.multiply(cell.neg_lam * qm, cell.sc, out=E[0, 1])
    np.multiply(cell.lam * np.conj(qm), cell.sc, out=E[1, 0])
    return E


def _midpoint_values(p: Potential, k0, k1):
    """Potential values at the midpoints of cells k0..k1-1."""
    x = p.grid.points
    if p.profile is not None:
        return np.asarray(p.profile(x[k0:k1] + 0.5 * p.grid.spacing), dtype=complex)
    return 0.5 * (p.q[k0:k1] + p.q[k0 + 1:k1 + 1])


def _sub_values(p: Potential, k, m):
    """m sub-cell midpoint values inside cell k (profile or linear interp)."""
    x0 = p.grid.points[k]
    hs = p.grid.spacing / m
    xs = x0 + hs * (np.arange(m) + 0.5)
    if p.profile is not None:
        return np.asarray(p.profile(xs), dtype=complex)
    frac = (xs - x0) / p.grid.spacing
    return p.q[k] * (1 - frac) + p.q[k + 1] * frac


def _det_defect(psi) -> float:
    """max |det psi - 1| over psi of shape (2, 2, ...)."""
    det = psi[0, 0] * psi[1, 1]
    det -= psi[0, 1] * psi[1, 0]
    det -= 1.0
    return float(np.abs(det).max())


def _march(p: Potential, lams, side, stop, bound):
    """Step psi cell by cell from the `side` infinity to grid index `stop`.

    A generator: yields (grid index, psi) at the start point and after
    each cell.  psi is component-major, (2, 2, len(lams)), so each entry
    is a contiguous row over lam.  It is one of two buffers the loop
    alternates between and stays valid only until the generator resumes,
    so a consumer copies what it keeps.  `_cell_exponential` rebuilds the
    cell propagator in one buffer per (sub)step and redoes its
    trigonometry only when (h, w) changes; w repeats across the plateaus
    of piecewise-constant potentials and wherever 1 + |q|^2 rounds to 1.
    psi and every cell propagator have the SU(2) form
    [[alpha, -conj beta], [beta, conj alpha]] for real lam, so each
    (sub)step multiplies only the first column (alpha, beta), and the
    second column is written from it once per cell.  Its negated parts
    are formed as 0 - x, which gives +0.0 where a full product's sum of
    zeros does.  The results are bit-identical to a fresh exponential and
    a full 2x2 product per step.  The substep budget of the traversed
    cells is checked before the first step.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    grid = p.grid
    N = grid.point_count
    h = grid.spacing
    if side == "-":
        start, cells, step = 0, range(0, stop), h
    elif side == "+":
        start, cells, step = N - 1, range(N - 2, stop - 1, -1), -h
    else:
        raise InvalidArgumentError(f"side must be '+' or '-', got {side!r}")

    qm_all = _midpoint_values(p, 0, N - 1)
    lam_max = float(np.max(np.abs(lams))) if lams.size else 0.0
    err = lam_max**2 * np.abs(qm_all) * h**3
    msub = np.maximum(1, np.ceil(np.sqrt(err / bound)).astype(int))
    total = int(msub[list(cells)].sum()) if N > 1 else 0
    if total > STEP_CAP_FACTOR * N:
        raise ResolutionExceededError(
            f"propagation needs {total} substeps (> {STEP_CAP_FACTOR * N}); "
            "lam is too large for this grid"
        )

    psi = np.zeros((2, 2, lams.size), dtype=complex)
    psi[0, 0] = np.exp(1j * lams * grid.points[start])
    psi[1, 1] = np.exp(-1j * lams * grid.points[start])
    yield start, psi
    cell = _CellPropagator(lams)
    nxt, term = np.empty_like(psi), np.empty_like(psi[:, 0])
    for k in cells:
        m = msub[k]
        hs, qs = (step, (qm_all[k],)) if m == 1 else (step / m, _sub_values(p, k, m))
        for q in qs:
            E = _cell_exponential(hs, q, cell)
            # column 1 only: nxt[i, 0] = E[i, 0] psi[0, 0] + E[i, 1] psi[1, 0]
            np.multiply(E[:, 0], psi[0, 0], out=nxt[:, 0])
            np.multiply(E[:, 1], psi[1, 0], out=term)
            np.add(nxt[:, 0], term, out=nxt[:, 0])
            psi, nxt = nxt, psi
        # column 2 is (-conj psi21, conj psi11); 0 - x rather than -x
        # gives the +0.0 a full product gives where a part is zero
        np.subtract(0.0, psi[1, 0].real, out=psi[0, 1].real)
        np.copyto(psi[0, 1].imag, psi[1, 0].imag)
        np.copyto(psi[1, 1].real, psi[0, 0].real)
        np.subtract(0.0, psi[0, 0].imag, out=psi[1, 1].imag)
        yield (k + 1 if side == "-" else k), psi


def _propagate_to_mid(p: Potential, lams, side, bound=LOCAL_ERROR_BOUND):
    """Propagate psi from the `side` infinity to x = 0 for a batch of lam.

    Returns (psi at x = 0 with shape (2, 2, len(lams)), max det defect).
    """
    steps = _march(p, lams, side, p.grid.point_count // 2, bound)  # x = 0 (N even)
    _, psi = next(steps)
    det_defect = 0.0
    for _, psi in steps:
        det_defect = max(det_defect, _det_defect(psi))
    return psi, det_defect


def propagate_jost(p: Potential, lam: float, side: str,
                   bound: float = LOCAL_ERROR_BOUND) -> JostSolution:
    """Jost solution normalized at the `side` infinity, sampled on the grid.

    The same cell propagation as the scattering coefficients, continued
    through x = 0 to the far end so the samples cover the whole grid.
    det psi = 1 holds to roundoff at every point because each cell
    propagator is exactly unimodular; ``det_defect`` is the largest
    deviation over the grid.
    """
    N = p.grid.point_count
    psi_samples = np.empty((N, 2, 2), dtype=complex)
    for k, psi in _march(p, [float(lam)], side, 0 if side == "+" else N - 1, bound):
        psi_samples[k] = psi[..., 0]
    det_defect = _det_defect(np.moveaxis(psi_samples, 0, -1))
    return JostSolution(float(lam), side, p.grid, psi_samples, det_defect)


def _wronskians(p: Potential, lams, bound=LOCAL_ERROR_BOUND):
    """a, b, c, d for a batch of lam, and the det defect of both halves."""
    psim, ddm = _propagate_to_mid(p, lams, "-", bound)
    psip, ddp = _propagate_to_mid(p, lams, "+", bound)
    a = psip[0, 0] * psim[1, 1] - psim[0, 1] * psip[1, 0]
    b = psim[0, 0] * psip[1, 0] - psip[0, 0] * psim[1, 0]
    c = psim[0, 0] * psip[1, 1] - psip[0, 1] * psim[1, 0]
    d = psip[0, 1] * psim[1, 1] - psim[0, 1] * psip[1, 1]
    return a, b, c, d, max(ddm, ddp)


def transition_matrix(p: Potential, lam: float) -> np.ndarray:
    """Transition matrix T = [[a, d], [b, c]] with psi_+ = psi_- T."""
    a, b, c, d, _ = _wronskians(p, [lam])
    return np.array([[a[0], d[0]], [b[0], c[0]]], dtype=complex)


def symmetry_defect(T: np.ndarray) -> float:
    """|d + conj(b)| + |c - conj(a)|; zero for the exact real-lam symmetry."""
    return float(abs(T[0, 1] + np.conj(T[1, 0])) + abs(T[1, 1] - np.conj(T[0, 0])))


def reflection_coefficient(p: Potential, zgrid: SpectralGrid, a_floor: float = 0.5,
                           bound: float = LOCAL_ERROR_BOUND) -> ScatteringData:
    """r(z) = b(-1/z)/a(-1/z) on the active band z_min <= |z| of the grid.

    Rejects with possible-bound-state when min |a| < ``a_floor``: the
    small-data theory keeps a bounded away from zero, so a deep dip
    signals discrete spectrum the radiation-only inverse problem cannot
    represent.
    """
    check_threshold("a_floor", a_floor)
    z = zgrid.points
    active = (np.abs(z) >= max(zgrid.z_min, 1e-300)) & (z != 0.0)
    lam = -1.0 / z[active]

    a, b, c, d, det_defect = _wronskians(p, lam, bound)

    min_abs_a = float(np.min(np.abs(a)))
    if min_abs_a < a_floor:
        raise PossibleBoundStateError(
            f"min |a| = {min_abs_a:.3g} is below the floor {a_floor}; "
            "the potential likely carries bound states",
            min_abs_a=min_abs_a,
        )

    r = np.zeros(len(z), dtype=complex)
    r[active] = b / a

    absz = np.abs(z[active])
    outer = absz >= absz.max() - zgrid.spacing / 2
    inner = absz <= absz.min() + zgrid.spacing / 2
    diagnostics = {
        "unitarity_defect": float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))),
        "min_abs_a": min_abs_a,
        "det_defect": det_defect,
        "symmetry_defect": float(np.max(np.abs(d + np.conj(b)) + np.abs(c - np.conj(a)))),
        "outer_truncation": float(np.max(np.abs(r[active][outer]))),
        "inner_truncation": float(np.max(np.abs(r[active][inner]))),
    }
    return ScatteringData(zgrid, r, active, lam, a, b, 0.0, diagnostics)


def evolve_reflection(sd: ScatteringData, t: float) -> ScatteringData:
    """r(z, t) = r(z) e^{4 i t / z^2}; |r| is unchanged, zeros stay zero."""
    if not np.isfinite(t):
        raise InvalidArgumentError("t must be finite")
    z = sd.zgrid.points
    phase = np.ones(len(z), dtype=complex)
    nz = z != 0.0
    phase[nz] = np.exp(4j * t / z[nz] ** 2)
    return replace(
        sd,
        r=sd.r * phase,
        b=sd.b * np.exp(4j * t * sd.lam**2),
        time=sd.time + t,
        diagnostics=dict(sd.diagnostics),
    )


def check_a_asymptotics(p: Potential, lam_list) -> dict:
    """Defect |a(lam) e^{i lam int H} - e^{-int B}| per requested lam.

    The defect decreases as |lam| grows (until the resolution floor),
    reflecting the large-lam limit of a in its analytic domain.
    """
    fields = akns_potentials(p)
    h = p.grid.spacing
    int_H = float(np.trapezoid(fields.H, dx=h))
    int_B = complex(np.trapezoid(fields.B, dx=h))
    lams = np.atleast_1d(np.asarray(lam_list, dtype=float))

    a = _wronskians(p, lams)[0]
    defects = np.abs(a * np.exp(1j * lams * int_H) - np.exp(-int_B))
    return {
        "lams": lams,
        "defects": defects,
        "int_H": int_H,
        "int_B": int_B,
    }


def b_from_integral(p: Potential, lam: float) -> complex:
    """b via its integral representation, as a cross-check of the Wronskians.

    Writing the left Jost column as (e^{i lam x} m11, ...), its second
    component obeys v(x) = int_{-inf}^x e^{-i lam (x-y)} lam conj(q) u dy,
    and matching the x -> +inf behavior against psi_+ = psi_- T gives

        b = -lam * int e^{2 i lam y} conj(q(y)) m11(y) dy.
    """
    sol = propagate_jost(p, lam, "-")
    x = p.grid.points
    m11 = sol.psi[:, 0, 0] * np.exp(-1j * lam * x)
    integrand = np.exp(2j * lam * x) * np.conj(p.q) * m11
    return complex(-lam * np.trapezoid(integrand, dx=p.grid.spacing))
