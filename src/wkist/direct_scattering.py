"""The reflection coefficient r = b/a, from the first Jost column marched on row pairs.

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

and r(z) = b(-1/z)/a(-1/z) on the spectral grid of the inverse problem.
The grid's active band crowds its lam = -1/z near 0, spaced down to
h_z / Z^2, while r is smooth in lam: it oscillates no faster than
e^{2 i lam x}, |x| <= L.  So the Wronskians are taken once, on a
uniform lam lattice of spacing ``LAM_STEP_FACTOR`` / L (16 nodes per
period of e^{2 i lam L}) that is symmetric about, and avoids, lam = 0
and covers the band's largest |lam|, and a and b are carried onto the
band together by the ten-point Lagrange stencil ``_lagrange_interpolant``.
The diagnostic ``spectral_lattice_error_estimate`` is its ``_halving_miss``
of r over the lattice.

One loop, `_march`, steps psi for a whole batch of lam.  For real lam
each cell propagator is in SU(2), [[a, -conj b], [b, conj a]], bit for
bit, and so is psi: the loop steps only its first column (alpha, beta),
two contiguous rows over lam.  The propagator is kept as the row pairs
D = (E00, E11) and O = (E01, E10), so a (sub)step is three calls into
preallocated buffers: D col + O col[::-1].  The cell propagator's
diagonal and sin(h u)/u depend on the cell only through (h, w =
sqrt(1 + |q|^2)) and are reused while consecutive (sub)steps repeat
them; the two off-diagonal entries, proportional to q, take one product
each per step, and h, w, q and conj q of every step are laid out before
the first.  det psi is |alpha|^2 + |beta|^2 at every cell end: the
march writes the cell-end columns into a block of ``BLOCK_SAMPLES``
samples and checks the whole block at once.  The full matrix is built
once, at x = 0, with its second column (-conj beta, conj alpha).
A substepped cell applies its substeps in path order on both marches.
The loop is bitwise equal to an interleaved loop with a fresh
exponential and a full 2x2 product per step in the same arithmetic
(`tests/test_direct_scattering.py` keeps it as an oracle).
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
from .lattice import SpectralGrid, _halving_miss, _lagrange_interpolant
from .lax import Potential, akns_potentials

__all__ = [
    "ScatteringData",
    "reflection_coefficient",
    "evolve_reflection",
    "check_a_asymptotics",
]

# Per-step commutator-error surrogate lam^2 |q| h^3 is kept below this
# by substepping; at desk resolutions one step per cell suffices.
LOCAL_ERROR_BOUND = 1e-5
STEP_CAP_FACTOR = 64  # max total substeps per lam, in units of the cell count
# The lam lattice's spacing, in units of 1/L: pi/16 is 16 nodes per period
# of e^{2 i lam x} at the grid edge |x| = L.
LAM_STEP_FACTOR = np.pi / 16
# The march keeps its cell-end columns in blocks of at most this many
# (cell, lam) samples, 32 bytes each, and checks det psi once per block.
BLOCK_SAMPLES = 8192
# Smallest min |a| the forward map accepts, unless a run sets its own floor
DEFAULT_A_FLOOR = 0.5


@dataclass
class ScatteringData:
    zgrid: SpectralGrid
    r: np.ndarray            # reflection coefficient on the full z grid (0 outside the active band)
    lam: np.ndarray          # -1/z over the active band
    a: np.ndarray            # a(lam) over the active band, interpolated from the lam lattice
    b: np.ndarray            # b(lam) over the active band, interpolated from the lam lattice
    time: float = 0.0
    # the Wronskian defects and min |a| are the lam lattice's, the
    # truncation edges the band's
    diagnostics: dict = field(default_factory=dict)

    @property
    def active(self) -> np.ndarray:
        """Bool mask of grid z with z_min <= |z| (and z != 0): ``zgrid.active``."""
        return self.zgrid.active


class _CellPropagator:
    """The cell propagator of one batch of lam, reused from step to step.

    ``E`` is (2, 2, len(lam)) by row pairs: ``D`` = E[0] holds the
    diagonal (E00, E11) and ``O`` = E[1] the off-diagonal (E01, E10), so
    that a step takes (alpha, beta) to D (alpha, beta) + O (beta, alpha);
    the four rows are also kept as views.  ``hw`` is the (h, w) it was
    last built for.  ``lam_sc`` and ``neg_lam_sc`` are lam*sc and
    -lam*sc, sc = sin(h u)/u, as complex rows, so that each step forms an
    off-diagonal entry with one product.  The rebuild writes its
    temporaries into the preallocated rows ``hu``, ``c``, ``sc`` and
    ``ilam_sc``; i*lam is formed once, and ``lam_abs_min`` tells whether
    sinc needs its zero guard.
    """

    def __init__(self, lam):
        L = lam.size
        self.lam, self.ilam = lam, 1j * lam
        self.lam_abs_min = np.min(np.abs(lam))
        self.E = np.empty((2, 2, L), dtype=complex)
        self.D, self.O = self.E
        (self.E00, self.E11), (self.E01, self.E10) = self.E
        self.hw = None
        self.hu, self.c, self.sc = np.empty(L), np.empty(L), np.empty(L)
        self.ilam_sc, self.lam_sc, self.neg_lam_sc = np.empty((3, L), dtype=complex)


def _cell_exponential(h, w, q, q_conj, cell: _CellPropagator):
    """exp(h * (i lam sigma3 - lam M(q))) for the batch of ``cell``, into cell.E.

    ``w`` is sqrt(1 + |q|^2) and ``q_conj`` is conj(q).  The diagonal
    entries and sin(h u)/u, u = lam w, depend on the cell only through
    (h, w), and are rebuilt only when (h, w) changes: c = cos(h u),
    sc = h sinc(h u / pi), c +- i lam sc, and the rows lam sc and
    -lam sc.  When no h u / pi of the batch is 0, sinc's own operations,
    sin(pi x) / (pi x), are spelled out without its zero guard, which
    changes no bit.  Every call writes the off-diagonal entries
    E01 = q (-lam sc) and E10 = conj(q) (lam sc), one product each.
    """
    if cell.hw != (h, w):
        hu, c, sc = cell.hu, cell.c, cell.sc
        np.multiply(cell.lam, w, out=hu)
        np.multiply(h, hu, out=hu)
        np.cos(hu, out=c)
        np.divide(hu, np.pi, out=hu)
        # the smallest |h u / pi| of the batch, by the same monotone operations
        if h * (cell.lam_abs_min * w) / np.pi != 0.0:
            np.multiply(np.pi, hu, out=hu)
            np.sin(hu, out=sc)
            np.divide(sc, hu, out=sc)
        else:
            np.copyto(sc, np.sinc(hu))
        np.multiply(h, sc, out=sc)  # sin(h u)/u, exact at u = 0
        np.multiply(cell.ilam, sc, out=cell.ilam_sc)
        np.add(c, cell.ilam_sc, out=cell.E00)
        np.subtract(c, cell.ilam_sc, out=cell.E11)
        np.multiply(cell.lam, sc, out=cell.lam_sc)
        np.negative(cell.lam_sc, out=cell.neg_lam_sc)
        cell.hw = (h, w)
    np.multiply(q, cell.neg_lam_sc, out=cell.E01)
    np.multiply(q_conj, cell.lam_sc, out=cell.E10)
    return cell.E


def _midpoint_values(p: Potential, k0, k1):
    """Potential values at the midpoints of cells k0..k1-1."""
    x = p.grid.points
    if p.profile is not None:
        return np.asarray(p.profile(x[k0:k1] + 0.5 * p.grid.spacing), dtype=complex)
    return 0.5 * (p.q[k0:k1] + p.q[k0 + 1:k1 + 1])


def _sub_values(p: Potential, k, m):
    """m sub-cell midpoint values inside cell k (profile or linear interp), increasing x."""
    x0 = p.grid.points[k]
    hs = p.grid.spacing / m
    xs = x0 + hs * (np.arange(m) + 0.5)
    if p.profile is not None:
        return np.asarray(p.profile(xs), dtype=complex)
    frac = (xs - x0) / p.grid.spacing
    return p.q[k] * (1 - frac) + p.q[k + 1] * frac


def _step_scalars(q):
    """w = sqrt(1 + |q|^2), q and conj(q) as lists of scalars, per value of q.

    |q|^2 is taken as a Python float's ** 2, which is C pow like a numpy
    scalar's: an array's ** 2 is np.square, and the two can differ in the
    last bit.
    """
    w = np.sqrt(1.0 + np.array([a ** 2 for a in np.abs(q).tolist()]))
    return w.tolist(), list(q), list(np.conj(q))


def _det_defect(cols, scratch) -> float:
    """max |det psi - 1| over a block of first columns of SU(2) psi.

    ``cols`` is (n, 2, L) complex, (alpha, beta) per column; det psi is
    (alpha_r^2 + beta_r^2) + (alpha_i^2 + beta_i^2), in plain products
    and sums.  ``scratch`` holds float arrays of shapes (B, 2, 2L),
    (B, 2L) and (B, L), B >= n.  |det - 1| peaks at the largest or the
    smallest det.
    """
    parts = cols.view(float)  # (n, 2, 2L): real and imaginary parts interleaved
    squares, sums, det = (a[:len(parts)] for a in scratch)
    np.multiply(parts, parts, out=squares)
    np.add(squares[:, 0], squares[:, 1], out=sums)
    np.add(sums[:, 0::2], sums[:, 1::2], out=det)
    return float(max(det.max() - 1.0, 1.0 - det.min()))


def _fill_second_column(psi):
    """Write column 2 of SU(2) psi, (2, 2, ...), as (-conj psi21, conj psi11).

    0 - x rather than -x gives the +0.0 a full product gives where a
    part is zero.
    """
    np.subtract(0.0, psi[1, 0].real, out=psi[0, 1].real)
    np.copyto(psi[0, 1].imag, psi[1, 0].imag)
    np.copyto(psi[1, 1].real, psi[0, 0].real)
    np.subtract(0.0, psi[0, 0].imag, out=psi[1, 1].imag)
    return psi


def _march(p: Potential, lams, side, stop):
    """Step the first Jost column cell by cell from the `side` infinity to grid index `stop`.

    A generator of (block, det defect) in march order, a block of
    columns being (n, 2, len(lams)): first the start column alone, then
    the columns at the ends of the next cells, up to ``BLOCK_SAMPLES`` //
    len(lams) cells per block.  The det defect is the block's largest
    |det psi - 1|, taken over the whole block with one set of calls.  A
    column (alpha, beta) is the first column of psi = [[alpha, -conj
    beta], [beta, conj alpha]]: psi and every cell propagator are in
    SU(2) for real lam, so the column determines psi.  A block is a view
    of one buffer, valid only until the generator resumes, so a consumer
    copies what it keeps.

    The (sub)step schedule -- h, w, q, conj(q) and whether the step ends
    a cell -- is laid out before the first step.  A substepped cell
    applies its substeps in path order, so the leftward march takes them
    by decreasing x, and its inner substeps go through a spare column.
    `_cell_exponential` rebuilds the cell propagator in one buffer per
    (sub)step and redoes its trigonometry only when (h, w) changes; w
    repeats across the plateaus of piecewise-constant potentials and
    wherever 1 + |q|^2 rounds to 1.  Each (sub)step is then three calls
    on row pairs: D col, O col[::-1] and their sum.  The batch must be
    nonempty and finite, and the substep total of the traversed cells is
    checked, in floating point, before the first step.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if lams.size == 0 or not np.all(np.isfinite(lams)):
        raise InvalidArgumentError("lam must be a nonempty batch of finite values")
    grid = p.grid
    N = grid.point_count
    h = grid.spacing
    if side == "-":
        start, cells, step, first = 0, range(0, stop), h, 0
    elif side == "+":
        start, cells, step, first = N - 1, range(N - 2, stop - 1, -1), -h, stop
    else:
        raise InvalidArgumentError(f"side must be '+' or '-', got {side!r}")

    qm_all = _midpoint_values(p, 0, N - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.max(np.abs(lams)) ** 2 * np.abs(qm_all) * h**3
        msub = np.maximum(1.0, np.ceil(np.sqrt(err / LOCAL_ERROR_BOUND)))
    msub = msub[first:first + len(cells)]
    total = float(msub.sum())
    if not total <= STEP_CAP_FACTOR * N:  # also refuses inf and NaN
        raise ResolutionExceededError(
            f"propagation needs {total:.3g} substeps (> {STEP_CAP_FACTOR * N}); "
            "lam is too large for this grid"
        )

    # the (sub)step schedule, in march order
    order = slice(None) if side == "-" else slice(None, None, -1)
    msub = msub.astype(int)[order]
    q = np.repeat(qm_all[first:first + len(cells)][order], msub)
    ends = np.cumsum(msub)
    split = msub > 1
    for k, m, end in zip(np.asarray(cells)[split], msub[split], ends[split]):
        q[end - m:end] = _sub_values(p, k, m)[order]
    ends_cell = np.zeros(q.size, dtype=bool)
    ends_cell[ends - 1] = True
    schedule = zip(np.repeat(step / msub, msub).tolist(), *_step_scalars(q),
                   ends_cell.tolist())

    L = lams.size
    B = max(1, min(len(cells), BLOCK_SAMPLES // L))
    block = np.zeros((B + 1, 2, L), dtype=complex)
    block[0, 0] = np.exp(1j * lams * grid.points[start])
    scratch = np.empty((B, 2, 2 * L)), np.empty((B, 2 * L)), np.empty((B, L))
    yield block[:1], _det_defect(block[:1], scratch)
    cols = list(block)
    flips = [col[::-1] for col in cols]
    cell = _CellPropagator(lams)
    D, O = cell.D, cell.O
    spare, t1, t2 = np.empty((3, 2, L), dtype=complex)
    j, col, flip = 0, cols[0], flips[0]
    for hk, w, qk, qk_conj, last in schedule:
        _cell_exponential(hk, w, qk, qk_conj, cell)
        np.multiply(D, col, out=t1)
        np.multiply(O, flip, out=t2)
        if last:
            j += 1
            col, flip = cols[j], flips[j]
        else:
            col, flip = spare, spare[::-1]
        np.add(t1, t2, out=col)
        if j == B:
            yield block[1:], _det_defect(block[1:], scratch)
            block[0] = block[B]
            j, col, flip = 0, cols[0], flips[0]
    if j:
        yield block[1:j + 1], _det_defect(block[1:j + 1], scratch)


def _propagate_to_mid(p: Potential, lams, side):
    """Propagate psi from the `side` infinity to x = 0 for a batch of lam.

    Returns (psi at x = 0 with shape (2, 2, len(lams)), max det defect).
    The det defect is taken over every cell end, one block of the march
    at a time; the full SU(2) matrix is built once, at x = 0.
    """
    blocks = _march(p, lams, side, p.grid.point_count // 2)  # x = 0 (N even)
    cols, _ = next(blocks)  # the start column
    det_defect = 0.0
    for cols, defect in blocks:
        det_defect = max(det_defect, defect)
    psi = np.empty((2, 2, cols.shape[-1]), dtype=complex)
    psi[:, 0] = cols[-1]
    return _fill_second_column(psi), det_defect


def _wronskians(p: Potential, lams):
    """a, b, c, d for a batch of lam, and the det defect of both halves."""
    psim, ddm = _propagate_to_mid(p, lams, "-")
    psip, ddp = _propagate_to_mid(p, lams, "+")
    a = psip[0, 0] * psim[1, 1] - psim[0, 1] * psip[1, 0]
    b = psim[0, 0] * psip[1, 0] - psip[0, 0] * psim[1, 0]
    c = psim[0, 0] * psip[1, 1] - psip[0, 1] * psim[1, 0]
    d = psip[0, 1] * psim[1, 1] - psim[0, 1] * psip[1, 1]
    return a, b, c, d, max(ddm, ddp)


def _lam_lattice(p: Potential, lam: np.ndarray) -> np.ndarray:
    """The lam the Jost pair is marched at, for the band's ``lam``.

    The nodes are +-(j + 1/2) dlam, j = 0..J, dlam = ``LAM_STEP_FACTOR`` /
    L, with (J + 1/2) dlam >= max |lam|: symmetric, free of lam = 0, and
    covering the band, off which the interpolant is zero.
    """
    step = LAM_STEP_FACTOR / p.grid.half_width
    reach = np.max(np.abs(lam))
    count = int(np.ceil(reach / step - 0.5)) + 1
    if (count - 0.5) * step < reach:  # rounding
        count += 1
    half = (np.arange(count) + 0.5) * step
    return np.concatenate([-half[::-1], half])


def reflection_coefficient(p: Potential, zgrid: SpectralGrid,
                           a_floor: float = DEFAULT_A_FLOOR) -> ScatteringData:
    """r(z) = b(-1/z)/a(-1/z) on the active band z_min <= |z| of the grid.

    a, b, c, d are the Wronskians on the lam lattice (``_lam_lattice``);
    a and b are interpolated onto the band's lam through one basis, and
    r = b/a there.  The unitarity, det and symmetry defects and min |a|
    are read on the lattice, where the Wronskians are exact to the scheme;
    ``outer_truncation`` and ``inner_truncation``, the largest |r| at
    the band's outer and inner edges, on the band.

    Rejects with possible-bound-state when min |a| < ``a_floor``: the
    small-data theory keeps a bounded away from zero, so a deep dip
    signals discrete spectrum the radiation-only inverse problem cannot
    represent.
    """
    check_threshold("a_floor", a_floor)
    z = zgrid.points
    active = zgrid.active
    lam = -1.0 / z[active]

    nodes = _lam_lattice(p, lam)
    a, b, c, d, det_defect = _wronskians(p, nodes)

    min_abs_a = float(np.min(np.abs(a)))
    if min_abs_a < a_floor:
        raise PossibleBoundStateError(
            f"min |a| = {min_abs_a:.3g} is below the floor {a_floor}; "
            "the potential likely carries bound states",
            min_abs_a=min_abs_a,
        )
    diagnostics = {
        "unitarity_defect": float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))),
        "min_abs_a": min_abs_a,
        "det_defect": det_defect,
        "symmetry_defect": float(np.max(np.abs(d + np.conj(b)) + np.abs(c - np.conj(a)))),
        "spectral_lattice_error_estimate": _halving_miss(nodes, b / a),
    }
    a, b = _lagrange_interpolant(nodes, np.stack([a, b], axis=1))(lam).T

    r = np.zeros(len(z), dtype=complex)
    r[active] = b / a

    absz = np.abs(z[active])
    outer = absz >= absz.max() - zgrid.spacing / 2
    inner = absz <= absz.min() + zgrid.spacing / 2
    diagnostics["outer_truncation"] = float(np.max(np.abs(r[active][outer])))
    diagnostics["inner_truncation"] = float(np.max(np.abs(r[active][inner])))
    return ScatteringData(zgrid, r, lam, a, b, 0.0, diagnostics)


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
