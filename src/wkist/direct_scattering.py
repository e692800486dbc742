"""The reflection coefficient r = b/a, from the first Jost column marched on row pairs.

The spectral problem psi_x = A(x) psi with A = lam [[i, -q], [conj q, -i]]
is integrated by the fourth-order Magnus scheme with two Gauss points
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009): over a step of
length H about x_m, with A1, A2 at x_m -+ (sqrt 3 / 6) H in path order,

    Omega = (H/2)(A1 + A2) + (sqrt 3 / 12) H^2 [A2, A1],
    exp(Omega) = cos(phi) I + sin(phi)/phi * Omega,  phi^2 = -det Omega.

Omega stays in su(2) for real lam, so each factor is exactly unimodular
and respects the conjugation symmetry J conj(A) J^-1 = A (J = [[0,-1],
[1,0]]), which is why det psi = 1 and the transition-matrix symmetry
d = -conj(b), c = conj(a) hold to roundoff for real lam at any
resolution; the O(H^4) error only moves (a, b) along the unit sphere
|a|^2 + |b|^2 = 1.  A step with q1 = q2 is the midpoint exponential.

The step schedule (``_layout``) lets one step span up to ``STEP_CELLS``
grid cells where the profile is smooth.  One dimensionless rule sets
both the span and the substeps at large lam: a step's phase lam_max H
sqrt(1 + |q|^2) stays at or below ``PHASE_BOUND``, with lam_max the
batch's largest |lam|.  A dilation q(x) -> q(x / c) with the grid keeps
lam_max h and |q|, so it keeps the schedule.  The steps are laid out
once over the whole grid, each run of merged cells cut from the end
that borders a cell alone, so they move with the profile under a
translation by whole cells.  A cell that holds a jump of the profile
is a step of its own, cut at the jump into two pieces the profile is
smooth on, so a piecewise-constant profile is marched exactly wherever
its jumps sit.  Samples without a profile are marched one cell a step,
at the Gauss points of their linear interpolant.

Scattering coefficients are Wronskians evaluated where the two marches
meet, the step end nearest x = 0 (both Jost solutions are propagated
only halfway, which also halves the cost):

    a = det((psi+)_1, (psi-)_2)      b = det((psi-)_1, (psi+)_1)
    c = det((psi-)_1, (psi+)_2)      d = det((psi+)_2, (psi-)_2)

The schedule is laid out once for both halves.  Where q has decayed,
the Jost column is the free one, e^{i lam x} (1, 0), so each half-march
starts where the potential first couples (``_first_step``): it skips
the leading steps whose bound on the pull off the free rotation sums to
at most ``DROP_SHARE`` of the whole half's, and starts with the free
column at the last grid node among them.  The rule reads q only through
ratios of couplings, so a tiny potential keeps its relative accuracy; a
sech, which still couples 1e-9 of its height at |x| = 20, starts at the
grid ends, and a half where q is zero at the meeting node.  For real q
each step at -lam is the conjugate of the step at lam, bit for bit, so
psi(-lam) = sigma3 conj psi(lam) sigma3: on a batch symmetric about lam
= 0, such as the lattice below, only lam > 0 is marched (``_mirror``).

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
each step propagator is in SU(2), [[a, -conj b], [b, conj a]], bit for
bit, and so is psi: the loop steps only its first column (alpha, beta),
two contiguous rows over lam.  The propagator is kept as the row pairs
D = (E00, E11) and O = (E01, E10), so a (sub)step is three calls into
preallocated buffers: D col + O col[::-1].  The scalars of every step
are laid out before the first (``_step_scalars``).  cos(phi) and
sin(phi)/phi depend on a step only through (H, c2, c3, c4, kappa), and
commutator terms below half an ulp are dropped from that key, so
plateaus and tails reuse the trigonometry; the off-diagonal pair is
one (2, 2) x (2, L) product per step.  det psi is |alpha|^2 + |beta|^2
at every step end: the march writes the step-end columns into a block
of ``BLOCK_SAMPLES`` samples and checks the whole block at once.  The
full matrix is built once, where the marches meet, with its second
column (-conj beta, conj alpha).  A substepped cell applies its
substeps in path order on both marches.  The loop is bitwise equal to an
interleaved loop with its own schedule, a fresh exponential and a full
2x2 product per step in the same arithmetic
(`tests/test_direct_scattering.py` keeps it as an oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericalError,
    PossibleBoundStateError,
    ResolutionExceededError,
    check_number,
)
from .lattice import SpectralGrid, _halving_miss, _lagrange_interpolant
from .lax import Potential

__all__ = [
    "ScatteringData",
    "reflection_coefficient",
    "evolve_reflection",
]

# A step's phase phi = lam_max |H| sqrt(1 + |q|^2) is kept at or below
# this: it sets how many cells a step spans and how many substeps a cell
# takes.  lam_max |H| and |q| are both dimensionless and unchanged by a
# dilation q(x) -> q(x / c) that scales the grid with it.
PHASE_BOUND = 0.3
STEP_CELLS = 4  # most cells one step spans: the grid sets how finely q is resolved
STEP_CAP_FACTOR = 64  # max total substeps per lam, in units of the cell count
# A cell holds a jump when its midpoint value misses the mean of its end
# values by more than this share of max |q|: h^2 |q''| / 8 on a smooth profile.
JUMP_TOLERANCE = 1e-2
JUMP_SECTIONS = 64  # a jump is bracketed 64 times closer on each pass
GAUSS_OFFSET = np.sqrt(3.0) / 6.0  # the Gauss points are x_m -+ GAUSS_OFFSET * H
# A commutator term below this share of the term it adds to is dropped
# from the trigonometry: an eighth of the float64 epsilon keeps the sum's
# rounded value, which is a quarter of an ulp at a power of two, with room
# for the rounding of the term itself, so dropping it changes no bit.  A
# half-march skips the tail steps whose coupling sums to at most this
# share of the whole half's (``_first_step``).
DROP_SHARE = np.finfo(float).eps / 8
# The lam lattice's spacing, in units of 1/L: pi/16 is 16 nodes per period
# of e^{2 i lam x} at the grid edge |x| = L.
LAM_STEP_FACTOR = np.pi / 16
# The march keeps its step-end columns in blocks of at most this many
# (step, lam) samples, 32 bytes each, and checks det psi once per block.
BLOCK_SAMPLES = 8192
# Smallest min |a| the forward map accepts, unless a run sets its own floor
DEFAULT_A_FLOOR = 0.5
# Most nodes the lam lattice may have: each is marched across the whole grid
LAM_LATTICE_CAP = 2**16
# Below this |lam|, phi = |lam| sqrt(c2 + ...) may underflow to 0 and make
# sin(phi)/phi 0/0; there phi^2/6 is far below an ulp, so S is 1 to the
# last bit, as the division gives wherever phi stays nonzero.
TINY_LAM = 1e-100


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
    """The step propagator of one batch of lam, reused from step to step.

    ``E`` is (2, 2, len(lam)) by row pairs: ``D`` = E[0] holds the
    diagonal (E00, E11) and ``O`` = E[1] the off-diagonal (E01, E10), so
    that a step takes (alpha, beta) to D (alpha, beta) + O (beta, alpha).
    ``key`` is the (H, c2, c3, c4, kappa) the trigonometry was last built
    for.  ``R`` holds the rows (lam S, lam^2 S), S = sin(phi)/phi, as
    complex rows with zero imaginary parts, so that the (2, 2) x (2, L)
    product coef R gives the off-diagonal pair; ``T``, ``phi`` and ``S``
    are scratch rows, and ``zero`` marks the lam of the batch below
    ``TINY_LAM`` in size, lam = 0 among them, where S is 1.
    """

    def __init__(self, lam):
        L = lam.size
        self.lam = lam
        tiny = np.abs(lam) < TINY_LAM
        self.zero = tiny if np.any(tiny) else None
        self.E = np.empty((2, 2, L), dtype=complex)
        self.D, self.O = self.E
        (self.E00, self.E11), _ = self.E
        self.key = None
        self.phi, self.S = np.empty((2, L))
        self.R = np.zeros((2, L), dtype=complex)
        self.T = np.empty((2, L), dtype=complex)


def _cell_exponential(key, coef, cell: _CellPropagator):
    """exp(Omega) of one Magnus-4 step for the batch of ``cell``, into cell.E.

    Omega = [[i theta, Omega12], [-conj Omega12, -i theta]] with theta =
    lam (H + kappa lam) and Omega12 = coef[0] . (lam, lam^2), so exp Omega
    = cos(phi) I + S Omega, S = sin(phi)/phi and phi = lam sqrt(c2 + lam
    (c3 + lam c4)) (``_step_scalars``).  The diagonal and the rows
    (lam S, lam^2 S) depend on the step only through ``key`` = (H, c2, c3,
    c4, kappa) and are rebuilt only when it changes.  Every call writes
    the off-diagonal pair (E01, E10) = coef (lam S, lam^2 S) as two
    column-by-row products and their sum: numpy's matmul would call
    BLAS, whose first call alone raises a forward run's peak memory by
    a quarter MB, for no gain in time.
    """
    if cell.key != key:
        H, c2, c3, c4, kappa = key
        lam, phi, S = cell.lam, cell.phi, cell.S
        np.multiply(lam, c4, out=phi)
        np.add(phi, c3, out=phi)
        np.multiply(phi, lam, out=phi)
        np.add(phi, c2, out=phi)
        np.sqrt(phi, out=phi)
        np.multiply(phi, lam, out=phi)
        np.cos(phi, out=cell.E00.real)
        np.sin(phi, out=S)
        if cell.zero is None:
            np.divide(S, phi, out=S)
        else:
            np.divide(S, phi, out=S, where=~cell.zero)
            S[cell.zero] = 1.0
        lam_S, lam2_S = cell.R.real
        np.multiply(lam, S, out=lam_S)
        np.multiply(lam, lam_S, out=lam2_S)
        np.multiply(lam, kappa, out=S)
        np.add(S, H, out=S)
        np.multiply(S, lam_S, out=cell.E00.imag)
        np.copyto(cell.E11.real, cell.E00.real)
        np.negative(cell.E00.imag, out=cell.E11.imag)
        cell.key = key
    np.multiply(coef[:, :1], cell.R[0], out=cell.O)
    np.multiply(coef[:, 1:], cell.R[1], out=cell.T)
    np.add(cell.O, cell.T, out=cell.O)
    return cell.E


def _cells(p: Potential, lam_max):
    """Per cell k = 0..N-2: (jump, cap, substeps).

    ``jump``: the profile's midpoint value misses the mean of the cell's
    end values by more than ``JUMP_TOLERANCE`` times the largest midpoint
    |q| (never for samples without a profile).  phi = lam_max h sqrt(1 +
    |q|^2), |q| the largest of the cell's end and midpoint values, or 0
    where those three are equal, as on plateaus and zero tails, over
    which a step is exact;
    ``cap`` = min(STEP_CELLS, floor(PHASE_BOUND / phi)) cells a step may
    span, and ``substeps`` = ceil(phi / PHASE_BOUND) for a cell alone.
    """
    q, h = p.q, p.grid.spacing
    left, right = q[:-1], q[1:]
    if p.profile is not None:
        mid = np.asarray(p.profile(p.grid.points[:-1] + 0.5 * h), dtype=complex)
        jump = np.abs(mid - 0.5 * (left + right)) > JUMP_TOLERANCE * np.max(np.abs(mid))
    else:
        mid, jump = 0.5 * (left + right), np.zeros(left.size, dtype=bool)
    amp = np.maximum(np.maximum(np.abs(left), np.abs(right)), np.abs(mid))
    varies = (left != mid) | (mid != right)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi = np.where(varies, lam_max * h * np.sqrt(1.0 + amp * amp), 0.0)
        cap = np.minimum(STEP_CELLS, np.floor(PHASE_BOUND / phi))
        substeps = np.maximum(1.0, np.ceil(phi / PHASE_BOUND))
    return jump, cap, substeps


def _jump_points(p: Potential, k):
    """Where the profile jumps inside cells ``k``, to adjacent floats.

    Each pass evaluates the profile at ``JUMP_SECTIONS`` - 1 points across
    every bracket and keeps the bracket of its first point that is closer
    to the cell's right end value than to its left one, until no point
    falls strictly inside; the right end of the bracket is returned.
    """
    lo, hi = p.grid.points[k], p.grid.points[k + 1]
    q_lo, q_hi = p.q[k, None], p.q[k + 1, None]
    frac = np.arange(1, JUMP_SECTIONS) / JUMP_SECTIONS
    rows = np.arange(k.size)
    while True:
        at = lo[:, None] + (hi - lo)[:, None] * frac
        inside = (lo[:, None] < at) & (at < hi[:, None])
        if not np.any(inside):
            return hi
        q = np.asarray(p.profile(at.ravel()), dtype=complex).reshape(at.shape)
        right = inside & (np.abs(q - q_lo) > np.abs(q - q_hi))
        first = np.argmax(right, axis=1)
        found = right[rows, first]
        lo = np.where(found, np.where(first > 0, at[rows, first - 1], lo), at[:, -1])
        hi = np.where(found, at[rows, first], hi)


def _chunk(alone, cap):
    """Steps over every cell, in increasing x: (first cell, cell count) arrays.

    Runs of cells that are not ``alone`` are cut into steps of the run's
    smallest cap, from the end that borders a cell alone: the run at the
    grid's left end from its right end, every other run from its left
    end.  Every other cell is a step of its own.  A run's shorter last
    step then falls at the end of the grid, where the profile has
    decayed, and the other steps move with the profile under a
    translation by whole cells.
    """
    n = alone.size
    merge = ~alone
    starts = alone.copy()
    if np.any(merge):
        opens = merge & np.r_[True, alone[:-1]]
        closes = np.flatnonzero(merge & np.r_[alone[1:], True]) + 1
        run = np.cumsum(opens) - 1
        first = np.flatnonzero(opens)
        run_cap = np.minimum.reduceat(np.where(merge, cap, np.inf), first)
        # cells before the first run have run -1, and are alone
        pos = np.arange(n) - first[run]
        if first[0] == 0:
            pos[:closes[0]] = closes[0] - np.arange(closes[0])
        starts |= opens | (pos % run_cap[run].astype(int) == 0)
    heads = np.flatnonzero(starts)
    return heads, np.diff(np.r_[heads, n])


def _layout(p: Potential, lam_max):
    """The (sub)steps of both half-marches, laid out once in increasing x.

    Returns (width, low, high, left, right, split): per (sub)step its
    length, the values at its Gauss points x_m - (sqrt 3 / 6) width and
    x_m + (sqrt 3 / 6) width, and the grid indices its step begins and
    ends on, or -1 inside a cell.  The marches meet at the step end
    nearest the middle node N/2: the march from the left crosses the
    first ``split`` (sub)steps, the march from the right the others.

    The steps are laid out over the whole grid (``_chunk``), so both
    marches take the same steps.  The values come from the profile, or
    from the samples' linear interpolant, where every cell is a step of
    its own.  A cell with a jump is a step of its own too, cut at the
    jump (``_jump_points``) into two pieces that the profile is smooth
    on.  Cells with cap >= 2 merge.  A cell alone with phi >
    ``PHASE_BOUND`` takes m = ceil(phi / ``PHASE_BOUND``) substeps of h /
    m, on each piece, and their total over the cells each march
    traverses is checked, in floating point, before anything else is
    built.
    """
    grid = p.grid
    N, h, x = grid.point_count, grid.spacing, grid.points
    jump, cap, substeps = _cells(p, lam_max)
    lo, count = _chunk(jump | (cap < 2) | (p.profile is None), cap)
    meet = int(np.argmin(np.abs(lo - N // 2)))
    for cells in (slice(0, lo[meet]), slice(lo[meet], N - 1)):
        total = float(((1 + jump) * substeps)[cells].sum())
        if not total <= STEP_CAP_FACTOR * N:  # also refuses inf and NaN
            raise ResolutionExceededError(
                f"propagation needs {total:.3g} substeps (> {STEP_CAP_FACTOR * N}); "
                "lam is too large for this grid")
    cut = (count == 1) & jump[lo]

    # the pieces in increasing x: a cut cell is two
    piece = np.repeat(np.arange(lo.size), 1 + cut)
    start, span = x[lo][piece], (count * h)[piece]
    second = np.r_[False, piece[1:] == piece[:-1]]
    at = _jump_points(p, lo[cut]) if np.any(cut) else np.empty(0)
    start[second] = at
    span[second] = x[lo[cut] + 1] - at
    span[np.r_[second[1:], False]] = at - x[lo[cut]]
    keep = span > 0.0  # a jump found at a cell end leaves one piece
    piece, start, span = piece[keep], start[keep], span[keep]
    m = np.where(count[piece] == 1, substeps[lo[piece]], 1.0).astype(int)

    # the (sub)steps in increasing x
    sub = np.repeat(np.arange(piece.size), m)
    j = np.arange(sub.size) - np.repeat(np.cumsum(m) - m, m)
    m, piece = m[sub], piece[sub]
    width = span[sub] / m
    centre = start[sub] + (j + 0.5) * width
    left = np.where(np.r_[True, piece[1:] != piece[:-1]], lo[piece], -1)
    right = np.where(np.r_[piece[1:] != piece[:-1], True], (lo + count)[piece], -1)
    split = int(np.searchsorted(piece, meet))

    if p.profile is not None:
        offset = GAUSS_OFFSET * width
        values = np.asarray(p.profile(np.r_[centre - offset, centre + offset]), dtype=complex)
        return width, values[:width.size], values[width.size:], left, right, split
    # a cell's own fraction of each Gauss point
    k = lo[piece]
    frac = (j + 0.5) / m
    shift = GAUSS_OFFSET / m
    low, high = ((p.q[k] * (1.0 - f) + p.q[k + 1] * f) for f in (frac - shift, frac + shift))
    return width, low, high, left, right, split


def _couplings(H, q1, q2):
    """Per step: s = (q1 + q2)/2, delta = g (q2 - q1) and kappa = g Im(q1 conj q2).

    g = (sqrt 3 / 6) H^2; Im(a conj b) is Im a Re b - Re a Im b.
    """
    g = GAUSS_OFFSET * H * H
    return 0.5 * (q1 + q2), g * (q2 - q1), g * (q1.imag * q2.real - q1.real * q2.imag)


def _step_scalars(H, q1, q2, lam_max):
    """Per step: the trigonometry key (H, c2, c3, c4, kappa) and the (2, 2) coefficients.

    With s = (q1 + q2)/2, delta = (sqrt 3 / 6) H^2 (q2 - q1) and kappa =
    (sqrt 3 / 6) H^2 Im(q1 conj q2), the Magnus-4 exponent is Omega11 =
    i (lam H + kappa lam^2) and Omega12 = -lam H s + i lam^2 delta, and
    phi^2 = lam^2 (c2 + lam (c3 + lam c4)) with c2 = H^2 (1 + |s|^2), c3
    = 2 H (kappa - Im(s conj delta)) and c4 = kappa^2 + |delta|^2.  The
    coefficients [[-H s, i delta], [H conj s, i conj delta]] take (lam S,
    lam^2 S) to (E01, E10).  c3 and c4 are set to 0 where |c3| lam_max +
    c4 lam_max^2 < ``DROP_SHARE`` c2, and kappa where |kappa| lam_max <
    ``DROP_SHARE`` |H|: no bit of phi or theta moves, and plateaus and
    tails share one key.  Squares are products, and Im(a conj b) is
    Im a Re b - Re a Im b.
    """
    s, delta, kappa = _couplings(H, q1, q2)
    c2 = H * H * (1.0 + (s.real * s.real + s.imag * s.imag))
    c3 = 2.0 * H * (kappa - (s.imag * delta.real - s.real * delta.imag))
    c4 = kappa * kappa + (delta.real * delta.real + delta.imag * delta.imag)
    drop = np.abs(c3) * lam_max + c4 * lam_max * lam_max < DROP_SHARE * c2
    c3[drop] = c4[drop] = 0.0
    kappa_theta = np.where(np.abs(kappa) * lam_max < DROP_SHARE * np.abs(H), 0.0, kappa)
    coef = np.empty((H.size, 2, 2), dtype=complex)
    coef[:, 0, 0] = -H * s
    coef[:, 0, 1] = 1j * delta
    coef[:, 1, 0] = H * np.conj(s)
    coef[:, 1, 1] = 1j * np.conj(delta)
    keys = zip(H.tolist(), c2.tolist(), c3.tolist(), c4.tolist(), kappa_theta.tolist())
    return list(keys), coef


def _first_step(H, q1, q2, node, lam_max):
    """The first (sub)step a half-march takes: the start rule.

    c_k = lam_max (|H| |s| + lam_max (|delta| + |kappa|)) (``_couplings``)
    bounds || Omega - Omega_free || over the batch, Omega_free = i lam H
    sigma3 the free rotation, and ||e^A - e^B|| <= ||A - B|| for skew-
    Hermitian A and B.  So the leading steps whose running sum of c_k, in
    march order, is at most ``DROP_SHARE`` times the whole half's would
    move the free column e^{i lam x} (1, 0) by at most that share of the
    coupling the march takes.  The march skips them, up to the last of
    them that ends on a grid node, and starts there; 0 skips none.  The
    rule reads q only through ratios of couplings, so it keeps a tiny
    potential's relative accuracy, and a half where q is zero starts at
    the meeting node.  |z| is libm's hypot of its parts, as Python's
    complex abs gives it; numpy's complex abs may differ in the last bit.
    """
    s, delta, kappa = _couplings(H, q1, q2)
    pull = lam_max * (np.abs(H) * np.hypot(s.real, s.imag)
                      + lam_max * (np.hypot(delta.real, delta.imag) + np.abs(kappa)))
    running = np.cumsum(pull)
    if not running.size or not np.isfinite(running[-1]):
        return 0
    skip = np.flatnonzero((running <= DROP_SHARE * running[-1]) & (node >= 0))
    return int(skip[-1]) + 1 if skip.size else 0


def _plans(p: Potential, lam_max):
    """The half-marches from the left and the right infinity, a plan (H, q1, q2, node, start) each.

    Both come from one layout (``_layout``), cut at the meeting node.  A
    plan holds the (sub)steps in march order: H the signed step length,
    q1 and q2 the values at x_m -+ (sqrt 3 / 6) H in path order, and
    ``node`` the grid index the step ends on, or -1 inside a cell.  It
    leaves out the leading steps the start rule drops (``_first_step``),
    and ``start`` is the grid node the march starts at: the end of the
    last step dropped, else the grid end.
    """
    width, low, high, left, right, split = _layout(p, lam_max)
    halves = ((width[:split], low[:split], high[:split], right[:split], 0),
              (-width[split:][::-1], high[split:][::-1], low[split:][::-1], left[split:][::-1],
               p.grid.point_count - 1))
    plans = []
    for H, q1, q2, node, start in halves:
        first = _first_step(H, q1, q2, node, lam_max)
        if first:
            start = int(node[first - 1])
        plans.append((H[first:], q1[first:], q2[first:], node[first:], start))
    return plans


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


def _lam_batch(lams):
    """``lams`` as a 1-D float batch; it must be nonempty and finite."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if lams.size == 0 or not np.all(np.isfinite(lams)):
        raise InvalidArgumentError("lam must be a nonempty batch of finite values")
    return lams


def _march(p: Potential, lams, plan):
    """Step the first Jost column along ``plan``, from its start node.

    A generator of (block, nodes, det defect) in march order, a block of
    columns being (n, 2, len(lams)) and ``nodes`` the n grid indices
    they sit at: first the start column alone, then the columns at the
    ends of the next steps, up to ``BLOCK_SAMPLES`` // len(lams) steps
    per block.  The det defect is the block's largest |det psi - 1|,
    taken over the whole block with one set of calls.  A column (alpha,
    beta) is the first column of psi = [[alpha, -conj beta], [beta, conj
    alpha]]: psi and every step propagator are in SU(2) for real lam, so
    the column determines psi.  A block is a view of one buffer, valid
    only until the generator resumes, so a consumer copies what it keeps.

    ``plan`` is (H, q1, q2, node, start), a half-march as ``_plans``
    lays it out for the batch's largest |lam|, and the march starts with
    the free column e^{i lam x} (1, 0) at node ``start``.  Each step's
    scalars (``_step_scalars``) are laid out before the first step.  A
    substepped cell's inner substeps go through a spare column.
    `_cell_exponential` rebuilds the step propagator in one buffer per
    (sub)step and redoes its trigonometry only when the step's key
    changes, as it does not across plateaus and tails.  Each (sub)step
    is then three calls on row pairs: D col, O col[::-1] and their sum.
    The batch must be nonempty and finite.
    """
    lams = _lam_batch(lams)
    lam_max = float(np.max(np.abs(lams)))
    H, q1, q2, node, start = plan
    keys, coefs = _step_scalars(H, q1, q2, lam_max)
    schedule = zip(keys, coefs, (node >= 0).tolist())
    ends = node[node >= 0]

    L = lams.size
    B = max(1, min(ends.size, BLOCK_SAMPLES // L))
    block = np.zeros((B + 1, 2, L), dtype=complex)
    block[0, 0] = np.exp(1j * lams * p.grid.points[start])
    scratch = np.empty((B, 2, 2 * L)), np.empty((B, 2 * L)), np.empty((B, L))
    yield block[:1], np.array([start]), _det_defect(block[:1], scratch)
    cols = list(block)
    flips = [col[::-1] for col in cols]
    cell = _CellPropagator(lams)
    D, O = cell.D, cell.O
    spare, t1, t2 = np.empty((3, 2, L), dtype=complex)
    done, j, col, flip = 0, 0, cols[0], flips[0]
    for key, coef, last in schedule:
        _cell_exponential(key, coef, cell)
        np.multiply(D, col, out=t1)
        np.multiply(O, flip, out=t2)
        if last:
            j += 1
            col, flip = cols[j], flips[j]
        else:
            col, flip = spare, spare[::-1]
        np.add(t1, t2, out=col)
        if j == B:
            yield block[1:], ends[done:done + B], _det_defect(block[1:], scratch)
            block[0] = block[B]
            done, j, col, flip = done + B, 0, cols[0], flips[0]
    if j:
        yield block[1:j + 1], ends[done:], _det_defect(block[1:j + 1], scratch)


def _propagate_to_mid(p: Potential, lams, plan):
    """Propagate psi along a half-march ``plan`` (``_plans``) to the meeting node.

    Returns (psi there with shape (2, 2, len(lams)), max det defect).
    Both marches meet at the step end nearest x = 0 (``_layout``), and a
    Wronskian of their columns is the same at any node.  The det defect
    is taken over every step end the march reaches, one block at a time;
    the full SU(2) matrix is built once, at the meeting node.
    """
    blocks = _march(p, lams, plan)
    cols, _, _ = next(blocks)  # the start column
    det_defect = 0.0
    for cols, _, defect in blocks:
        det_defect = max(det_defect, defect)
    psi = np.empty((2, 2, cols.shape[-1]), dtype=complex)
    psi[:, 0] = cols[-1]
    return _fill_second_column(psi), det_defect


def _positive_half(lams):
    """The upper half of a batch [-lam[::-1], lam] with every lam > 0, else None."""
    n = lams.size // 2
    half = lams[n:]
    if lams.size % 2 == 0 and np.all(half > 0.0) and np.array_equal(lams[:n], -half[::-1]):
        return half
    return None


def _mirror(psi):
    """psi over [-lam[::-1], lam] from psi (2, 2, L) over lam, for real q.

    psi(-lam) = sigma3 conj psi(lam) sigma3, so the first column (alpha,
    beta) turns to (conj alpha, -conj beta), with 0 - x for -x as the
    march gives +0.0 where a part is zero.
    """
    L = psi.shape[-1]
    out = np.empty((2, 2, 2 * L), dtype=complex)
    out[:, 0, L:] = psi[:, 0]
    np.conjugate(psi[0, 0, ::-1], out=out[0, 0, :L])
    np.subtract(0.0, psi[1, 0, ::-1].real, out=out[1, 0, :L].real)
    np.copyto(out[1, 0, :L].imag, psi[1, 0, ::-1].imag)
    return _fill_second_column(out)


def _wronskians(p: Potential, lams):
    """a, b, c, d for a batch of lam, and the det defect of both halves.

    Both half-marches come from one layout (``_plans``).
    Where every value the marches read is real and the batch is
    symmetric about lam = 0 and free of it (``_positive_half``), only
    lam > 0 is marched and lam < 0 filled in by ``_mirror``: each step
    at -lam is then the conjugate of the step at lam, bit for bit, so
    the columns, and a, b, c, d, are those of the full march.
    """
    lams = _lam_batch(lams)
    lam_max = float(np.max(np.abs(lams)))
    plan_m, plan_p = _plans(p, lam_max)
    real = not any(np.any(q.imag) for plan in (plan_m, plan_p) for q in plan[1:3])
    half = _positive_half(lams) if real else None
    marched = lams if half is None else half
    psim, ddm = _propagate_to_mid(p, marched, plan_m)
    psip, ddp = _propagate_to_mid(p, marched, plan_p)
    if half is not None:
        psim, psip = _mirror(psim), _mirror(psip)
    a = psip[0, 0] * psim[1, 1] - psim[0, 1] * psip[1, 0]
    b = psim[0, 0] * psip[1, 0] - psip[0, 0] * psim[1, 0]
    c = psim[0, 0] * psip[1, 1] - psip[0, 1] * psim[1, 0]
    d = psip[0, 1] * psim[1, 1] - psim[0, 1] * psip[1, 1]
    return a, b, c, d, max(ddm, ddp)


def _lam_lattice(p: Potential, lam: np.ndarray) -> np.ndarray:
    """The lam the Jost pair is marched at, for the band's ``lam``.

    The nodes are +-(j + 1/2) dlam, j = 0..J, dlam = ``LAM_STEP_FACTOR`` /
    L, with (J + 1/2) dlam >= max |lam|: symmetric, free of lam = 0, and
    covering the band, off which the interpolant is zero.  A lattice of
    more than ``LAM_LATTICE_CAP`` nodes is refused before it is built.
    """
    step = LAM_STEP_FACTOR / p.grid.half_width
    reach = np.max(np.abs(lam))
    with np.errstate(over="ignore"):  # a step of 1e-309 overflows the count to inf
        count = np.ceil(reach / step - 0.5) + 1
    if not 2 * count <= LAM_LATTICE_CAP:  # also refuses inf and NaN
        raise ResolutionExceededError(
            f"the lam lattice needs {2 * count:.3g} nodes (> {LAM_LATTICE_CAP}) to cover the "
            "band at 16 per period of e^{2 i lam L}; L is too large for this band")
    count = int(count)
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
    are read on the lattice, where the Wronskians are exact to the scheme
    (``det_defect`` is the largest |det psi - 1| over every step end of
    both marches);
    ``outer_truncation`` and ``inner_truncation``, the largest |r| at
    the band's outer and inner edges, on the band.

    Rejects with possible-bound-state when min |a| < ``a_floor``: the
    small-data theory keeps a bounded away from zero, so a deep dip
    signals discrete spectrum the radiation-only inverse problem cannot
    represent.
    """
    check_number("a_floor", a_floor, 0.0)
    z = zgrid.points
    active = zgrid.active
    lam = -1.0 / z[active]

    nodes = _lam_lattice(p, lam)
    # a march whose cells overflow leaves a or b non-finite: a numerical
    # failure, raised as one rather than as warnings and a bad r
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c, d, det_defect = _wronskians(p, nodes)
    broken = ~(np.isfinite(a) & np.isfinite(b))
    if broken.any():
        raise NumericalError(f"the Jost march left a or b non-finite at {np.count_nonzero(broken)} "
                             f"of {nodes.size} lam nodes")

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
    check_number("t", t)
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
