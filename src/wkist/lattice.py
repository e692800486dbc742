"""Grids, quadrature, discrete Cauchy projections, and the interpolants.

The Cauchy boundary operators C+ and C- are built on one kernel, the
sinc discrete Hilbert transform on the real line (Stenger 1993;
Weideman, Math. Comp. 64, 1995): C+- v = (+-v + i H v)/2, where H is
the Toeplitz kernel 2/(pi m) on odd offsets m and 0 on even ones,
applied by circulant embedding with ``numpy.fft``; the +-1/2 identity
part is folded into the kernel's spectrum, so one pass returns either
projection.  The public projectors form C- as C+ - id, so the Plemelj
identity ``C+ - C- = id`` holds exactly at the grid points.  On samples that
decay inside [-Z, Z) the kernel converges spectrally (2.8e-16 against
the Dawson-function transform of exp(-s^2) at Z = 40, N = 4096).
Samples outside the window count as zero, so on its own the kernel
misses a 1/s tail by O(1/Z): 8.7e-3 on the inner half of the grid for
``1/(s + i)`` at Z = 40, halving each time Z doubles.  One closed-form
tail completion supplies what it misses (``_tail_outside``): the edge
samples are fitted in (a/(s + i a))^k, whose C+ is the fit itself and
whose C- is zero (the closed-form-basis idea of Olver, Numer. Math.
2012), so the windowed kernel misses exactly (B - K+ B) c of the fitted
tail B c.  The public ``cauchy_plus`` and ``cauchy_minus`` add that
term to the kernel and meet 6e-9 on ``1/(s +- i)`` at Z = 40.  The RHP
solver needs no tail: it runs the kernel on a uniform lam = -1/z grid,
where the jump's slow 1/z decay is its smooth vanishing at lam = 0, and
subtracts the kernel's own value there (``rhp._half_step``).

The package's one interpolant and its one error estimate live here.
Lagrange interpolation through a stencil of ten nodes
(``_lagrange_interpolant``) takes any increasing nodes, with barycentric
weights computed once per stencil.  It carries the forward's lam lattice
onto the spectral band, the band's samples onto the inverse's lam grid
(``rhp.lam_reflection``), the inverse's hodograph lattice onto the
sweep, and the inverse's q_H from the mapped nodes x(x_H), which are
close to uniform since dx/dx_H = 1/<q_H>, onto the physical grid.  Its error
estimate is its miss at every other node (``_halving_miss``).
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SpatialGrid",
    "SpectralGrid",
    "GridFunction",
    "make_spatial_grid",
    "make_spectral_grid",
    "cauchy_plus",
    "cauchy_minus",
    "columns_to_csv",
    "gridfunction_to_csv",
]


@dataclass
class _UniformGrid:
    """Points -half_width + k * spacing, k = 0..point_count-1, on [-half_width, half_width)."""

    half_width: float
    point_count: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.point_count

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.point_count)


@dataclass
class SpatialGrid(_UniformGrid):
    """Uniform grid x_k = -L + k * (2L/N), k = 0..N-1."""


@dataclass
class SpectralGrid(_UniformGrid):
    """Uniform grid on [-Z, Z) for a spectral variable: z, or lam = -1/z.

    On a z grid, ``z_min`` is the truncation floor: the forward map
    leaves r zero for |z| < z_min, where the phase x_H/z + 2t/z^2
    oscillates faster than the grid can resolve.  The inverse's lam grid
    (``rhp.lam_grid``) has no floor.  ``padding`` is a class constant,
    not a setting: the Cauchy kernel transforms the 2N-point circulant
    embedding of every grid.
    """

    z_min: float = 0.0
    padding: ClassVar[int] = 2

    def __post_init__(self):
        n = self.point_count
        if n < 4 or (n & (n - 1)) != 0:
            raise InvalidArgumentError(f"point_count must be a power of two >= 4, got {n}")
        if not self.z_min < self.half_width:
            raise InvalidArgumentError(
                f"z_min must be a number below the grid half-width, got {self.z_min}")

    @property
    def active(self) -> np.ndarray:
        """Mask of the active band z_min <= |z|, z != 0, off which jump data is zero."""
        z = self.points
        return (np.abs(z) >= self.z_min) & (z != 0.0)


@dataclass
class GridFunction:
    """Complex samples (scalar or 2x2-matrix valued) tied to a grid."""

    grid: SpatialGrid | SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[0] != self.grid.point_count:
            raise InvalidArgumentError(
                f"sample count {self.values.shape[0]} does not match grid size {self.grid.point_count}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("samples must be finite")


def _check_half_width(width: float):
    """A half-width must be positive, and the full width 2 * width finite."""
    if not (width > 0 and np.isfinite(2.0 * width)):
        raise InvalidArgumentError(f"half-width must be positive and finite, got {width}")


def make_spatial_grid(L: float, N: int) -> SpatialGrid:
    """Uniform spatial grid of N (even, >= 4) points on [-L, L)."""
    _check_half_width(L)
    if N < 4 or N % 2 != 0:
        raise InvalidArgumentError(f"point count must be even and >= 4, got {N}")
    return SpatialGrid(float(L), int(N))


def make_spectral_grid(Z: float, N_z: int, z_min: float = 0.0) -> SpectralGrid:
    _check_half_width(Z)
    return SpectralGrid(float(Z), int(N_z), float(z_min))


_DECAY_TOL = 1e-6

# The tail completion (``_tail_outside``): the samples on the outermost
# eighth of each half-window are fitted in (a/(s + i a))^k, k = 1..K.
# One family, five terms, fitted only there keeps the least-squares
# problem well conditioned, so the projectors stay linear to round-off
# (1e-14 on random data); adding the family with its pole above, or
# fitting on |s| >= Z/2, drives the coefficients up and the linearity
# defect to between 1e-11 and 1e-6.  On decaying data the edge samples
# are tiny and the completion is close to a no-op.
_TAIL_TERMS = 5
_TAIL_SCALE = 2.0
_TAIL_REGION = 7.0 / 8.0


@functools.lru_cache(maxsize=16)
def _projector_fft(n: int, minus: bool) -> np.ndarray:
    """The spectrum of C+ (``minus`` false) or C- on the circulant embedding.

    The embedding has ``SpectralGrid.padding`` * n = 2n points.  C+- v =
    +-v/2 + (i/2) H v.  The kernel of H, 2/(pi m) on odd offsets m and 0
    on even ones, does not depend on the spacing, so one array serves
    every grid of n points.  Its FFT is scaled by i/2 (exact in floating
    point), and +-1/2 is added: the identity is the multiplier 1 on every
    frequency of the embedding, so one pass returns the projection itself.
    """
    m = np.arange(1, n)
    half = np.where(m % 2 == 1, 2.0 / (np.pi * m), 0.0)
    # offsets 0, 1..n-1, n (the one gap entry) and -(n-1)..-1
    col = np.concatenate([[0.0], half, [0.0], -half[::-1]])
    # transformed as complex data, like the samples: a real-input
    # transform rounds differently
    out = 0.5j * np.fft.fft(col.astype(complex)) + (-0.5 if minus else 0.5)
    out.setflags(write=False)
    return out


def _cauchy_plus_batch(values: np.ndarray, grid: SpectralGrid, minus: bool = False,
                       weight: np.ndarray | None = None) -> np.ndarray:
    """C+ (or C- with ``minus``) of ``values * weight`` on the trailing axis of a (..., N) array.

    C+- v = (+-v + i H v) / 2, with H the sinc discrete Hilbert transform
    (Hv)_k = sum over odd k - j of 2 v_j / (pi (k - j)), applied as a
    Toeplitz product by circulant embedding of length ``grid.padding`` N
    = 2N, all in one buffer whose tail half is zeroed: a forward FFT in
    place, the cached spectrum of the whole projection
    (``_projector_fft``) multiplied in place, and an inverse FFT in place.
    ``weight``, broadcast against ``values``, is multiplied straight into
    the buffer, so the product is never formed on its own; the result has
    the bytes of the kernel applied to ``values * weight``.
    On samples that decay inside the window it converges spectrally;
    samples it is not given count as zero, so a 1/s tail outside [-Z, Z)
    costs O(1/Z), which ``_tail_outside`` supplies to the public
    projectors.  The solver calls this kernel directly, once per
    half-step of a Beals-Coifman sweep on the lam grid, with the jump
    entry as the weight.
    """
    n = grid.point_count
    values = np.asarray(values)
    shape = values.shape if weight is None else np.broadcast_shapes(values.shape, np.shape(weight))
    buf = np.empty(shape[:-1] + (grid.padding * n,), dtype=complex)
    if weight is None:
        buf[..., :n] = values
    else:
        np.multiply(values, weight, out=buf[..., :n])
    buf[..., n:] = 0.0
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= _projector_fft(n, minus)
    np.fft.ifft(buf, axis=-1, out=buf)
    # a copy, so the caller does not hold the 2N buffer
    return buf[..., :n].copy()


@functools.lru_cache(maxsize=16)
def _tail_completion(n: int, half_width: float):
    """The tail fit of an n-point grid on [-Z, Z), built once per grid.

    The basis B = (a/(s + i a))^k, k = 1..K, is analytic above the line
    and decays, so C+ of each column is the column itself and C- of it
    is zero.  Returns the edge indices (the outermost eighth of each
    half-window), the transposed pseudo-inverse of B on them, and the
    (K, N) matrix (B - K+ B)^T: what the windowed kernel K+ misses of
    each basis column, the same for C+ and C- since they differ by the
    identity.
    """
    grid = SpectralGrid(half_width, n)
    s = grid.points
    basis = (_TAIL_SCALE / (s + 1j * _TAIL_SCALE))[:, None] ** np.arange(1, _TAIL_TERMS + 1)
    edge = np.flatnonzero(np.abs(s) >= _TAIL_REGION * half_width)
    fit = np.linalg.pinv(basis[edge]).T
    outside = basis.T - _cauchy_plus_batch(basis.T, grid)
    for a in (edge, fit, outside):
        a.setflags(write=False)
    return edge, fit, outside


def _tail_outside(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """What the windowed kernel misses of the fitted tail, on a (..., N) array.

    The least-squares fit of (a/(s + i a))^k to the edge samples of
    ``values`` extends them beyond [-Z, Z); the result is the Cauchy
    transform of that extension outside the window, the same for C+ and
    C-.  On samples that vanish on the edges it is exactly zero.
    """
    edge, fit, outside = _tail_completion(grid.point_count, grid.half_width)
    return (values[..., edge] @ fit) @ outside


def _check_decay(f: GridFunction):
    v = np.abs(f.values)
    end = max(np.max(v[0]), np.max(v[-1]))
    if end > _DECAY_TOL:
        warnings.warn(
            f"samples do not decay at the grid ends (|f| = {end:.3e} > {_DECAY_TOL:g}); "
            f"the tails are completed from a fit in (s + {_TAIL_SCALE:g}i)^-k, "
            "which is exact only for tails of that form",
            stacklevel=4,
        )


def _completed_cauchy_plus(f: GridFunction) -> np.ndarray:
    """The kernel plus the tail completion, along the sample axis (axis 0).

    Matrix-valued samples are fitted and projected entry by entry.
    """
    if not isinstance(f.grid, SpectralGrid):
        raise InvalidArgumentError("the Cauchy projections expect a function on a SpectralGrid")
    _check_decay(f)
    values = np.asarray(f.values, complex)
    rows = values.reshape(len(values), -1).T
    out = _cauchy_plus_batch(rows, f.grid) + _tail_outside(rows, f.grid)
    return out.T.reshape(values.shape)


def cauchy_plus(f: GridFunction) -> GridFunction:
    """Boundary value from above of the Cauchy integral of f."""
    return GridFunction(f.grid, _completed_cauchy_plus(f))


def cauchy_minus(f: GridFunction) -> GridFunction:
    """Boundary value from below; C- = C+ - id exactly at grid points."""
    return GridFunction(f.grid, _completed_cauchy_plus(f) - f.values)


# Nodes per stencil of ``_lagrange_interpolant``: degree 9, exact on
# polynomials of degree <= 9; at ten nodes per shortest period it misses
# a band-limited function by less than a cubic spline does at sixteen.
LAGRANGE_POINTS = 10


def _lagrange_interpolant(nodes: np.ndarray, values: np.ndarray):
    """Lagrange interpolation through ``LAGRANGE_POINTS`` nodes, zero outside them.

    ``nodes`` are at least two and strictly increasing, equally spaced or
    not; ``values`` may be complex, (n,) or stacked (n, k), whose columns
    share one basis.  A point in cell [x_k, x_{k+1}] takes the polynomial
    through the ``LAGRANGE_POINTS`` nodes centred on that cell, shifted
    inward at the ends; fewer nodes than that are all taken, so three give
    the parabola and two the secant.  The barycentric weights of every
    stencil are computed once, in the stencil's own coordinate (x - its
    first node) / its mean spacing, and a point's basis is its weights
    times the products of its distances to the other nodes (the modified
    Lagrange formula; Berrut & Trefethen, SIAM Rev. 46, 2004).  A point
    that is a node returns that node's value exactly.  Returns a function
    of the evaluation points.
    """
    x = np.asarray(nodes, dtype=float)
    # the stacked columns as contiguous rows, the node axis last
    y = np.ascontiguousarray(np.moveaxis(np.asarray(values), 0, -1))
    n = x.size
    p = min(LAGRANGE_POINTS, n)
    j = np.arange(p)
    # stencil s holds the nodes s .. s + p - 1; node-major (p, n - p + 1) arrays
    stencil = x[np.arange(n - p + 1) + j[:, None]]
    origin = stencil[0]
    scale = (stencil[-1] - origin) / (p - 1)
    u = (stencil - origin) / scale
    gaps = u[:, None] - u
    gaps[j, j] = 1.0
    weights = 1.0 / np.prod(gaps, axis=1)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        # cell k holds [x_k, x_{k+1}); the last one is closed on the right
        k = np.clip(np.searchsorted(x, points, side="right") - 1, 0, n - 2)
        s = np.clip(k - (p // 2 - 1), 0, n - p)
        d = (points - origin[s]) / scale[s] - np.take(u, s, axis=1)
        # weight j times the product over i != j of d_i: d_i multiplies
        # the bases right of i and left of it
        basis = np.take(weights, s, axis=1)
        for i in range(1, p):
            basis[i:] *= d[i - 1]
            basis[:p - i] *= d[p - i]
        # summed node by node, so a stacked column has the bytes of its own
        # call; np.take gathers along an axis faster than fancy indexing does
        out = basis[0] * np.take(y, s, axis=-1)
        for i in range(1, p):
            out += basis[i] * np.take(y, s + i, axis=-1)
        node = np.where(points == x[k + 1], k + 1, k)
        at_node = points == x[node]
        out[..., at_node] = y[..., node[at_node]]
        out[..., (points < x[0]) | (points > x[-1])] = 0.0
        return np.moveaxis(out, -1, 0)

    return evaluate


def _halving_miss(nodes: np.ndarray, values: np.ndarray) -> float:
    """Worst miss of ``_lagrange_interpolant`` through every other node at
    the dropped nodes inside the kept range; below three nodes, the dropped
    value.  It is at least 1e-13 of the largest |value|, the interpolant's
    own rounding, which a smaller miss cannot resolve.
    """
    floor = 1e-13 * float(np.max(np.abs(values)))
    if nodes.size < 3:
        return max(float(np.max(np.abs(values[1::2]))), floor)
    dropped = slice(1, nodes.size - 1, 2)
    miss = _lagrange_interpolant(nodes[::2], values[::2])(nodes[dropped]) - values[dropped]
    return max(float(np.max(np.abs(miss))), floor)


# The fast %.17g path of ``columns_to_csv``, whose docstring gives the
# method and the block size: rows per block.
_CSV_ROWS = 1024
# Decimal exponents X = floor(log10|v|) of the scale table; the fast path
# takes 1e-280 <= |v| <= 1e280, whose X lie inside it.
_X_RANGE = 282
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# A scaled value whose fraction is this close to 1/2 goes to '%.17g' % v;
# its own error is about 1e-14.
_TIE_MARGIN = 1e-6
# A number's field is six little-endian 64-bit words of byte slots, NUL
# where empty: the sign, "0.000", d0 and a point slot; d1..d16, each with
# a point slot after it; "e+123".  Bytes 6 and 7 of a field's last word
# hold its separator: "," or the line's CRLF.
_LE64 = np.dtype("<u8")
_FIELD_WORDS = 6
_NO_POINT = 16
# the index in d0..d16 of each 4-digit group's first digit
_GROUP_FIRST = np.array([1, 5, 9, 13], np.int8)[:, None, None]
_COMMA = np.uint64(ord(",") << 48)
_CRLF = np.uint64(ord("\r") << 48 | ord("\n") << 56)


def _veltkamp(x):
    """Split doubles x = high + low into halves whose pairwise products are exact."""
    c = x * 134217729.0  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


@functools.cache
def _csv_tables():
    """The fast path's lookup tables, built on its first use.

    Indexed by X + ``_X_RANGE``: 10^(16 - X) = hi + lo, hi the correctly
    rounded double and lo the correctly rounded rest, both from Python
    integers, with hi's Veltkamp halves; the "0.000" prefix and "e+XX"
    suffix words; the digits a fixed-point value keeps whatever they are
    (its integer part); the digit the point follows.  Indexed by a 4-digit
    group: its ASCII digits in the even bytes of a word, and the place
    1..4 of its last nonzero digit (0 for 0000).  Indexed by the count of
    digits kept and by the point's digit: each digit word's keep mask and
    point byte.
    """
    hi, lo = [], []
    for k in range(16 + _X_RANGE, 15 - _X_RANGE, -1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    scale = np.stack([hi, *_veltkamp(hi), np.array(lo)])

    x = np.arange(-_X_RANGE, _X_RANGE + 1)
    fixed = (x >= -4) & (x < 17)
    # the digits a value keeps whatever they are (a fixed-point integer
    # part), and the digit its point follows
    x_digits = np.stack([np.where(fixed & (x >= 0), x + 1, 0),
                         np.where(fixed, np.where(x >= 0, x, _NO_POINT), 0)]).astype(np.int8)
    ends = np.zeros((2, x.size, 8), np.uint8)
    zeros = np.where(fixed & (x < 0), 1 - x, 0)[:, None]
    ends[0, :, 1:6] = np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < zeros)
    e = np.abs(x)
    ends[1, :, :5] = np.stack([ord("e") + 0 * x, np.where(x < 0, ord("-"), ord("+")),
                               np.where(e >= 100, 48 + e // 100, 0),
                               48 + e // 10 % 10, 48 + e % 10], axis=1)
    ends[1, fixed] = 0
    x_words = ends.view(_LE64)[..., 0]

    g = np.arange(10000, dtype=np.uint16)
    group = np.zeros((10000, 4, 2), np.uint8)
    last = np.zeros(10000, np.int8)
    for i, power in enumerate((1000, 100, 10, 1)):
        group[:, i, 0] = g // power % 10 + ord("0")
        last[group[:, i, 0] > ord("0")] = i + 1

    # word w = 1..4 holds d_j, j = 4w - 3 + i, in byte 2i and the point
    # after d_j in byte 2i + 1; word 0 holds the point after d0 in byte 7
    j = np.arange(1, 17).reshape(4, 1, 4)
    keep = np.zeros((4, 18, 4, 2), np.uint8)
    keep[..., 0] = 255 * (j < np.arange(18)[:, None])
    point = np.zeros((5, _NO_POINT + 1, 8), np.uint8)
    point[0, 0, 7] = ord(".")
    point[1:, :_NO_POINT, 1::2] = ord(".") * (j == np.arange(_NO_POINT)[:, None])
    return (scale, x_words, x_digits, group.reshape(-1, 8).view(_LE64)[:, 0], last,
            keep.reshape(4, 18, 8).view(_LE64)[..., 0], point.view(_LE64)[..., 0])


def _scaled_digits(values, scale):
    """n = |v| 10^(16 - X) rounded to 17 digits, X + ``_X_RANGE``, and where n is certified.

    Zero is certified, with n = 0 and X = 0.  ``columns_to_csv`` gives the
    method; its float temporaries end here.
    """
    a = np.abs(values)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    x = np.log10(a)
    np.floor(x, out=x)
    x = x.astype(np.intp)
    x += _X_RANGE
    hi, hi_high, hi_low, lo = np.take(scale, x, axis=1)
    # Dekker's exact product a hi = p + e, then a 10^(16 - X) = p + e + a lo
    p = a * hi
    a_high, a_low = _veltkamp(a)
    e = a_high * hi_high
    e -= p
    e += a_high * hi_low
    e += a_low * hi_high
    e += a_low * hi_low
    lo *= a
    e += lo
    # p > 1e16 is an even integer, so p + rint(e) rounds half-even where e
    # is not within the margin of a tie
    r = np.rint(e)
    e -= r
    np.abs(e, out=e)
    fast &= e < 0.5 - _TIE_MARGIN
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    # outside 10^16 < n < 10^17, X was off by one or n rounded up to 10^17
    fast &= (n > 10 ** 16) & (n < 10 ** 17)
    fast |= zero
    other = ~fast | zero
    n[other] = 0
    x[other] = _X_RANGE
    return n, x, fast


def _format_numbers(values, out):
    """Write the (k, n) doubles ``values`` as %.17g fields into ``out``, (k, 6, n) words.

    Their separator bytes are left zero.  ``columns_to_csv`` gives the method.
    """
    scale, x_words, x_digits, group, last, keep, point = _csv_tables()
    n, x, fast = _scaled_digits(values, scale)
    lead, n = np.divmod(n, 10 ** 16)
    groups = np.empty((4,) + n.shape, np.uint16)
    for g, power in zip(groups, (10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(n, power, out=g, casting="unsafe")
        n %= power
    groups[3] = n
    # the digits kept: d0, up to the last nonzero one, and a fixed-point
    # integer part; the point goes where a kept digit follows it
    end = np.take(last, groups)
    np.add(end, _GROUP_FIRST, out=end, where=end > 0)
    kept = np.max(end, axis=0)
    int_digits, q = np.take(x_digits, x, axis=1)
    np.maximum(kept, int_digits, out=kept)
    np.maximum(kept, 1, out=kept)
    q[q + 1 >= kept] = _NO_POINT
    prefix, suffix = np.take(x_words, x, axis=1)
    points = np.take(point, q, axis=1)
    lead += ord("0")
    lead <<= 48
    word = out[:, 0]
    np.bitwise_or(prefix, lead.astype(_LE64), out=word)
    word |= points[0]
    word |= np.signbit(values).astype(_LE64) * np.uint64(ord("-"))
    digits = out[:, 1:5].swapaxes(0, 1)
    np.bitwise_and(np.take(group, groups), np.take(keep, kept, axis=1), out=digits)
    digits |= points[1:]
    out[:, 5] = suffix
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = np.array([b"%.17g" % v for v in values[slow].tolist()], dtype="S40")
        out[slow[0], :5, slow[1]] = text.view(_LE64).reshape(-1, 5)


def _csv_block(block):
    """The CSV lines of one block of rows: ``block`` its number columns."""
    values = np.array(block, dtype=float)
    fields = np.empty((len(values), _FIELD_WORDS, values.shape[1]), _LE64)
    _format_numbers(values, fields)
    fields[:-1, -1] |= _COMMA
    fields[-1, -1] |= _CRLF
    return fields.reshape(-1, values.shape[1]).T.tobytes().translate(None, b"\0")


def columns_to_csv(path, header, columns, text=()):
    """Write equal-length ``columns`` under ``header`` as one CSV file.

    Columns named in ``text`` are written with %s of the caller's values,
    the others with %.17g, and lines end in CRLF: the bytes ``csv.writer``
    writes for these fields.  A file with text columns goes through
    ``csv.writer``, which quotes a text value holding a comma, a quote or
    a line break.  A file of numbers only is formatted ``_CSV_ROWS`` rows
    at a time by numpy arithmetic, bytes equal to '%.17g' % v.  With X =
    floor(log10|v|), |v| 10^(16 - X) is formed from Dekker's exact
    product of |v| and the double hi of 10^(16 - X) = hi + lo (Numer.
    Math. 18, 1971) plus |v| lo, within about 1e-14; it is rounded
    half-even to a 17-digit integer, whose 4-digit groups are looked up
    as ASCII, and the digits are laid out in byte slots in %g form:
    fixed-point for -4 <= X < 17, else d.ddde+-XX, trailing zeros
    dropped.  A value goes to '%.17g' % v itself where the scaled
    value's fraction is within 1e-6 of 1/2, its X was off by one, it is
    0 < |v| < 1e-280 or |v| > 1e280, or it is not finite.  The slots
    are NUL where empty, and ``bytes.translate`` drops the NULs of a
    block's lines at once.  A block of 1024 rows costs about 60 numpy
    calls however long it is: 256 rows lose most of the gain, 512 and
    more keep it.
    """
    if any(name in text for name in header):
        formats = ["%s" if name in text else "%.17g" for name in header]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            rows = zip(*[[f % (v,) for v in c] for f, c in zip(formats, columns)])
            csv.writer(fh, lineterminator="\r\n").writerows([header, *rows])
        return
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), _CSV_ROWS):
            fh.write(_csv_block([c[start:start + _CSV_ROWS] for c in columns]))


def gridfunction_to_csv(f: GridFunction, path):
    columns_to_csv(path, ["coordinate", "re", "im"], [f.grid.points, f.values.real, f.values.imag])
