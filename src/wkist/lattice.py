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
term to the kernel and meet 6e-9 on ``1/(s +- i)`` at Z = 40; the RHP
solver adds it to its right-hand side as the outer band of the jump.

The package's one interpolant and its one error estimate live here.
Lagrange interpolation through a stencil of ten nodes
(``_lagrange_interpolant``) takes any increasing nodes, with barycentric
weights computed once per stencil.  It carries the forward's lam lattice
onto the spectral band, the inverse's hodograph lattice onto the sweep,
and the inverse's q_H from the mapped nodes x(x_H), which are close to
uniform since dx/dx_H = 1/<q_H>, onto the physical grid.  Its error
estimate is its miss at every other node (``_halving_miss``).
"""

from __future__ import annotations

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
    "cumulative_integral",
    "cauchy_plus",
    "cauchy_minus",
    "columns_to_csv",
    "gridfunction_to_csv",
]


@dataclass
class SpatialGrid:
    """Uniform grid x_k = -L + k * (2L/N), k = 0..N-1."""

    half_width: float
    point_count: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.point_count

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.point_count)


@dataclass
class SpectralGrid:
    """Uniform grid on [-Z, Z) for the spectral variable z.

    ``z_min`` is the truncation floor: jump data is forced to zero for
    |z| < z_min because the phase x_H/z + 2t/z^2 oscillates faster than
    the grid can resolve there.  ``padding`` is a class constant, not a
    setting: the Cauchy kernel transforms the 2N-point circulant
    embedding of every grid.
    """

    half_width: float
    point_count: int
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
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.point_count

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.point_count)

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


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Trapezoid cumulative sum from the left grid end.

    The last value approximates the integral over the truncated line.
    """
    h = f.grid.spacing
    v = f.values
    out = np.zeros_like(v, dtype=complex if np.iscomplexobj(v) else float)
    if len(v) > 1:
        incr = 0.5 * h * (v[1:] + v[:-1])
        out[1:] = np.cumsum(incr, axis=0)
    return GridFunction(f.grid, out)


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
    costs O(1/Z), which ``_tail_outside`` supplies.  The solver calls
    this kernel directly, once per half-step of a Beals-Coifman sweep,
    with the jump entry as the weight.
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


def columns_to_csv(path, header, columns, text=()):
    """Write equal-length ``columns`` under ``header`` as one CSV file.

    Columns named in ``text`` are written with %s, the others with %.17g,
    and lines end in CRLF: the bytes ``csv.writer`` writes for these fields.
    Rows are formatted 256 at a time: as fast as the whole file at once,
    without holding a Python float per sample of it.
    """
    fmt = ",".join("%s" if name in text else "%.17g" for name in header) + "\r\n"
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), 256):
            rows = zip(*(c[start:start + 256].tolist() for c in columns))
            fh.write("".join(map(fmt.__mod__, rows)))


def gridfunction_to_csv(f: GridFunction, path):
    columns_to_csv(path, ["coordinate", "re", "im"], [f.grid.points, f.values.real, f.values.imag])
