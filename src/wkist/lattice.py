"""Grids, quadrature, and discrete Cauchy projections on the real line.

The Cauchy boundary operators C+ and C- are built on one kernel, the
sinc discrete Hilbert transform on the real line (Stenger 1993;
Weideman, Math. Comp. 64, 1995): C+ v = (v + i H v)/2, where H is the
Toeplitz kernel 2/(pi m) on odd offsets m and 0 on even ones, applied by
circulant embedding.  The Plemelj identity ``C+ - C- = id`` holds
exactly at the grid points, and on samples that decay inside [-Z, Z) the
kernel converges spectrally (2.8e-16 against the Dawson-function
transform of exp(-s^2) at Z = 40, N = 4096).  Samples outside the window
count as zero, so on its own the kernel misses a 1/s tail by O(1/Z):
8.7e-3 on the inner half of the grid for ``1/(s + i)`` at Z = 40,
halving each time Z doubles.  The public ``cauchy_plus`` and
``cauchy_minus`` therefore first subtract a least-squares fit of the
edge samples in (a/(s + i a))^k, whose C+ is the fit itself and whose
C- is zero (the closed-form-basis idea of Olver, Numer. Math. 2012), and
project only the remainder with the kernel; on ``1/(s +- i)`` they meet
6e-9 at Z = 40.
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

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
    "gridfunction_to_csv",
    "gridfunction_to_json",
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
    the grid can resolve there.  ``padding`` was the zero-padding factor
    of an earlier, periodized Cauchy transform; the sinc kernel does not
    read it.  It is still validated (``test_spectral_grid_rejects_bad_sizes``
    pins that) and kept because ``gridfunction_to_json`` writes it and
    the benchmark trace reads it; retiring it changes both.
    """

    half_width: float
    point_count: int
    z_min: float = 0.0
    padding: int = 4

    def __post_init__(self):
        n = self.point_count
        if n < 4 or (n & (n - 1)) != 0:
            raise InvalidArgumentError(f"point_count must be a power of two >= 4, got {n}")
        if self.z_min >= self.half_width:
            raise InvalidArgumentError("z_min must be below the grid half-width")
        m = n * self.padding
        if self.padding < 2 or (m & (m - 1)) != 0:
            raise InvalidArgumentError(
                f"padding must be >= 2 and keep the padded length a power of two, got {self.padding}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.point_count

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.point_count)


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


def make_spatial_grid(L: float, N: int) -> SpatialGrid:
    """Uniform spatial grid of N (even, >= 4) points on [-L, L)."""
    if not L > 0:
        raise InvalidArgumentError(f"half-width must be positive, got {L}")
    if N < 4 or N % 2 != 0:
        raise InvalidArgumentError(f"point count must be even and >= 4, got {N}")
    return SpatialGrid(float(L), int(N))


def make_spectral_grid(Z: float, N_z: int, z_min: float = 0.0, padding: int = 4) -> SpectralGrid:
    if not Z > 0:
        raise InvalidArgumentError(f"half-width must be positive, got {Z}")
    return SpectralGrid(float(Z), int(N_z), float(z_min), int(padding))


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

# Tail completion of the public projectors: the samples on the outermost
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
def _hilbert_kernel_fft(n: int) -> np.ndarray:
    """i/2 times the FFT of the length-2n circulant embedding of the sinc kernel.

    The kernel 2/(pi m) on odd offsets m and 0 on even ones does not
    depend on the spacing, so one array serves every grid of n points.
    The factor i/2 of C+ = (v + i H v)/2 is folded in here; scaling by
    i/2 is exact in floating point.
    """
    m = np.arange(1, n)
    half = np.where(m % 2 == 1, 2.0 / (np.pi * m), 0.0)
    col = np.concatenate([[0.0], half, [0.0], -half[::-1]])
    # transformed as complex data, like the samples: the real-input path
    # of scipy.fft rounds differently
    out = 0.5j * scipy.fft.fft(col.astype(complex))
    out.setflags(write=False)
    return out


def _cauchy_plus_batch(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """C+ on the trailing axis of a (..., N) array: the windowed kernel.

    C+ v = (v + i H v) / 2, with H the sinc discrete Hilbert transform
    (Hv)_k = sum over odd k - j of 2 v_j / (pi (k - j)), applied as a
    Toeplitz product by circulant embedding of length 2N: a forward FFT,
    the cached kernel spectrum multiplied in place, and an inverse FFT
    that overwrites its input.  On samples that decay inside the window
    it converges spectrally; samples it is not given count as zero, so a
    1/s tail outside [-Z, Z) costs O(1/Z).  The public ``cauchy_plus``
    completes such tails; the solver calls this kernel directly, once per
    half-step of a Beals-Coifman sweep, and supplies its outer band
    itself.  ``grid.padding`` is not read.
    """
    n = grid.point_count
    values = np.asarray(values, dtype=complex)
    spectrum = scipy.fft.fft(values, n=2 * n, axis=-1)
    spectrum *= _hilbert_kernel_fft(n)
    out = 0.5 * values
    out += scipy.fft.ifft(spectrum, axis=-1, overwrite_x=True)[..., :n]
    return out


def _tail_fit(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Least-squares fit of (a/(s + i a))^k, k = 1..K, to the edge samples.

    Each basis function is analytic above the line and decays, so C+ of
    the fit is the fit itself and C- of it is zero.
    """
    s = grid.points
    basis = (_TAIL_SCALE / (s + 1j * _TAIL_SCALE))[:, None] ** np.arange(1, _TAIL_TERMS + 1)
    edge = np.abs(s) >= _TAIL_REGION * grid.half_width
    coef = np.linalg.lstsq(basis[edge], values[edge], rcond=None)[0]
    return basis @ coef


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
    """C+ of the fitted tail (the tail itself) plus the kernel on the rest.

    Works along the sample axis (axis 0); matrix-valued samples are
    fitted and projected entry by entry.
    """
    if not isinstance(f.grid, SpectralGrid):
        raise InvalidArgumentError("the Cauchy projections expect a function on a SpectralGrid")
    _check_decay(f)
    values = np.asarray(f.values, complex)
    columns = values.reshape(len(values), -1)
    tail = _tail_fit(columns, f.grid)
    out = tail + _cauchy_plus_batch((columns - tail).T, f.grid).T
    return out.reshape(values.shape)


def cauchy_plus(f: GridFunction) -> GridFunction:
    """Boundary value from above of the Cauchy integral of f."""
    return GridFunction(f.grid, _completed_cauchy_plus(f))


def cauchy_minus(f: GridFunction) -> GridFunction:
    """Boundary value from below; C- = C+ - id exactly at grid points."""
    return GridFunction(f.grid, _completed_cauchy_plus(f) - f.values)


def gridfunction_to_csv(f: GridFunction, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coordinate", "re", "im"])
        for x, v in zip(f.grid.points, f.values):
            writer.writerow([f"{x:.17g}", f"{v.real:.17g}", f"{np.imag(v):.17g}"])


def gridfunction_to_json(f: GridFunction) -> str:
    grid = f.grid
    meta = {
        "kind": type(grid).__name__,
        "half_width": grid.half_width,
        "point_count": grid.point_count,
    }
    if isinstance(grid, SpectralGrid):
        meta["z_min"] = grid.z_min
        meta["padding"] = grid.padding
    return json.dumps(
        {
            "grid": meta,
            "re": [float(v) for v in np.real(f.values)],
            "im": [float(v) for v in np.imag(f.values)],
        }
    )
