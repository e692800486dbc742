"""Lax-pair field quantities for the WKI spectral problem.

The spectral problem psi_x = [i*lam*sigma3 - lam*M(q)] psi is brought to
AKNS form by the eigenvector matrix G of the coefficient, a diagonal
gauge factor built from B, and the phase p(x) = x + int(<q> - 1).  The
pipelines read the sampled ``Potential`` (samples and profile) and E1.
The AKNS fields -- G, the gauge potentials Q and B, H = <q> - 1, and p
-- are public; no pipeline reads them, and the tests check a against
its large-lam limit from int H and int B (``tests/jost_checks.py``).
They take the spectral derivative of q (``_spectral_derivative``) when
they are built.  The gauge exponential itself is derived from B on
demand by ``cumulative_integral``.

Notation: <q> = sqrt(1 + |q|^2) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError
from .lattice import GridFunction, SpatialGrid, cumulative_integral

__all__ = [
    "Potential",
    "AknsFields",
    "make_potential",
    "eigvec_matrix",
    "akns_potentials",
    "conserved_E1",
]


@dataclass
class Potential:
    """Complex potential samples on a spatial grid.

    ``profile``, when present, is the analytic function the samples came
    from; the Jost propagator evaluates it at the Gauss points of its
    steps and locates a jump inside a cell with it, which keeps
    piecewise-constant profiles (box potentials) exactly resolved
    wherever their jumps sit.  Without it the samples' linear
    interpolant stands in.
    """

    grid: SpatialGrid
    q: np.ndarray
    profile: Optional[Callable] = None


def make_potential(grid: SpatialGrid, q) -> Potential:
    """Build a Potential from samples or from a callable profile."""
    profile = None
    if callable(q):
        profile = q
        samples = np.asarray(q(grid.points), dtype=complex)
    else:
        samples = np.asarray(q, dtype=complex)
    if samples.shape != (grid.point_count,):
        raise InvalidArgumentError("potential samples must match the grid")
    if not np.all(np.isfinite(samples)):
        raise InvalidArgumentError("potential samples must be finite")
    return Potential(grid, samples, profile)


def _spectral_derivative(p: Potential) -> np.ndarray:
    """q_x of the samples, spectrally, on the periodic truncation of the grid."""
    k = 2.0 * np.pi * np.fft.fftfreq(len(p.q), d=p.grid.spacing)
    return np.fft.ifft(1j * k * np.fft.fft(p.q))


@dataclass
class AknsFields:
    """Gauge-transform fields sampled over the grid.

    ``B`` is purely imaginary up to roundoff; ``H = <q> - 1 >= 0``;
    ``p`` is x + cumulative integral of H from the left end (slope <q>,
    hence nondecreasing); ``G`` holds the unimodular eigenvector matrix
    per point, shape (N, 2, 2).
    """

    Q: np.ndarray
    B: np.ndarray
    H: np.ndarray
    p: np.ndarray
    G: np.ndarray


def eigvec_matrix(q_value) -> np.ndarray:
    """Unimodular eigenvector matrix of the spectral coefficient.

    G = [[1 + <q>, -i q], [-i conj(q), 1 + <q>]] / (sqrt(2) (<q>^2 + <q>)^(1/2)),
    with det G = 1; G diagonalizes i*lam*sigma3 - lam*M(q) to
    diag(i lam <q>, -i lam <q>).  Accepts a scalar or an array of q
    values; an array input yields shape (..., 2, 2).
    """
    q = np.asarray(q_value, dtype=complex)
    if not np.all(np.isfinite(q)):
        raise InvalidArgumentError("q must be finite")
    w = np.sqrt(1.0 + np.abs(q) ** 2)
    pref = 1.0 / (np.sqrt(2.0) * np.sqrt(w * w + w))
    out = np.empty(q.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = pref * (1.0 + w)
    out[..., 0, 1] = pref * (-1j * q)
    out[..., 1, 0] = pref * (-1j * np.conj(q))
    out[..., 1, 1] = pref * (1.0 + w)
    return out


def akns_potentials(p: Potential) -> AknsFields:
    """Gauge potentials Q, B plus H, p, and G from a sampled potential."""
    q, q_x = p.q, _spectral_derivative(p)
    w = np.sqrt(1.0 + np.abs(q) ** 2)
    denom = 4.0 * (w * w + w)
    w_x = np.real(np.conj(q) * q_x) / w
    Q = -1j * (q * w_x - q_x * (1.0 + w)) / denom
    B = (q_x * np.conj(q) - q * np.conj(q_x)) / denom
    H = w - 1.0
    p_samples = p.grid.points + np.real(
        cumulative_integral(GridFunction(p.grid, H)).values
    )
    return AknsFields(Q=Q, B=B, H=H, p=p_samples, G=eigvec_matrix(q))


def conserved_E1(p: Potential) -> float:
    """First conserved functional, int (<q> - 1) dx >= 0 (trapezoid)."""
    H = np.sqrt(1.0 + np.abs(p.q) ** 2) - 1.0
    return float(np.trapezoid(H, dx=p.grid.spacing))

