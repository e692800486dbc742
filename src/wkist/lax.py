"""The sampled potential of the WKI spectral problem and its E1.

The spectral problem is psi_x = [i*lam*sigma3 - lam*M(q)] psi.  The
pipelines read the sampled ``Potential`` (samples and profile) and the
first conserved functional E1 = int (<q> - 1) dx.  No pipeline reads
the AKNS gauge form: the large-lam check of a (``tests/jost_checks.py``)
takes int H from E1 and computes int B itself.

Notation: <q> = sqrt(1 + |q|^2) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError
from .lattice import SpatialGrid

__all__ = ["Potential", "make_potential", "conserved_E1"]


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


def conserved_E1(p: Potential) -> float:
    """First conserved functional, int (<q> - 1) dx >= 0 (trapezoid)."""
    H = np.sqrt(1.0 + np.abs(p.q) ** 2) - 1.0
    return float(np.trapezoid(H, dx=p.grid.spacing))

