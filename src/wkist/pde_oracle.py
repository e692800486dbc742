"""Direct pseudo-spectral integrator for the flow, independent of the
scattering machinery.

The evolution equation in the physical frame is

    i q_t + d_xx ( q / sqrt(1 + |q|^2) ) = 0,

integrated as q_t = i d_xx(q/<q>) with spectral x-derivatives on the
periodic extension of the grid (legitimate for decaying potentials on a
wide enough box) and classical fourth-order Runge-Kutta in time.  The
stiffness is that of a free Schroedinger equation, so the stable step
scales with the grid spacing squared: the step is at most ``CFL``
times h^2.

This module deliberately shares nothing with the scattering transform
beyond the grid types -- it is the cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (EvolutionDivergedError, InvalidArgumentError, ResolutionExceededError,
                     check_number)
from .lattice import GridFunction
from .lax import Potential, conserved_E1, make_potential

__all__ = ["EvolutionRun", "wki_rhs", "step_count", "evolve"]

# the RK4 step in units of h^2; every run takes this one
CFL = 0.2
BLOWUP_GUARD = 1e3
# RK4 steps one run may take; criterion 7 (t = 0.5, N = 2048) takes ~6.6k
STEP_CAP = 10**6


def _wavenumbers(grid) -> np.ndarray:
    """2 pi fftfreq of the grid; a grid whose N k^2 overflows is refused.

    The spectral second derivative scales the N-point transform of the
    flux, |flux| < 1, by k^2 up to (pi/h)^2.
    """
    n, h = grid.point_count, grid.spacing
    if not h > np.pi * np.sqrt(n / np.finfo(float).max):
        raise InvalidArgumentError(
            f"L = {grid.half_width:g}, N = {n}: the grid's wavenumbers reach pi/h, whose "
            "square the spectral derivative cannot carry (raise L or lower N)")
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _rhs(values: np.ndarray, k2: np.ndarray) -> np.ndarray:
    flux = values / np.sqrt(1.0 + np.abs(values) ** 2)
    return 1j * np.fft.ifft(-k2 * np.fft.fft(flux))


def wki_rhs(p: Potential) -> GridFunction:
    """Time derivative of the potential under the flow."""
    k2 = _wavenumbers(p.grid) ** 2
    return GridFunction(p.grid, _rhs(np.asarray(p.q, dtype=complex), k2))


@dataclass
class EvolutionRun:
    grid: object
    times: np.ndarray            # (0, T)
    snapshots: np.ndarray        # (2, N) complex: q at 0 and at T
    dt: float
    steps: int
    e1: np.ndarray               # E1 at 0 and at T
    diagnostics: dict = field(default_factory=dict)

    @property
    def final(self) -> GridFunction:
        return GridFunction(self.grid, self.snapshots[-1])

    @property
    def e1_drift(self) -> float:
        return float(np.max(np.abs(self.e1 - self.e1[0])))


def _schedule(grid, T):
    """The RK4 time step ``CFL`` * h^2 and the number of steps to T.

    Refuses a span T that is not a finite number, a time step that is
    not a finite number > 0, and a step count above ``STEP_CAP``,
    counted in floating point (ResolutionExceededError).
    """
    check_number("T", T)
    dt = check_number("time step", CFL * grid.spacing**2, 0.0, strict=True)
    count = max(1.0, np.ceil(abs(T) / dt)) if T else 0.0
    if not count <= STEP_CAP:
        raise ResolutionExceededError(
            f"the flow needs {count:.3g} RK4 steps (> {STEP_CAP}); the time step "
            f"{dt:.3g} is too small for this span"
        )
    return dt, count


def step_count(grid, T: float) -> int:
    """The RK4 steps ``evolve`` would take on ``grid`` to time T, without taking them.

    Raises what ``evolve`` raises before its first step, so a caller can
    refuse a run before paying for anything else.
    """
    return int(_schedule(grid, T)[1])


def evolve(q0: GridFunction, T: float) -> EvolutionRun:
    """Integrate the flow from q0 to time T (T may be negative).

    The step is T / n for the fewest n steps no longer than ``CFL`` * h^2,
    so T is hit exactly.  Amplitudes beyond ``BLOWUP_GUARD``, or
    non-finite values, abort with EvolutionDivergedError carrying the
    time and location of the blow-up.  A step count above ``STEP_CAP``,
    counted in floating point before the first step, raises
    ResolutionExceededError (``step_count``).
    """
    grid = q0.grid
    dt, count = _schedule(grid, T)
    k2 = _wavenumbers(grid) ** 2
    q = start = np.asarray(q0.values, dtype=complex)
    e1_start = conserved_E1(make_potential(grid, start))
    h = T / max(count, 1.0)
    t_now = 0.0
    for _ in range(int(count)):
        k1 = _rhs(q, k2)
        k2_ = _rhs(q + 0.5 * h * k1, k2)
        k3 = _rhs(q + 0.5 * h * k2_, k2)
        k4 = _rhs(q + h * k3, k2)
        q = q + (h / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
        t_now += h
        peak = np.max(np.abs(q))
        if not np.isfinite(peak) or peak > BLOWUP_GUARD:
            j = int(np.nanargmax(np.abs(q)))
            raise EvolutionDivergedError(
                f"amplitude {peak:.3g} at t = {t_now:.6g}, x = {grid.points[j]:.6g}",
                time=t_now, location=float(grid.points[j]), value=float(peak),
            )
    return EvolutionRun(
        grid=grid, times=np.array([0.0, T]), snapshots=np.array([start, q]), dt=dt,
        steps=int(count), e1=np.array([e1_start, conserved_E1(make_potential(grid, q))]),
        diagnostics={"cfl": CFL, "guard": BLOWUP_GUARD},
    )
