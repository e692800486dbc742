"""Closed-form one-soliton solutions, in both frames.

A single spectral point lambda_1 = xi + i eta (eta > 0) produces, with
Phi = -2 xi x_H + 4 (xi^2 - eta^2) t  and  chi = 2 eta x_H - 8 xi eta t,
A = eta^2 / (xi^2 + eta^2):

    s(x_H, t)    = (2 eta / (xi^2+eta^2)) e^{-i Phi} sech(chi)
                   (eta tanh(chi) - i xi)
    <q_H>        = cosh^2(chi) / (cosh^2(chi) - 2A)
    |q_H|^2      = (4 eta^2/(xi^2+eta^2)) (cosh^2 - A) / (cosh^2 - 2A)^2
    q_H          = <q_H> s
    m1_12        = -(eta/(xi^2+eta^2)) e^{-i Phi} sech(chi)
    m1_11        = i (eta/(xi^2+eta^2)) (tanh(chi) + 1)

The physical-frame potential is q(x, t) = q_H(x + eps(x, t), t) where
the hodograph shift solves

    eps = (eta/(xi^2+eta^2)) (tanh(2 eta (x - 4 xi t + eps)) + 1),

a scalar fixed point with the unique root in [0, 2 eta/(xi^2+eta^2)].

Three regimes, by the spectral angle:
* |xi| > eta: smooth traveling soliton, peak amplitude
  sqrt((4 eta^2/(xi^2+eta^2)) (1-A)) / (1-2A), attained at chi = 0.
* |xi| = eta: bursting soliton -- the amplitude blows up like chi^{-2}
  at chi = 0 while the slope |s| touches 1 there.
* |xi| < eta: the hodograph map folds (loop profile); the closed forms
  above still evaluate but have poles at cosh^2(chi) = 2A and the
  profile is not the graph of a function of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AT_SINGULARITY, InvalidArgumentError, RegimeError, check_number
from .lattice import SpatialGrid
from .lax import make_potential
from .pde_oracle import wki_rhs

__all__ = [
    "SolitonParams",
    "soliton_epsilon",
    "soliton_q",
    "soliton_qh",
    "soliton_slope",
    "soliton_peak",
    "soliton_pde_residual",
    "check_resolved",
]

# At a burst (|xi| = eta, chi = 0) the fixed-point residual for the
# hodograph shift is cubically degenerate -- both the first and second
# derivatives of eps - g(eps) vanish at the root -- so the shift can only
# be located to about (machine epsilon)^(1/3) ~ 6e-6 there, however the
# root is polished.  The blow-up point is therefore only resolvable to
# that scale in chi, and the singularity radius reflects it (with a
# safety factor) rather than pretending to machine-precision placement.
SINGULARITY_RADIUS = 5e-5

EPSILON_RESIDUAL_TOL = 1e-12
RESIDUAL_DT = 1e-3
RESIDUAL_LEVELS = 3


@dataclass(frozen=True)
class SolitonParams:
    xi: float
    eta: float

    def __post_init__(self):
        check_number("xi", self.xi)
        check_number("eta", self.eta, 0.0, strict=True)
        # xi^2 + eta^2 scales every amplitude and phase, and must be a
        # normal float: neither overflow nor underflow
        modulus = np.hypot(self.xi, self.eta)
        if modulus > np.sqrt(np.finfo(float).max):
            raise InvalidArgumentError(
                f"xi^2 + eta^2 overflows at xi = {self.xi:g}, eta = {self.eta:g}")
        if modulus < np.sqrt(np.finfo(float).tiny):
            raise InvalidArgumentError(
                f"xi^2 + eta^2 underflows at xi = {self.xi:g}, eta = {self.eta:g}")

    @property
    def bursting(self) -> bool:
        return abs(self.xi) == self.eta

    @property
    def looped(self) -> bool:
        return abs(self.xi) < self.eta

    @property
    def modulus_sq(self) -> float:
        return self.xi**2 + self.eta**2

    @property
    def speed(self) -> float:
        return 4.0 * self.xi


def check_resolved(p: SolitonParams, grid: SpatialGrid):
    """Refuse a soliton whose phases turn by more than pi per cell of ``grid``.

    Phi turns by 2 |xi| h and chi by 2 eta h per cell of spacing h; beyond
    pi the grid samples neither the carrier e^{-i Phi} nor sech(chi), and
    at xi = 1e150 the phases themselves leave the range where cosh and the
    carrier are computed in floating point.
    """
    turn = 2.0 * max(abs(p.xi), p.eta) * grid.spacing
    if not turn <= np.pi:
        raise InvalidArgumentError(
            f"xi = {p.xi:g}, eta = {p.eta:g}: the soliton phases turn by {turn:.3g} rad per "
            "grid cell, more than pi; the grid does not resolve them (raise N or lower L)")


def _phases(p: SolitonParams, x_H, t):
    """Phi and chi at x_H and t; a t at which their t terms overflow is refused."""
    span = float(t)  # in Python floats, whose products overflow to inf without a warning
    drift_Phi, drift_chi = 4.0 * (p.xi**2 - p.eta**2) * span, -8.0 * p.xi * p.eta * span
    if not (np.isfinite(drift_Phi) and np.isfinite(drift_chi)):
        raise InvalidArgumentError(
            f"t = {t:g}: the soliton phases 4 (xi^2 - eta^2) t and 8 xi eta t overflow at "
            f"xi = {p.xi:g}, eta = {p.eta:g}")
    Phi = -2.0 * p.xi * np.asarray(x_H) + drift_Phi
    chi = 2.0 * p.eta * np.asarray(x_H) + drift_chi
    return Phi, chi


def _sech(chi):
    """sech(chi) = 2 e^{-|chi|} / (1 + e^{-2|chi|}), 0 where cosh(chi) overflows."""
    decay = np.exp(-np.abs(chi))
    return 2.0 * decay / (1.0 + decay * decay)


def soliton_slope(x_H, t: float, p: SolitonParams):
    """Reconstruction slope s(x_H, t)."""
    Phi, chi = _phases(p, x_H, t)
    amp = 2.0 * p.eta / p.modulus_sq
    return amp * np.exp(-1j * Phi) * _sech(chi) * (
        p.eta * np.tanh(chi) - 1j * p.xi
    )


def soliton_qh(x_H, t: float, p: SolitonParams):
    """Hodograph-frame potential q_H = <q_H> s.

    Bursting (or looped) parameters make this blow up where
    cosh^2(chi) = 2A; array inputs simply return huge/inf entries there.
    """
    _, chi = _phases(p, x_H, t)
    # cosh^2 / (cosh^2 - 2A) = 1 / (1 - 2A sech^2), with 1 = tanh^2 + sech^2
    metric = 1.0 / (np.tanh(chi) ** 2 + (1.0 - 2.0 * p.eta**2 / p.modulus_sq) * _sech(chi) ** 2)
    return metric * soliton_slope(x_H, t, p)


def soliton_peak(p: SolitonParams) -> float:
    """Maximum of |q| over space (attained where chi = 0)."""
    if p.bursting or p.looped:
        return np.inf
    A = p.eta**2 / p.modulus_sq
    return float(np.sqrt(4.0 * A * (1.0 - A)) / (1.0 - 2.0 * A))


def soliton_epsilon(x, t: float, p: SolitonParams):
    """Hodograph shift eps(x, t), vectorized over x.

    Bisection on eps - g(eps) over the bracket [0, 2 eta/(xi^2+eta^2)],
    finished with a few Newton steps; the result is checked to satisfy
    the fixed-point equation to ``EPSILON_RESIDUAL_TOL``.

    Looped parameters (|xi| < eta) are refused: the hodograph map folds
    there, the fixed point stops being unique, and whichever root the
    bracket happens to contain would silently pick one branch of a
    multivalued profile.
    """
    if p.looped:
        raise RegimeError(
            "the hodograph shift is not single-valued for looped "
            f"parameters (|xi| = {abs(p.xi):g} < eta = {p.eta:g})"
        )
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    amp = p.eta / p.modulus_sq
    shift = x - 4.0 * p.xi * t

    def g(eps):
        return amp * (np.tanh(2.0 * p.eta * (shift + eps)) + 1.0)

    lo = np.zeros_like(x)
    hi = np.full_like(x, 2.0 * amp)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        high_side = mid - g(mid) > 0.0
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
    eps = 0.5 * (lo + hi)
    for _ in range(4):
        arg = 2.0 * p.eta * (shift + eps)
        gp = amp * 2.0 * p.eta * _sech(arg) ** 2
        denom = 1.0 - gp
        step = np.where(np.abs(denom) > 1e-8, (eps - g(eps)) / np.where(
            np.abs(denom) > 1e-8, denom, 1.0), 0.0)
        eps = np.clip(eps - step, 0.0, 2.0 * amp)
    worst = float(np.max(np.abs(eps - g(eps))))
    if worst > EPSILON_RESIDUAL_TOL:
        raise InvalidArgumentError(
            f"hodograph shift fixed point residual {worst:.3e}; "
            "parameters may be in the looped regime"
        )
    return float(eps[0]) if scalar else eps


def soliton_q(x, t: float, p: SolitonParams):
    """Physical-frame potential q(x, t) = q_H(x + eps(x, t), t).

    For bursting parameters, a scalar x that lands within
    ``SINGULARITY_RADIUS`` of the blow-up point (chi = 0) returns the
    AT_SINGULARITY marker instead of a number; array inputs return
    whatever huge values the closed form produces there.
    """
    eps = soliton_epsilon(x, t, p)
    x_H = np.asarray(x, dtype=float) + eps
    if np.ndim(x) == 0 and p.bursting:
        _, chi = _phases(p, x_H, t)
        if abs(float(chi)) <= SINGULARITY_RADIUS:
            return AT_SINGULARITY
    values = soliton_qh(x_H, t, p)
    return complex(values) if np.ndim(x) == 0 else values


def soliton_pde_residual(p: SolitonParams, grid: SpatialGrid,
                         t_center: float = 0.1) -> dict:
    """Centered-difference check that the closed form solves the flow.

    Measures sup |i (q(t+dt) - q(t-dt)) / (2 dt) - i q_t| on the grid,
    q_t the flow's right-hand side at t (``pde_oracle.wki_rhs``), at
    ``RESIDUAL_LEVELS`` steps dt, halving from ``RESIDUAL_DT``; the
    residual is dominated by the O(dt^2) time-difference error, so
    successive ratios should approach 4.  Returns the steps, the sups
    and the ratios of successive sups, none over a sup of 0.  A soliton
    the grid does not resolve is refused (``check_resolved``).
    """
    check_resolved(p, grid)
    q_t = wki_rhs(make_potential(grid, soliton_q(grid.points, t_center, p))).values
    sups = []
    step = RESIDUAL_DT
    for _ in range(RESIDUAL_LEVELS):
        qp = soliton_q(grid.points, t_center + step, p)
        qm = soliton_q(grid.points, t_center - step, p)
        residual = 1j * (qp - qm) / (2.0 * step) - 1j * q_t
        sups.append(float(np.max(np.abs(residual))))
        step *= 0.5
    # a soliton off the grid leaves residuals of 0, which give no ratio
    ratios = [hi / lo for hi, lo in zip(sups, sups[1:]) if lo > 0.0]
    return {"steps": [RESIDUAL_DT * 0.5**i for i in range(RESIDUAL_LEVELS)],
            "sups": sups, "ratios": ratios}
