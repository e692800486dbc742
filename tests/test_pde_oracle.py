import numpy as np
import pytest

import wkist.pde_oracle
from wkist.errors import EvolutionDivergedError, InvalidArgumentError, ResolutionExceededError
from wkist.lattice import GridFunction, make_spatial_grid
from wkist.lax import make_potential
from wkist.pde_oracle import evolve, step_count, wki_rhs


def gaussian(grid, amp, momentum=0.0):
    return amp * np.exp(-grid.points**2) * np.exp(1j * momentum * grid.points)


def test_rhs_linearizes_to_free_dispersion():
    grid = make_spatial_grid(20.0, 512)
    q0 = gaussian(grid, 1e-4, momentum=2.0)
    k = 2 * np.pi * np.fft.fftfreq(grid.point_count, d=grid.spacing)
    linear = 1j * np.fft.ifft(-(k**2) * np.fft.fft(q0))
    rhs = wki_rhs(make_potential(grid, q0))
    # the nonlinear correction enters at cubic order in the amplitude
    assert np.max(np.abs(rhs.values - linear)) < 1e-10
    assert np.max(np.abs(linear)) > 1e-4


def test_small_amplitude_follows_the_free_propagator():
    grid = make_spatial_grid(20.0, 512)
    q0 = gaussian(grid, 1e-5)
    run = evolve(GridFunction(grid, q0), 0.1)
    k = 2 * np.pi * np.fft.fftfreq(grid.point_count, d=grid.spacing)
    free = np.fft.ifft(np.exp(-1j * k**2 * 0.1) * np.fft.fft(q0))
    assert np.max(np.abs(run.final.values - free)) < 1e-13


def test_e1_is_conserved():
    grid = make_spatial_grid(20.0, 1024)
    run = evolve(GridFunction(grid, gaussian(grid, 0.05)), 0.1)
    assert run.e1_drift < 1e-12
    assert run.steps > 100


def test_flow_reverses_under_conjugation():
    # if q(x, t) solves the flow then conj(q)(x, -t) does too
    grid = make_spatial_grid(20.0, 1024)
    q0 = gaussian(grid, 0.05)
    fwd = evolve(GridFunction(grid, q0), 0.1)
    back = evolve(GridFunction(grid, np.conj(fwd.final.values)), 0.1)
    assert np.max(np.abs(np.conj(back.final.values) - q0)) < 1e-12


def test_negative_times_integrate_backward():
    grid = make_spatial_grid(20.0, 512)
    q0 = gaussian(grid, 0.02)
    fwd = evolve(GridFunction(grid, q0), 0.05)
    back = evolve(fwd.final, -0.05)
    assert back.times[-1] == -0.05
    assert np.max(np.abs(back.final.values - q0)) < 1e-12


def test_guard_trips_on_blowup(monkeypatch):
    grid = make_spatial_grid(20.0, 256)
    monkeypatch.setattr(wkist.pde_oracle, "BLOWUP_GUARD", 0.01)
    with pytest.raises(EvolutionDivergedError) as info:
        evolve(GridFunction(grid, gaussian(grid, 0.05)), 0.1)
    err = info.value
    assert err.kind == "evolution-diverged"
    assert err.time is not None and err.time > 0
    assert err.value is not None and err.value > 0.01
    assert err.location is not None


def test_nan_span_is_refused():
    # a NaN span counted as a single step
    grid = make_spatial_grid(20.0, 256)
    with pytest.raises(InvalidArgumentError, match="T must be a finite number"):
        step_count(grid, float("nan"))
    with pytest.raises(InvalidArgumentError, match="T must be a finite number"):
        evolve(GridFunction(grid, gaussian(grid, 0.01)), float("nan"))


def test_step_budget_is_checked_before_the_first_step():
    grid = make_spatial_grid(20.0, 256)
    q = GridFunction(grid, gaussian(grid, 0.01))
    # 1e302 steps: refused at once instead of never finishing
    with pytest.raises(ResolutionExceededError):
        evolve(q, 1e300)
    with pytest.raises(ResolutionExceededError):
        step_count(grid, 1e300)


def test_step_count_is_the_steps_evolve_takes():
    grid = make_spatial_grid(20.0, 256)
    q = GridFunction(grid, gaussian(grid, 0.01))
    for T in (0.01, -0.02):
        assert step_count(grid, T) == evolve(q, T).steps


def test_run_keeps_the_start_and_the_end():
    grid = make_spatial_grid(20.0, 256)
    q0 = gaussian(grid, 0.02)
    run = evolve(GridFunction(grid, q0), 0.01)
    assert np.array_equal(run.times, [0.0, 0.01])
    assert run.snapshots.shape == (2, 256) and np.array_equal(run.snapshots[0], q0)
    assert len(run.e1) == 2 and run.steps == step_count(grid, 0.01) > 1
    # t = 0 takes no step and returns the start
    still = evolve(GridFunction(grid, q0), 0.0)
    assert still.steps == 0 and np.array_equal(still.final.values, q0)
