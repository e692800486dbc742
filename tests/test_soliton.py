import numpy as np
import pytest

from wkist.errors import AT_SINGULARITY, InvalidArgumentError, RegimeError
from wkist.lattice import make_spatial_grid
from wkist.soliton import (
    SINGULARITY_RADIUS,
    SolitonParams,
    soliton_epsilon,
    soliton_pde_residual,
    soliton_peak,
    soliton_q,
    soliton_qh,
    soliton_slope,
)

from soliton_moments import soliton_m1_entries

SMOOTH = SolitonParams(3.0, 1.0)
BURSTING = SolitonParams(1.0, 1.0)


def test_params_classify_regimes():
    assert not SMOOTH.bursting and not SMOOTH.looped
    assert BURSTING.bursting and not BURSTING.looped
    loop = SolitonParams(0.3, 1.0)
    assert loop.looped and not loop.bursting
    assert SMOOTH.speed == 12.0
    assert SMOOTH.modulus_sq == 10.0
    with pytest.raises(InvalidArgumentError):
        SolitonParams(1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        SolitonParams(1.0, -2.0)


@pytest.mark.parametrize("xi, eta", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                     (1.0, np.inf), (-np.inf, 1.0)],
                         ids=["nan-xi", "nan-eta", "infinite-xi", "infinite-eta",
                              "negative-infinite-xi"])
def test_params_refuse_non_finite_xi_or_eta(xi, eta):
    # a NaN compares false with everything, so eta = NaN passed eta > 0,
    # and an infinite eta was classified as a looped soliton
    with pytest.raises(InvalidArgumentError, match="finite"):
        SolitonParams(xi, eta)


def test_peak_closed_form():
    # A = 1/10: sqrt(4 A (1-A)) / (1 - 2A) = 0.6/0.8 = 3/4 exactly
    assert abs(soliton_peak(SMOOTH) - 0.75) < 1e-15
    assert soliton_peak(BURSTING) == np.inf
    assert soliton_peak(SolitonParams(0.3, 1.0)) == np.inf
    # the closed form is attained on a dense grid
    x = np.linspace(-1.0, 1.0, 200001)
    assert abs(np.max(np.abs(soliton_qh(x, 0.0, SMOOTH))) - 0.75) < 1e-9


def test_slope_is_the_moment_derivative():
    x = np.linspace(-3.0, 3.0, 101)
    d = 1e-4
    up, _ = soliton_m1_entries(x + d, 0.2, SMOOTH)
    dn, _ = soliton_m1_entries(x - d, 0.2, SMOOTH)
    gap = (up - dn) / (2 * d) - soliton_slope(x, 0.2, SMOOTH)
    assert np.max(np.abs(gap)) < 1e-6


def test_diagonal_moment_integrates_the_hodograph_density():
    # Im m1_11 grows with rate 1 - 1/<q_H>: the same density whose
    # integral converts hodograph length back to physical length
    x = np.linspace(-3.0, 3.0, 101)
    d = 1e-4
    _, up = soliton_m1_entries(x + d, 0.2, SMOOTH)
    _, dn = soliton_m1_entries(x - d, 0.2, SMOOTH)
    rate = (up.imag - dn.imag) / (2 * d)
    qh = soliton_qh(x, 0.2, SMOOTH)
    assert np.max(np.abs(rate - (1.0 - 1.0 / np.sqrt(1.0 + np.abs(qh) ** 2)))) < 1e-6


def test_epsilon_satisfies_its_fixed_point():
    x = np.linspace(-5.0, 5.0, 401)
    for t in (0.0, 0.3):
        eps = soliton_epsilon(x, t, SMOOTH)
        amp = SMOOTH.eta / SMOOTH.modulus_sq
        g = amp * (np.tanh(2.0 * SMOOTH.eta * (x - 4.0 * SMOOTH.xi * t + eps)) + 1.0)
        assert np.max(np.abs(eps - g)) < 1e-12
        assert np.all(eps >= 0.0) and np.all(eps <= 2 * amp + 1e-15)


def test_epsilon_rejects_looped_parameters():
    # the fold makes the shift multivalued; refusing beats silently
    # returning one branch
    with pytest.raises(RegimeError):
        soliton_epsilon(np.linspace(-1, 1, 11), 0.0, SolitonParams(0.2, 1.0))
    with pytest.raises(RegimeError):
        soliton_q(0.0, 0.0, SolitonParams(0.2, 1.0))


def test_physical_frame_peak_point():
    # chi = 0 maps to x = -eps there; for the smooth soliton at t = 0
    # that is x = -A/eta = -0.1 exactly, and |q| = 3/4 there
    assert abs(abs(soliton_q(-0.1, 0.0, SMOOTH)) - 0.75) < 1e-12
    assert abs(soliton_epsilon(-0.1, 0.0, SMOOTH) - 0.1) < 1e-13


def test_bursting_scalar_hits_the_singularity_marker():
    # at t = 0 the burst sits at x = -1/2 (eps there is exactly 1/2)
    v = soliton_q(-0.5, 0.0, BURSTING)
    assert v is AT_SINGULARITY
    assert not v                      # falsy marker
    assert v.kind == "at-singularity"
    # the burst travels at speed 4 xi
    assert soliton_q(4.0 * 0.3 - 0.5, 0.3, BURSTING) is AT_SINGULARITY
    # points resolvably away from it evaluate to finite numbers
    near = soliton_q(-0.5 + 1e-4, 0.0, BURSTING)
    assert np.isfinite(near) and abs(near) > 100.0
    far = soliton_q(-1.5, 0.0, BURSTING)
    assert np.isfinite(far) and abs(far) < 2.0


def test_bursting_amplitude_blows_up_like_chi_squared():
    # |q_H(chi)| ~ 1/chi^2 near the burst
    assert abs(soliton_qh(0.5e-4, 0.0, BURSTING)) > 1e7
    assert abs(soliton_qh(-0.5e-4, 0.0, BURSTING)) > 1e7
    v = soliton_qh(0.05, 0.0, BURSTING)
    assert np.isfinite(v) and abs(v) < 1e3
    # and the slope modulus touches 1 there
    assert abs(soliton_slope(1e-6, 0.0, BURSTING)) > 0.999999


def test_bursting_array_inputs_stay_numeric():
    vals = np.asarray(soliton_q(np.array([-0.5, 0.0, 1.0]), 0.0, BURSTING))
    assert vals.shape == (3,)
    assert np.isfinite(vals).all()
    assert abs(vals[0]) > 1e6         # unresolvably close to the burst
    assert abs(vals[1]) < 2.0


def test_singularity_radius_reflects_root_degeneracy():
    # the burst location is a triply degenerate root of the shift
    # equation, so it cannot be placed better than ~ eps_machine^(1/3)
    assert SINGULARITY_RADIUS > np.finfo(float).eps ** (1.0 / 3.0)


def test_closed_form_solves_the_flow():
    grid = make_spatial_grid(30.0, 2048)
    out = soliton_pde_residual(SMOOTH, grid, t_center=0.1)
    assert len(out["sups"]) == 3
    # centered time differences: quartering per halving of dt
    for ratio in out["ratios"]:
        assert ratio > 3.5
    assert out["sups"][-1] < 5e-3
