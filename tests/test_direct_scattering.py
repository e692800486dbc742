import numpy as np
import pytest

from wkist import direct_scattering
from wkist.direct_scattering import (
    LAM_STEP_FACTOR,
    LOCAL_ERROR_BOUND,
    _halving_miss,
    _lagrange_interpolant,
    _lam_lattice,
    _midpoint_values,
    _sub_values,
    _wronskians,
    check_a_asymptotics,
    evolve_reflection,
    reflection_coefficient,
)
from wkist.errors import (
    InvalidArgumentError,
    PossibleBoundStateError,
    ResolutionExceededError,
)
from wkist.lattice import make_spatial_grid, make_spectral_grid
from wkist.lax import make_potential
from wkist.rhp import suggest_z_min

from jost_checks import b_from_integral, propagate_jost, symmetry_defect, transition_matrix

# Reference values for the box potential q = 0.1 on [-1, 1], lam = 2,
# from the exact piecewise-constant propagator in 40-digit arithmetic
# (cross-checked against an adaptive ODE solve to 1e-12).  On a grid
# whose cells are constant across the box, the midpoint scheme is exact.
BOX_A = 0.99691014207005984865 - 0.017452116303854008882j
BOX_B = 0.076587154760898656498 + 0.0j
BOX_PSI_MINUS_00 = 0.99586582594074452404 + 0.011844225803639022634j
BOX_PSI_MINUS_01 = 0.037478570945041210608 - 0.081892171532989985437j


def box_potential(amp=0.1, L=4.0, N=512):
    grid = make_spatial_grid(L, N)
    return make_potential(
        grid, lambda x: amp * (np.abs(x) <= 1.0).astype(complex)
    )


def gaussian_potential(L=20.0, N=2048, amp=0.05):
    grid = make_spatial_grid(L, N)
    return make_potential(grid, lambda x: amp * np.exp(-(x**2)))


def test_transition_matrix_against_box_reference():
    T = transition_matrix(box_potential(), 2.0)
    assert abs(T[0, 0] - BOX_A) < 1e-12
    assert abs(T[1, 0] - BOX_B) < 1e-12


def test_box_jost_solution_at_origin():
    p = box_potential()
    sol = propagate_jost(p, 2.0, "-")
    at_zero = sol.psi[p.grid.point_count // 2]
    assert abs(at_zero[0, 0] - BOX_PSI_MINUS_00) < 1e-12
    assert abs(at_zero[0, 1] - BOX_PSI_MINUS_01) < 1e-12
    # the conjugation symmetry ties the second row to the first
    assert abs(at_zero[1, 0] + np.conj(at_zero[0, 1])) < 1e-13
    assert abs(at_zero[1, 1] - np.conj(at_zero[0, 0])) < 1e-13


def test_jost_determinant_and_normalization():
    p = gaussian_potential(N=1024)
    sol = propagate_jost(p, 2.0, "-")
    assert sol.det_defect < 1e-12
    start = sol.psi[0]
    x0 = p.grid.points[0]
    assert abs(start[0, 0] - np.exp(2j * x0)) < 1e-14
    assert abs(start[0, 1]) == 0.0


def test_jost_sides_disagree_inside_the_support():
    p = box_potential()
    left = propagate_jost(p, 2.0, "-")
    right = propagate_jost(p, 2.0, "+")
    mid = p.grid.point_count // 2
    assert np.max(np.abs(left.psi[mid] - right.psi[mid])) > 1e-3


def test_propagate_jost_rejects_bad_side():
    with pytest.raises(InvalidArgumentError):
        propagate_jost(gaussian_potential(N=256), 1.0, "up")


def test_unitarity_and_symmetry_on_the_sphere():
    # |a|^2 + |b|^2 = 1 and d = -conj(b), c = conj(a) are exact for the
    # scheme (unimodular factors, conjugation symmetry); only roundoff shows
    p = gaussian_potential(N=1024)
    for lam in (0.5, 1.0, 3.0, -2.0):
        T = transition_matrix(p, lam)
        a, b = T[0, 0], T[1, 0]
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-12
        assert symmetry_defect(T) < 1e-12


def test_reflection_coefficient_diagnostics_and_band():
    p = gaussian_potential()
    zgrid = make_spectral_grid(40.0, 2048, z_min=0.4)
    sd = reflection_coefficient(p, zgrid)
    assert sd.time == 0.0
    assert np.all(sd.r[~sd.active] == 0.0)
    assert np.all(np.abs(zgrid.points[sd.active]) >= 0.4)
    assert sd.diagnostics["unitarity_defect"] < 1e-10
    assert sd.diagnostics["det_defect"] < 1e-10
    assert sd.diagnostics["symmetry_defect"] < 1e-10
    assert sd.diagnostics["min_abs_a"] > 0.99
    # lam = -1/z: the active band maps to |lam| <= 1/z_min
    assert np.max(np.abs(sd.lam)) <= 1.0 / 0.4 + 1e-12


def test_lam_lattice_is_symmetric_covers_the_band_and_skips_zero():
    p = gaussian_potential()
    zgrid = make_spectral_grid(40.0, 4096, z_min=0.31)
    lam = -1.0 / zgrid.points[zgrid.active]
    nodes = _lam_lattice(p, lam)
    assert nodes.size < lam.size
    assert np.array_equal(nodes, -nodes[::-1])
    assert not np.any(nodes == 0.0)
    assert np.all(np.diff(nodes) > 0)
    # the end nodes cover the band's largest |lam|, and no node beyond them would
    step = LAM_STEP_FACTOR / p.grid.half_width
    assert nodes[-1] >= np.max(np.abs(lam)) > nodes[-1] - step
    assert step == pytest.approx(np.pi / (16 * 20.0), rel=1e-15)
    assert np.allclose(np.diff(nodes), step, rtol=0, atol=1e-12)
    assert nodes[nodes.size // 2] == pytest.approx(step / 2, rel=1e-15)


# The default roundtrip anchor, and the box anchor of the benchmark's
# forward scan, both on the default grids with the CLI's z_min.
FORWARD_ANCHORS = {
    "gaussian": (lambda x: 0.05 * np.exp(-(x**2)), 0.0),
    "box": (lambda x: 0.5 * (np.abs(x) <= 1.0) * np.exp(0.25j * x), 0.25),
}


@pytest.mark.parametrize("name", list(FORWARD_ANCHORS))
def test_lattice_reflection_matches_the_direct_march(name):
    profile, t = FORWARD_ANCHORS[name]
    p = make_potential(make_spatial_grid(20.0, 2048), profile)
    zgrid = make_spectral_grid(40.0, 4096, z_min=suggest_z_min(40.0, 4096, window=6.0, t_max=t))
    sd = reflection_coefficient(p, zgrid)
    a, b, *_ = _wronskians(p, sd.lam)
    miss = np.max(np.abs(sd.r[sd.active] - b / a))
    estimate = sd.diagnostics["spectral_lattice_error_estimate"]
    assert 0.0 < estimate < 1e-6
    assert miss <= estimate
    assert miss < 1e-8
    # a and b themselves, which coefficients.csv carries
    assert np.max(np.abs(sd.a - a)) < 1e-8
    assert np.max(np.abs(sd.b - b)) < 1e-8


@pytest.mark.parametrize("name", list(FORWARD_ANCHORS))
def test_band_rows_of_the_forward_anchors_are_unitary(name):
    # the band's a and b, the rows coefficients.csv carries, stay on the
    # sphere |a|^2 + |b|^2 = 1 that the lattice's Wronskians keep to
    # rounding; the interpolant from the lattice moves them by less than 1e-11
    profile, t = FORWARD_ANCHORS[name]
    p = make_potential(make_spatial_grid(20.0, 2048), profile)
    zgrid = make_spectral_grid(40.0, 4096, z_min=suggest_z_min(40.0, 4096, window=6.0, t_max=t))
    sd = reflection_coefficient(p, zgrid)
    assert sd.lam.size == np.count_nonzero(sd.active)
    assert np.max(np.abs(np.abs(sd.a) ** 2 + np.abs(sd.b) ** 2 - 1.0)) < 1e-11


def test_band_no_larger_than_the_lattice_is_interpolated_from_it():
    # a band of 125 lam under a lattice of 164 is not marched itself: a and b
    # come from the lattice's Wronskians through the interpolant, as for a
    # band larger than its lattice, and the estimate is the lattice's own
    p = gaussian_potential()
    zgrid = make_spectral_grid(40.0, 128, z_min=1.0)
    lam = -1.0 / zgrid.points[zgrid.active]
    nodes = _lam_lattice(p, lam)
    assert lam.size <= nodes.size
    sd = reflection_coefficient(p, zgrid)
    a, b, _, _, det_defect = _wronskians(p, nodes)
    band_a, band_b = _lagrange_interpolant(nodes, np.stack([a, b], axis=1))(lam).T
    assert_bitwise(sd.a, band_a)
    assert_bitwise(sd.b, band_b)
    assert_bitwise(sd.r[sd.active], band_b / band_a)
    assert sd.diagnostics["det_defect"] == det_defect
    assert sd.diagnostics["spectral_lattice_error_estimate"] == _halving_miss(nodes, b / a)


def test_reflection_scales_linearly_at_small_amplitude():
    zgrid = make_spectral_grid(40.0, 1024, z_min=0.5)
    r1 = reflection_coefficient(gaussian_potential(N=1024, amp=0.01), zgrid)
    r2 = reflection_coefficient(gaussian_potential(N=1024, amp=0.02), zgrid)
    ratio = np.abs(r2.r[r2.active]) / np.abs(r1.r[r1.active])
    assert np.median(ratio) == pytest.approx(2.0, abs=0.01)


def test_bound_state_floor_triggers():
    p = gaussian_potential(N=1024)
    zgrid = make_spectral_grid(40.0, 1024, z_min=0.5)
    with pytest.raises(PossibleBoundStateError) as err:
        reflection_coefficient(p, zgrid, a_floor=0.9999)
    assert err.value.min_abs_a is not None
    assert err.value.min_abs_a < 0.9999


@pytest.mark.parametrize("a_floor", [float("nan"), -0.5, float("inf")])
def test_bad_a_floor_is_refused(a_floor):
    # a NaN floor would switch the bound-state guard off, a negative or
    # infinite one is no floor at all
    p = gaussian_potential(N=256)
    zgrid = make_spectral_grid(40.0, 256, z_min=0.9)
    with pytest.raises(InvalidArgumentError, match="a_floor"):
        reflection_coefficient(p, zgrid, a_floor=a_floor)


def test_substep_cap_rejects_unresolvable_lam():
    p = gaussian_potential(N=512)
    with pytest.raises(ResolutionExceededError):
        propagate_jost(p, 1e4, "-")


@pytest.mark.parametrize("lam", [1e150, 1e160])
def test_substep_guard_refuses_huge_lam_without_wrapping(lam):
    # the substep count is checked in floating point: 1e150 needs ~6e151
    # substeps, which an int cast wrapped to a small count, and 1e160
    # squares to inf
    p = gaussian_potential(L=10.0, N=256, amp=0.3)
    with pytest.raises(ResolutionExceededError):
        _wronskians(p, [lam])


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("call", [
    lambda p, lam: propagate_jost(p, lam, "-"),
    lambda p, lam: transition_matrix(p, lam),
    lambda p, lam: b_from_integral(p, lam),
    lambda p, lam: check_a_asymptotics(p, [1.0, lam]),
], ids=["propagate_jost", "transition_matrix", "b_from_integral", "check_a_asymptotics"])
def test_non_finite_lam_is_refused(call, lam):
    with pytest.raises(InvalidArgumentError, match="finite"):
        call(gaussian_potential(L=10.0, N=256, amp=0.3), lam)


def test_empty_lam_batch_is_refused():
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        check_a_asymptotics(gaussian_potential(L=10.0, N=256, amp=0.3), [])


def test_leftward_substeps_follow_the_path():
    # N = 1024 takes 10 substeps per cell near the peak; N = 32768 takes
    # none.  Substeps applied in increasing x on the leftward march put
    # max |r - r_ref| at 1.2e-3; in path order it is 2.6e-5.
    lams = np.linspace(-4.0, 4.0, 81)

    def r(N):
        grid = make_spatial_grid(20.0, N)
        p = make_potential(grid, lambda x: np.exp(-(((x - 0.3) / 0.7) ** 2) + 0.4j * x))
        a, b, *_ = _wronskians(p, lams)
        return b / a

    assert np.max(np.abs(r(1024) - r(32768))) < 1e-4


def test_evolution_phase_and_composition():
    p = gaussian_potential(N=1024)
    zgrid = make_spectral_grid(40.0, 1024, z_min=0.5)
    sd = reflection_coefficient(p, zgrid)
    sd_t = evolve_reflection(sd, 0.3)
    assert sd_t.time == 0.3
    assert np.max(np.abs(np.abs(sd_t.r) - np.abs(sd.r))) < 1e-15
    z = zgrid.points[sd.active]
    expected = sd.r[sd.active] * np.exp(4j * 0.3 / z**2)
    assert np.max(np.abs(sd_t.r[sd.active] - expected)) < 1e-15
    # composing two steps equals one big step
    twice = evolve_reflection(evolve_reflection(sd, 0.1), 0.2)
    assert np.max(np.abs(twice.r - sd_t.r)) < 1e-14
    assert twice.time == pytest.approx(0.3)
    # b evolves with the lam-frame phase
    lam = sd.lam
    assert np.max(np.abs(sd_t.b - sd.b * np.exp(4j * 0.3 * lam**2))) < 1e-15


def test_a_asymptotics_defect_decreases():
    p = gaussian_potential(N=1024)
    out = check_a_asymptotics(p, [1.0, 2.0, 4.0, 8.0])
    assert out["defects"][-1] < out["defects"][0]
    assert out["int_H"] > 0


def test_b_integral_form_agrees_with_wronskian():
    p = gaussian_potential(N=2048)
    lam = 1.5
    T = transition_matrix(p, lam)
    b_int = b_from_integral(p, lam)
    assert abs(b_int - T[1, 0]) < 1e-5


# ---------------------------------------------------------------------------
# Bitwise oracle: an interleaved (L, 2, 2) cell loop with a fresh cell
# exponential and a fresh 2x2 product on every (sub)step, substeps in path
# order, and det psi taken as |alpha|^2 + |beta|^2.  The propagator
# promises the same floating-point operations per element of the first
# column, and the second column by symmetry, so results must match bit
# for bit.

def _oracle_cell_exponential(h, lam_col, qm):
    w = np.sqrt(1.0 + np.abs(qm) ** 2)
    u = lam_col * w
    c = np.cos(h * u)
    sc = h * np.sinc(h * u / np.pi)
    E = np.empty(np.broadcast(lam_col, qm).shape + (2, 2), dtype=complex)
    E[..., 0, 0] = c + 1j * lam_col * sc
    lam_sc = (lam_col * sc).astype(complex)
    E[..., 0, 1] = qm * -lam_sc
    E[..., 1, 0] = np.conj(qm) * lam_sc
    E[..., 1, 1] = c - 1j * lam_col * sc
    return E


def _oracle_matmul2(E, P):
    out = np.empty(np.broadcast(E, P).shape, dtype=complex)
    out[..., 0, 0] = E[..., 0, 0] * P[..., 0, 0] + E[..., 0, 1] * P[..., 1, 0]
    out[..., 0, 1] = E[..., 0, 0] * P[..., 0, 1] + E[..., 0, 1] * P[..., 1, 1]
    out[..., 1, 0] = E[..., 1, 0] * P[..., 0, 0] + E[..., 1, 1] * P[..., 1, 0]
    out[..., 1, 1] = E[..., 1, 0] * P[..., 0, 1] + E[..., 1, 1] * P[..., 1, 1]
    return out


def _oracle_det_defect(psi):
    # det psi = |alpha|^2 + |beta|^2 for SU(2) psi, real parts summed first
    alpha, beta = psi[..., 0, 0], psi[..., 1, 0]
    det = (alpha.real**2 + beta.real**2) + (alpha.imag**2 + beta.imag**2)
    return float(np.max(np.abs(det - 1.0)))


def _oracle_march(p, lams, side, stop):
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    N, h = p.grid.point_count, p.grid.spacing
    if side == "-":
        start, cells, step = 0, range(0, stop), h
    else:
        start, cells, step = N - 1, range(N - 2, stop - 1, -1), -h
    qm_all = _midpoint_values(p, 0, N - 1)
    err = float(np.max(np.abs(lams))) ** 2 * np.abs(qm_all) * h**3
    msub = np.maximum(1, np.ceil(np.sqrt(err / LOCAL_ERROR_BOUND)).astype(int))
    psi = np.zeros((lams.size, 2, 2), dtype=complex)
    psi[:, 0, 0] = np.exp(1j * lams * p.grid.points[start])
    psi[:, 1, 1] = np.exp(-1j * lams * p.grid.points[start])
    yield start, psi
    for k in cells:
        m = msub[k]
        if m == 1:
            psi = _oracle_matmul2(_oracle_cell_exponential(step, lams, qm_all[k]), psi)
        else:
            # substeps in path order: decreasing x on the leftward march
            for qs in _sub_values(p, k, m)[::1 if side == "-" else -1]:
                psi = _oracle_matmul2(_oracle_cell_exponential(step / m, lams, qs), psi)
        yield (k + 1 if side == "-" else k), psi


def _oracle_wronskians(p, lams):
    halves = []
    for side in "-+":
        steps = _oracle_march(p, lams, side, p.grid.point_count // 2)
        _, psi = next(steps)
        defect = 0.0
        for _, psi in steps:
            defect = max(defect, _oracle_det_defect(psi))
        halves.append((psi, defect))
    (psim, ddm), (psip, ddp) = halves
    a = psip[..., 0, 0] * psim[..., 1, 1] - psim[..., 0, 1] * psip[..., 1, 0]
    b = psim[..., 0, 0] * psip[..., 1, 0] - psip[..., 0, 0] * psim[..., 1, 0]
    c = psim[..., 0, 0] * psip[..., 1, 1] - psip[..., 0, 1] * psim[..., 1, 0]
    d = psip[..., 0, 1] * psim[..., 1, 1] - psim[..., 0, 1] * psip[..., 1, 1]
    return a, b, c, d, max(ddm, ddp)


def _oracle_jost(p, lam, side):
    N = p.grid.point_count
    samples = np.empty((N, 2, 2), dtype=complex)
    for k, psi in _oracle_march(p, [lam], side, 0 if side == "+" else N - 1):
        samples[k] = psi[0]
    return samples, _oracle_det_defect(samples)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # also tells -0.0 from 0.0


def _cell_w(p):
    return np.sqrt(1.0 + np.abs(_midpoint_values(p, 0, p.grid.point_count - 1)) ** 2)


ORACLE_GRID = make_spatial_grid(10.0, 512)
ORACLE_LAMS = np.concatenate([np.linspace(-2.0, 2.0, 41), [-0.013, 0.37]])
ORACLE_INPUTS = {
    "box": make_potential(ORACLE_GRID, lambda x: 0.5 * (np.abs(x) <= 1.0) * np.exp(0.25j * x)),
    "gaussian": make_potential(ORACLE_GRID, lambda x: 0.05 * np.exp(-(x**2))),
    "sech": make_potential(ORACLE_GRID, lambda x: 1.0 / np.cosh((x - 0.1) / 1.1) * np.exp(0.2j * x)),
    "substepped": make_potential(ORACLE_GRID, lambda x: np.exp(-(x**2))),
    "samples-only": make_potential(ORACLE_GRID, 0.7 / np.cosh(ORACLE_GRID.points / 0.9)),
}


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_propagator_matches_the_interleaved_loop_bitwise(name):
    p = ORACLE_INPUTS[name]
    lams = ORACLE_LAMS * (4.0 if name == "substepped" else 1.0)
    w = _cell_w(p)
    repeats = int(np.sum(w[1:] == w[:-1]))
    h = p.grid.spacing
    substeps = np.max(lams) ** 2 * np.max(np.abs(p.q)) * h**3 > LOCAL_ERROR_BOUND
    # the inputs cover each path of the (h, w) reuse
    if name == "box":
        assert repeats > 0.9 * w.size and np.any(w > 1.0)
    elif name == "gaussian":
        assert np.mean(w == 1.0) > 0.5
    elif name == "sech":
        assert repeats == 0
    elif name == "substepped":
        assert substeps
    else:
        assert p.profile is None and substeps
    got = _wronskians(p, lams)
    want = _oracle_wronskians(p, lams)
    for g, o in zip(got[:4], want[:4]):
        assert_bitwise(g, o)
    assert got[4] == want[4]
    for lam, side in ((1.3, "-"), (-0.7, "+"), (0.0, "-")):
        sol = propagate_jost(p, lam, side)
        samples, defect = _oracle_jost(p, lam, side)
        assert_bitwise(sol.psi, samples)
        assert sol.det_defect == defect


# ---------------------------------------------------------------------------
# Blocks of the march: the columns and the det check are taken one block of
# cells at a time, BLOCK_SAMPLES // len(lams) cells to a block.  A
# substepped cell on a block boundary, a last block shorter than the rest
# and one-cell blocks must all keep the oracle's bytes.

def _spiked(nodes):
    """Samples-only input, 0.01 e^{0.3 i x} but 2 at ``nodes``: at the
    oracle's lams only the cells beside a spike are substepped."""
    q = 0.01 * np.exp(0.3j * ORACLE_GRID.points)
    q[nodes] = 2.0
    return make_potential(ORACLE_GRID, q)


def _substeps(p, lams):
    qm = _midpoint_values(p, 0, p.grid.point_count - 1)
    err = float(np.max(np.abs(lams))) ** 2 * np.abs(qm) * p.grid.spacing**3
    return np.ceil(np.sqrt(err / LOCAL_ERROR_BOUND)) > 1


def _oracle_cell_defects(p, lams, side):
    """det defect after each cell of the oracle's half march, in march order."""
    steps = _oracle_march(p, lams, side, p.grid.point_count // 2)
    next(steps)
    return np.array([_oracle_det_defect(psi) for _, psi in steps])


@pytest.mark.parametrize("per_block", [1, 60, 64, None], ids=["1", "60", "64", "default"])
def test_blocks_with_substeps_on_their_boundaries_match_the_oracle(per_block, monkeypatch):
    # the half marches take 256 cells rightward and 255 leftward: 60 cells
    # a block leaves last blocks of 16 and 15, 64 divides the 256, and the
    # default 8192 // 43 = 190 leaves 66 and 65
    lams = ORACLE_LAMS
    if per_block is not None:
        monkeypatch.setattr(direct_scattering, "BLOCK_SAMPLES", per_block * lams.size)
    B = direct_scattering.BLOCK_SAMPLES // lams.size
    N = ORACLE_GRID.point_count
    # node B ends the first block of the rightward march and node N - 1 - B
    # the first block of the leftward one; the cells on both sides of each
    # are substepped
    p = _spiked([B, N - 1 - B])
    assert np.array_equal(np.flatnonzero(_substeps(p, lams)), [B - 1, B, N - 2 - B, N - 1 - B])
    got = _wronskians(p, lams)
    want = _oracle_wronskians(p, lams)
    for g, o in zip(got[:4], want[:4]):
        assert_bitwise(g, o)
    assert got[4] == want[4]


@pytest.mark.parametrize("per_block", [1, 73, 100], ids=["1", "73", "100"])
@pytest.mark.parametrize("side", "-+")
def test_jost_samples_span_many_blocks(per_block, side, monkeypatch):
    # a single-lam march of 511 cells: 73 cells a block divides them, 100
    # leaves a last block of 11
    monkeypatch.setattr(direct_scattering, "BLOCK_SAMPLES", per_block)
    p = _spiked([100, 300])
    assert np.any(_substeps(p, np.array([1.9])))
    sol = propagate_jost(p, 1.9, side)
    samples, defect = _oracle_jost(p, 1.9, side)
    assert_bitwise(sol.psi, samples)
    assert sol.det_defect == defect


@pytest.mark.parametrize("name, per_block", [("substepped", None), ("samples-only", None),
                                             ("substepped", 120)])
def test_det_check_reaches_cells_inside_the_blocks(name, per_block, monkeypatch):
    # the largest det defect of these inputs falls inside a block and
    # exceeds every block end's, x = 0 included, so the oracle test's
    # got[4] == want[4] fails for a check taken only there; at 120 cells a
    # block it also falls before the last block of its half march
    p = ORACLE_INPUTS[name]
    lams = ORACLE_LAMS * (4.0 if name == "substepped" else 1.0)
    if per_block is not None:
        monkeypatch.setattr(direct_scattering, "BLOCK_SAMPLES", per_block * lams.size)
    B = direct_scattering.BLOCK_SAMPLES // lams.size
    worst = at_ends = at_zero = in_last = 0.0
    for side in "-+":
        defects = _oracle_cell_defects(p, lams, side)
        cells = defects.size
        assert cells % B != 0
        ends = np.zeros(cells, dtype=bool)
        ends[B - 1::B] = ends[-1] = True
        worst = max(worst, defects.max())
        at_ends = max(at_ends, defects[ends].max())
        at_zero = max(at_zero, defects[-1])
        in_last = max(in_last, defects[-(cells % B):].max())
        # each block reports the largest defect of its own cells
        blocks = direct_scattering._march(p, lams, side, p.grid.point_count // 2)
        next(blocks)
        sizes = []
        for cols, defect in blocks:
            start = sum(sizes)
            sizes.append(len(cols))
            assert defect == defects[start:start + len(cols)].max()
        assert sizes == [B] * (cells // B) + [cells % B]
    assert worst > at_ends >= at_zero
    if per_block is not None:
        assert worst > in_last
    assert _wronskians(p, lams)[4] == worst
