import numpy as np
import pytest

from wkist import direct_scattering
from wkist.direct_scattering import (
    DROP_SHARE,
    GAUSS_OFFSET,
    LAM_STEP_FACTOR,
    PHASE_BOUND,
    STEP_CELLS,
    _cells,
    _halving_miss,
    _jump_points,
    _lagrange_interpolant,
    _lam_lattice,
    _layout,
    _march,
    _plans,
    _step_scalars,
    _wronskians,
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

from jost_checks import (b_from_integral, check_a_asymptotics, propagate_jost, symmetry_defect,
                         transition_matrix, whole_plan)

# Reference values for the box potential q = 0.1 on [-1, 1], lam = 2,
# from the exact piecewise-constant propagator in 40-digit arithmetic
# (cross-checked against an adaptive ODE solve to 1e-12).  On a grid
# whose edges sit on grid points, every step sees a constant q and is exact.
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
    at_zero = sol.at(p.grid.point_count // 2)
    assert abs(at_zero[0, 0] - BOX_PSI_MINUS_00) < 1e-12
    assert abs(at_zero[0, 1] - BOX_PSI_MINUS_01) < 1e-12
    # the conjugation symmetry ties the second row to the first
    assert abs(at_zero[1, 0] + np.conj(at_zero[0, 1])) < 1e-13
    assert abs(at_zero[1, 1] - np.conj(at_zero[0, 0])) < 1e-13


def test_jost_determinant_and_normalization():
    p = gaussian_potential(N=1024)
    sol = propagate_jost(p, 2.0, "-")
    assert sol.det_defect < 1e-12
    assert sol.nodes[0] == 0
    start = sol.psi[0]
    x0 = p.grid.points[0]
    assert abs(start[0, 0] - np.exp(2j * x0)) < 1e-14
    assert abs(start[0, 1]) == 0.0


def test_jost_sides_disagree_inside_the_support():
    p = box_potential()
    left = propagate_jost(p, 2.0, "-")
    right = propagate_jost(p, 2.0, "+")
    mid = p.grid.point_count // 2
    assert np.max(np.abs(left.at(mid) - right.at(mid))) > 1e-3


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
    # the substep count is checked in floating point: 1e150 needs ~2e150
    # substeps a cell, which an int cast would wrap to a small count
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
    # N = 640 takes 2 substeps in each of the 15 cells at the peak, where
    # phi = 4 h sqrt(1 + |q|^2) > PHASE_BOUND; N = 32768 takes none.  Substeps
    # applied in increasing x on the leftward march put max |r - r_ref|
    # at 3.5e-3; in path order it is 1.0e-5.
    lams = np.linspace(-4.0, 4.0, 81)

    def potential(N):
        grid = make_spatial_grid(20.0, N)
        return make_potential(grid, lambda x: np.exp(-(((x - 0.3) / 0.7) ** 2) + 0.4j * x))

    def r(N):
        a, b, *_ = _wronskians(potential(N), lams)
        return b / a

    assert np.count_nonzero(_cells(potential(640), 4.0)[2] > 1) == 15
    assert np.max(np.abs(r(640) - r(32768))) < 1e-4


# Grids on which a cell's phase lam_max h sqrt(1 + |q|^2) at lam_max = 4 is
# 0.29 (N = 544) or 0.28 (N = 576) in the tails, one cell a step, or half
# that, two cells a step (N = 1088, 1152), against max |r - r_ref| of the
# midpoint march of the previous release, which substepped where
# lam^2 |q| h^3 > 1e-5.  This march reads 9.9e-6, 2.29e-5, 1.08e-5 and
# 2.29e-5 on them.
PHASE_BAND_MIDPOINT_MARCH = {544: 2.46e-5, 576: 2.34e-5, 1088: 2.64e-5, 1152: 2.72e-5}


@pytest.mark.parametrize("N", list(PHASE_BAND_MIDPOINT_MARCH))
def test_steps_near_the_phase_bound_are_no_less_accurate(N):
    lams = np.linspace(-4.0, 4.0, 81)

    def r(N):
        p = make_potential(make_spatial_grid(20.0, N),
                           lambda x: np.exp(-(((x - 0.3) / 0.7) ** 2) + 0.4j * x))
        a, b, *_ = _wronskians(p, lams)
        return b / a, p

    r_N, p = r(N)
    phi = 4.0 * p.grid.spacing * (1.0 if N < 1024 else 2.0)
    assert 0.2 < phi <= PHASE_BOUND
    assert np.max(np.abs(r_N - r(32768)[0])) < PHASE_BAND_MIDPOINT_MARCH[N]


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
# The Magnus-4 step and its schedule.

def _box_reference(amp, left, right, lam):
    """a and b of the box amp on [left, right], from the exact propagator.

    T = e^{-i lam sigma3 left} exp(-(right - left) A) e^{i lam sigma3 right},
    with exp(t A) = cos(t u) I + sin(t u)/u A and u = lam sqrt(1 + amp^2).
    """
    u = lam * np.sqrt(1.0 + amp**2)
    A = lam * np.array([[1j, -amp], [amp, -1j]])
    E = np.cos(u * (left - right)) * np.eye(2) + np.sin(u * (left - right)) / u * A
    T = np.diag(np.exp([-1j * lam * left, 1j * lam * left])) @ E
    T = T @ np.diag(np.exp([1j * lam * right, -1j * lam * right]))
    return T[0, 0], T[1, 0]


def test_box_reference_reproduces_the_40_digit_values():
    a, b = _box_reference(0.1, -1.0, 1.0, 2.0)
    assert abs(a - BOX_A) < 1e-15 and abs(b - BOX_B) < 1e-15


# A box of 0.5 on L = 4, N = 512 (h = 1/64), r on 24 lam in [-3, 3]: the
# error against the exact propagator, and what the midpoint march of the
# previous release measured on the same input.  A jump off the grid was
# an O(h) error there; now the cell holding it is cut at the jump.
BOX_EDGES = {
    "on the grid": ((-1.0, 1.0), 6.0e-16),
    "off the grid": ((-1.0 - 0.3 / 64, 1.0 + 0.41 / 64), 1.595e-2),
    "at a cell midpoint": ((-1.0 - 0.3 / 64, 1.0 + 0.5 / 64), 7.228e-3),
}


@pytest.mark.parametrize("name", list(BOX_EDGES))
def test_boxes_are_exact_wherever_their_edges_sit(name):
    (left, right), _midpoint_march = BOX_EDGES[name]
    p = make_potential(make_spatial_grid(4.0, 512),
                       lambda x: 0.5 * ((x >= left) & (x <= right)).astype(complex))
    lams = np.linspace(-3.0, 3.0, 25)
    lams = lams[lams != 0.0]
    a, b, *_ = _wronskians(p, lams)
    ref = np.array([_box_reference(0.5, left, right, lam) for lam in lams]).T
    assert np.max(np.abs(b / a - ref[1] / ref[0])) < 1e-12
    # the two cells that hold an edge are the only jumps
    assert np.count_nonzero(_cells(p, 3.0)[0]) == 2


def test_jump_points_are_found_to_adjacent_floats():
    h = 1.0 / 64
    p = make_potential(make_spatial_grid(4.0, 512), lambda x: 0.5 * (np.abs(x) <= 1.0 + 0.5 * h))
    cells = np.flatnonzero(_cells(p, 1.0)[0])
    at = _jump_points(p, cells)
    x = p.grid.points
    assert np.all((x[cells] < at) & (at <= x[cells + 1]))
    assert np.max(np.abs(np.abs(at) - (1.0 + 0.5 * h))) <= 4e-16


def test_samples_without_a_profile_are_no_less_accurate():
    # a sech given by its samples on L = 10, N = 512, against a fine march of
    # its profile: the Gauss points of the samples' linear interpolant give
    # 1.2363e-4; the midpoint march of the previous release, with its
    # substeps at lam^2 |q| h^3 > 1e-5, gave 1.2409e-4
    def q(x):
        return 0.7 / np.cosh(x / 0.9) * np.exp(0.2j * x)

    lams = np.linspace(-2.0, 2.0, 33)
    a, b, *_ = _wronskians(make_potential(make_spatial_grid(10.0, 16384), q), lams)
    grid = make_spatial_grid(10.0, 512)
    a_s, b_s, *_ = _wronskians(make_potential(grid, q(grid.points)), lams)
    assert np.max(np.abs(b_s / a_s - b / a)) < 1.2409e-4


def test_magnus_step_is_fourth_order():
    # a smooth Gaussian at lam up to 2, where every step spans STEP_CELLS
    # cells: doubling N divides the error of r by ~16 (12 at least); the
    # midpoint march of the previous release divided it by ~4
    lams = np.linspace(-2.0, 2.0, 41)

    def r(N):
        p = make_potential(make_spatial_grid(20.0, N),
                           lambda x: 0.5 * np.exp(-(x**2)) * np.exp(0.3j * x))
        a, b, *_ = _wronskians(p, lams)
        return b / a

    ref = r(16384)
    errors = [np.max(np.abs(r(N) - ref)) for N in (2048, 4096)]
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] < 1e-7


def _meeting_node(p, lam_max):
    """The grid node the half-marches meet at: the left one's last step ends there, the right one's
    first begins there."""
    _, _, _, left, right, split = _layout(p, lam_max)
    assert split == 0 or right[split - 1] == left[split]
    return int(left[split])


def test_steps_span_cells_up_to_the_phase_bound():
    # lam_max h sqrt(1 + |q|^2) = 0.069 a cell: four cells a step; at four
    # times lam_max the phase bound allows one, and nothing merges
    p = gaussian_potential(N=1024, amp=0.3)  # h = 0.039
    for lam_max, cells in ((1.7, STEP_CELLS), (6.8, 1)):
        H, q1, q2, node, _ = whole_plan(p, lam_max, "-")
        assert np.all(node >= 0)
        assert np.max(np.abs(H)) == cells * p.grid.spacing
        assert lam_max * np.max(np.abs(H)) * np.sqrt(1.0 + 0.3**2) <= PHASE_BOUND
    # both marches take the same steps, and meet at the step end nearest x = 0
    left = whole_plan(p, 1.7, "-")[3]
    right = whole_plan(p, 1.7, "+")[3]
    assert np.array_equal(np.sort(np.r_[0, left]), np.sort(np.r_[right, 1023]))
    meet = _meeting_node(p, 1.7)
    assert np.min(np.abs(left - 512)) == abs(meet - 512)


def test_steps_move_with_a_box_shifted_by_whole_cells():
    # the runs of a box start at its edges, so a shift by k cells moves
    # every step of its modulated plateau by k cells
    grid = make_spatial_grid(20.0, 512)

    def step_ends(k):
        shift = k * grid.spacing
        p = make_potential(grid, lambda x: 0.5 * (np.abs(x - shift) <= 0.93) * np.exp(0.3j * x))
        node = whole_plan(p, 1.5, "-")[3]
        return node[node >= 0]

    inside = lambda node, k: node[(node > 244 + k) & (node < 268 + k)]  # noqa: E731
    for k in (-7, 1, 2, 3, 13):
        assert np.array_equal(inside(step_ends(k), k), inside(step_ends(0), 0) + k)
        assert np.any(np.diff(inside(step_ends(k), k)) > 1)


def test_gauss_values_are_in_path_order():
    p = make_potential(make_spatial_grid(10.0, 512), lambda x: x + 0j)
    for side in "-+":
        H, q1, q2, _, _ = whole_plan(p, 1.0, side)
        # on q = x: q2 - q1 = (sqrt 3 / 3) H, along the march
        assert np.allclose(q2 - q1, 2.0 * GAUSS_OFFSET * H, rtol=1e-9, atol=1e-14)


def test_dropped_commutator_terms_change_no_bit():
    # phi and theta with every term kept against the key's dropped ones,
    # over the steps of the oracle inputs and their lam
    dropped = [0, 0]
    for name, p in ORACLE_INPUTS.items():
        lams = ORACLE_LAMS * LAM_SCALE.get(name, 1.0)
        lam_max = float(np.max(np.abs(lams)))
        H, q1, q2, _, _ = whole_plan(p, lam_max, "-")
        keys, _ = _step_scalars(H, q1, q2, lam_max)
        g = GAUSS_OFFSET * H * H
        s = 0.5 * (q1 + q2)
        delta = g * (q2 - q1)
        kappa = g * (q1.imag * q2.real - q1.real * q2.imag)
        c3 = 2.0 * H * (kappa - (s.imag * delta.real - s.real * delta.imag))
        c4 = kappa * kappa + (delta.real * delta.real + delta.imag * delta.imag)
        for k, (Hk, c2k, c3k, c4k, kappa_k) in enumerate(keys):
            full = np.sqrt(c2k + lams * (c3[k] + lams * c4[k]))
            kept = np.sqrt(c2k + lams * (c3k + lams * c4k))
            assert full.tobytes() == kept.tobytes()
            assert (kappa[k] * lams + Hk).tobytes() == (kappa_k * lams + Hk).tobytes()
            dropped[0] += (c3k, c4k) != (c3[k], c4[k])
            dropped[1] += kappa_k != kappa[k]
    assert min(dropped) > 0


# ---------------------------------------------------------------------------
# Bitwise oracle: an interleaved (L, 2, 2) loop with its own step schedule,
# laid out cell by cell in plain Python, a fresh step exponential and a fresh
# 2x2 product on every (sub)step, substeps in path order, and det psi taken
# as |alpha|^2 + |beta|^2.  The propagator promises the same floating-point
# operations per element of the first column, and the second column by
# symmetry, so results must match bit for bit.

def _oracle_steps(p, lam_max, side, stop):
    """(H, q1, q2, node) per (sub)step in march order, cell by cell."""
    N, h, x = p.grid.point_count, p.grid.spacing, p.grid.points
    jump, cap, substeps = _cells(p, lam_max)
    alone = jump | (cap < 2) | (p.profile is None)
    # cell lists in increasing x; a run is cut from its left end, or from
    # its right end at the grid's left end
    steps, k = [], 0
    while k < N - 1:
        end = k + 1
        if not alone[k]:
            while end < N - 1 and not alone[end]:
                end += 1
            size = int(min(cap[k:end]))
            if k == 0:
                heads = sorted({0} | set(range(end - size, 0, -size)))
            else:
                heads = list(range(k, end, size))
            steps += [list(range(s, e)) for s, e in zip(heads, heads[1:] + [end])]
        else:
            steps.append([k])
        k = end
    if stop == "mid":
        meet = min((cells[0] for cells in steps), key=lambda k: (abs(k - N // 2), k))
        steps = [cells for cells in steps if (cells[0] < meet) == (side == "-")]
    subs = []  # (width, centre, cell, j, m, first, last, cells) in increasing x
    for cells in steps:
        k = cells[0]
        pieces, m = [(x[k], len(cells) * h)], 1
        if len(cells) == 1:
            m = int(substeps[k])
            if jump[k]:
                at = _jump_points(p, np.array([k]))[0]
                pieces = [(x[k], at - x[k]), (at, x[k + 1] - at)]
                pieces = [piece for piece in pieces if piece[1] > 0.0]
        for i, (start, span) in enumerate(pieces):
            for j in range(m):
                width = span / m
                subs.append((width, start + (j + 0.5) * width, k, j, m,
                             i == 0 and j == 0, i == len(pieces) - 1 and j == m - 1,
                             cells))
    if side == "+":
        subs = subs[::-1]
    H = np.array([w if side == "-" else -w for w, *_ in subs], dtype=float)
    centre = np.array([c for _, c, *_ in subs])
    node = np.array([(cells[-1] + 1 if last else -1) if side == "-" else (cells[0] if first else -1)
                     for _, _, _, _, _, first, last, cells in subs], dtype=int)
    if p.profile is not None:
        values = np.asarray(p.profile(np.r_[centre - GAUSS_OFFSET * H,
                                             centre + GAUSS_OFFSET * H]), dtype=complex)
        return H, values[:H.size], values[H.size:], node
    q1, q2 = [], []
    for (_, _, k, j, m, *_), Hk in zip(subs, H):
        shift = (GAUSS_OFFSET if Hk > 0 else -GAUSS_OFFSET) / m
        for f, out in (((j + 0.5) / m - shift, q1), ((j + 0.5) / m + shift, q2)):
            out.append(p.q[k] * (1.0 - f) + p.q[k + 1] * f)
    return H, np.array(q1), np.array(q2), node


def _oracle_step_exponential(H, lam_col, q1, q2, lam_max):
    g = GAUSS_OFFSET * H * H
    s = 0.5 * (q1 + q2)
    delta = g * (q2 - q1)
    kappa = g * (q1.imag * q2.real - q1.real * q2.imag)
    c2 = H * H * (1.0 + (s.real * s.real + s.imag * s.imag))
    c3 = 2.0 * H * (kappa - (s.imag * delta.real - s.real * delta.imag))
    c4 = kappa * kappa + (delta.real * delta.real + delta.imag * delta.imag)
    if abs(c3) * lam_max + c4 * lam_max * lam_max < DROP_SHARE * c2:
        phi = lam_col * np.sqrt(c2)
    else:
        phi = np.sqrt(((lam_col * c4) + c3) * lam_col + c2) * lam_col
    with np.errstate(invalid="ignore"):
        S = np.sin(phi) / phi
    S[lam_col == 0.0] = 1.0
    lam_S = lam_col * S
    if abs(kappa) * lam_max < DROP_SHARE * abs(H):
        theta_S = H * lam_S
    else:
        theta_S = ((lam_col * kappa) + H) * lam_S
    E = np.empty(lam_col.shape + (2, 2), dtype=complex)
    E[..., 0, 0].real = E[..., 1, 1].real = np.cos(phi)
    E[..., 0, 0].imag = theta_S
    E[..., 1, 1].imag = -theta_S
    coef = np.array([[-H * s, 1j * delta], [H * np.conj(s), 1j * np.conj(delta)]])
    rows = np.array([lam_S, lam_col * lam_S], dtype=complex)
    E[..., [0, 1], [1, 0]] = (coef[:, :1] * rows[0] + coef[:, 1:] * rows[1]).T
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


def _oracle_skipped(steps, lam_max):
    """How many leading (sub)steps of a half march the start rule skips, and the node it starts at.

    Each step pulls the column off the free rotation by at most c =
    lam_max (|H| |s| + lam_max (|delta| + |kappa|)); the march skips the
    leading steps whose running sum of c is at most DROP_SHARE times the
    sum over the whole half, up to the last of them that ends on a grid
    node.  Sums run one step at a time in march order, and |z| is
    Python's complex abs.
    """
    pulls = []
    for H, q1, q2 in zip(*steps[:3]):
        g = GAUSS_OFFSET * H * H
        s = 0.5 * (q1 + q2)
        delta = g * (q2 - q1)
        kappa = g * (q1.imag * q2.real - q1.real * q2.imag)
        pulls.append(lam_max * (abs(H) * abs(complex(s))
                                + lam_max * (abs(complex(delta)) + abs(kappa))))
    total = 0.0
    for pull in pulls:
        total += pull
    skipped, start, running = 0, None, 0.0
    if np.isfinite(total):
        for k, (pull, node) in enumerate(zip(pulls, steps[3])):
            running += pull
            if running > DROP_SHARE * total:
                break
            if node >= 0:
                skipped, start = k + 1, int(node)
    return skipped, start


def _oracle_march(p, lams, side, stop, start_rule=True):
    """(node, psi) at the start and at every step end, in march order; stop is "mid" or "end".

    A march to "mid" starts where the start rule says, unless ``start_rule`` is off.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    lam_max = float(np.max(np.abs(lams)))
    steps = _oracle_steps(p, lam_max, side, stop)
    start = 0 if side == "-" else p.grid.point_count - 1
    if stop == "mid" and start_rule:
        skipped, node = _oracle_skipped(steps, lam_max)
        steps = [v[skipped:] for v in steps]
        start = start if node is None else node
    psi = np.zeros((lams.size, 2, 2), dtype=complex)
    psi[:, 0, 0] = np.exp(1j * lams * p.grid.points[start])
    psi[:, 1, 1] = np.exp(-1j * lams * p.grid.points[start])
    yield start, psi
    for H, q1, q2, node in zip(*steps):
        psi = _oracle_matmul2(_oracle_step_exponential(H, lams, q1, q2, lam_max), psi)
        if node >= 0:
            yield node, psi


def _oracle_wronskians(p, lams, start_rule=True):
    halves = []
    for side in "-+":
        steps = _oracle_march(p, lams, side, "mid", start_rule)
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
    nodes, samples = zip(*((k, psi[0]) for k, psi in _oracle_march(p, [lam], side, "end")))
    order = slice(None) if side == "-" else slice(None, None, -1)
    samples = np.array(samples)[order]
    return np.array(nodes)[order], samples, _oracle_det_defect(samples)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # also tells -0.0 from 0.0


def _keys(p, lams):
    lam_max = float(np.max(np.abs(lams)))
    H, q1, q2, node, _ = whole_plan(p, lam_max, "-")
    return _step_scalars(H, q1, q2, lam_max)[0], node


ORACLE_GRID = make_spatial_grid(10.0, 512)
ORACLE_LAMS = np.concatenate([np.linspace(-2.0, 2.0, 41), [-0.013, 0.37]])
ORACLE_INPUTS = {
    "box": make_potential(ORACLE_GRID, lambda x: 0.5 * (np.abs(x) <= 1.0) * np.exp(0.25j * x)),
    "gaussian": make_potential(ORACLE_GRID, lambda x: 0.05 * np.exp(-(x**2))),
    "sech": make_potential(ORACLE_GRID, lambda x: 1.0 / np.cosh((x - 0.1) / 1.1) * np.exp(0.2j * x)),
    "substepped": make_potential(ORACLE_GRID, lambda x: np.exp(-(x**2))),
    "samples-only": make_potential(ORACLE_GRID, 0.7 / np.cosh(ORACLE_GRID.points / 0.9)),
    "off-grid box": make_potential(ORACLE_GRID, lambda x: 0.8 * (np.abs(x - 0.01) <= 1.0)),
    "moving gaussian": make_potential(ORACLE_GRID, lambda x: 0.3 * np.exp(-(x**2) + 0.5j * x)),
}
# the lam the substep inputs are marched at, in units of ORACLE_LAMS
LAM_SCALE = {"substepped": 6.0, "samples-only": 5.0}


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_propagator_matches_the_interleaved_loop_bitwise(name):
    p = ORACLE_INPUTS[name]
    lams = ORACLE_LAMS * LAM_SCALE.get(name, 1.0)
    keys, node = _keys(p, lams)
    repeats = sum(a == b for a, b in zip(keys[1:], keys[:-1]))
    # the inputs cover each path of the trigonometry's reuse, the jump cut
    # and the substeps
    if name == "box":
        assert repeats > 0.8 * len(keys) and any(key[1] > key[0] ** 2 for key in keys)
        assert any(key[4] != 0.0 for key in keys)
    elif name == "gaussian":
        assert repeats > 0.5 * len(keys)
    elif name == "sech":
        assert repeats == 0 and any(key[2] != 0.0 for key in keys)
    elif name == "substepped":
        assert np.any(node < 0)
    elif name == "samples-only":
        assert p.profile is None and np.any(node < 0)
    elif name == "off-grid box":
        assert np.any(_cells(p, 2.0)[0]) and len(keys) > np.count_nonzero(node >= 0)
    else:
        # kappa is kept at the peak and dropped in the tails
        assert {key[4] == 0.0 for key in keys} == {True, False}
    got = _wronskians(p, lams)
    want = _oracle_wronskians(p, lams)
    for g, o in zip(got[:4], want[:4]):
        assert_bitwise(g, o)
    assert got[4] == want[4]
    for lam, side in ((1.3, "-"), (-0.7, "+"), (0.0, "-")):
        sol = propagate_jost(p, lam, side)
        nodes, samples, defect = _oracle_jost(p, lam, side)
        assert np.array_equal(sol.nodes, nodes)
        assert_bitwise(sol.psi, samples)
        assert sol.det_defect == defect


def test_a_march_of_no_steps_meets_at_the_grid_end():
    # three cells of a linear profile at small lam merge into one step, so
    # the marches meet at x = -L and the rightward one takes no step
    p = make_potential(make_spatial_grid(20.0, 4), lambda x: 0.01 + 1e-4 * x + 0j)
    lams = np.array([1e-3, -5e-4])
    width, *_, split = _layout(p, 1e-3)
    assert (split, width.size) == (0, 1)
    got = _wronskians(p, lams)
    want = _oracle_wronskians(p, lams)
    for g, o in zip(got[:4], want[:4]):
        assert_bitwise(g, o)
    assert got[4] == want[4]


# ---------------------------------------------------------------------------
# The start rule and the mirror.  A half march starts where the potential
# first couples (``_first_step``), and for real q on a batch symmetric
# about lam = 0 only lam > 0 is marched and lam < 0 is its mirror.  The
# oracle marches every lam of the batch, by the start rule or from the
# grid end.

SYMMETRIC_LAMS = np.r_[-(np.arange(21) + 0.5)[::-1], np.arange(21) + 0.5] * 0.095


def assert_same_wronskians(got, want):
    """a, b, c, d bitwise and the det defect equal."""
    for g, o in zip(got[:4], want[:4]):
        assert_bitwise(g, o)
    assert got[4] == want[4]


def _marched_batches(monkeypatch):
    """The batch size of every half march ``_wronskians`` makes, as a list filled in as it runs."""
    sizes = []
    propagate = direct_scattering._propagate_to_mid

    def spy(p, lams, plan):
        sizes.append(len(lams))
        return propagate(p, lams, plan)

    monkeypatch.setattr(direct_scattering, "_propagate_to_mid", spy)
    return sizes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["gaussian", "substepped", "samples-only", "off-grid box"])
def test_mirror_matches_the_interleaved_loop_bitwise(name, monkeypatch):
    # the real oracle inputs on a symmetric batch: half the lam are marched
    p = ORACLE_INPUTS[name]
    lams = SYMMETRIC_LAMS * LAM_SCALE.get(name, 1.0)
    sizes = _marched_batches(monkeypatch)
    got = _wronskians(p, lams)
    assert sizes == [lams.size // 2] * 2
    want = _oracle_wronskians(p, lams)
    assert_same_wronskians(got, want)


@pytest.mark.filterwarnings("error")
def test_a_sech_starts_both_halves_at_the_grid_ends():
    # a / cosh(x) still couples about 1e-9 a at |x| = 20, far above the
    # rule's share of the whole half, so each half starts at its grid end
    # and the march is the full one
    p = make_potential(make_spatial_grid(20.0, 512), lambda x: 0.5 / np.cosh(x) + 0j)
    for plan, end in zip(_plans(p, float(np.max(SYMMETRIC_LAMS))), (0, 511)):
        _, nodes, _ = next(_march(p, SYMMETRIC_LAMS, plan))
        assert np.array_equal(nodes, [end])
    got = _wronskians(p, SYMMETRIC_LAMS)
    want = _oracle_wronskians(p, SYMMETRIC_LAMS, start_rule=False)
    assert_same_wronskians(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["complex potential", "asymmetric batch"])
def test_complex_potentials_and_asymmetric_batches_march_every_lam(case, monkeypatch):
    momentum, lams = {"complex potential": (0.25, SYMMETRIC_LAMS),
                      "asymmetric batch": (0.0, SYMMETRIC_LAMS[1:])}[case]
    p = make_potential(make_spatial_grid(20.0, 512),
                       lambda x: 0.05 * np.exp(-(x**2)) * np.exp(1j * momentum * x))
    # the Gaussian's tails are skipped on both halves
    plan_m, plan_p = _plans(p, float(np.max(np.abs(lams))))
    assert plan_m[4] > 0 and plan_p[4] < 511
    sizes = _marched_batches(monkeypatch)
    got = _wronskians(p, lams)
    assert sizes == [lams.size] * 2
    want = _oracle_wronskians(p, lams)
    assert_same_wronskians(got, want)


@pytest.mark.filterwarnings("error")
def test_a_half_where_q_is_zero_starts_at_the_meeting_node():
    # a box on x > 0 couples nothing left of the meeting node, so the
    # leftward march takes no step; the mirror holds there too
    p = make_potential(make_spatial_grid(20.0, 512), lambda x: 0.3 * (np.abs(x - 5.0) <= 1.0) + 0j)
    lam_max = float(np.max(SYMMETRIC_LAMS))
    meet = _meeting_node(p, lam_max)
    blocks = _march(p, SYMMETRIC_LAMS, _plans(p, lam_max)[0])
    _, nodes, _ = next(blocks)
    assert np.array_equal(nodes, [meet]) and next(blocks, None) is None
    got = _wronskians(p, SYMMETRIC_LAMS)
    want = _oracle_wronskians(p, SYMMETRIC_LAMS)
    assert_same_wronskians(got, want)


# ---------------------------------------------------------------------------
# Blocks of the march: the columns and the det check are taken one block of
# step ends at a time, BLOCK_SAMPLES // len(lams) steps to a block.  A
# substepped cell on a block boundary, a last block shorter than the rest
# and one-step blocks must all keep the oracle's bytes.  Samples without a
# profile are marched one cell a step, so their blocks count cells.

def _spiked(nodes):
    """Samples-only input, 0.01 e^{0.3 i x} but 12 at ``nodes``: at the
    oracle's lams only the cells beside a spike are substepped."""
    q = 0.01 * np.exp(0.3j * ORACLE_GRID.points)
    q[nodes] = 12.0
    return make_potential(ORACLE_GRID, q)


def _substeps(p, lams):
    return _cells(p, float(np.max(np.abs(lams))))[2] > 1


def _oracle_step_defects(p, lams, side):
    """det defect after each step of the oracle's half march, in march order."""
    steps = _oracle_march(p, lams, side, "mid")
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
    nodes, samples, defect = _oracle_jost(p, 1.9, side)
    assert np.array_equal(sol.nodes, np.arange(p.grid.point_count))
    assert_bitwise(sol.psi, samples)
    assert sol.det_defect == defect


@pytest.mark.parametrize("name, per_block", [("substepped", None), ("samples-only", None),
                                             ("substepped", 120)])
def test_det_check_reaches_cells_inside_the_blocks(name, per_block, monkeypatch):
    # at these lam both inputs are marched one cell a step; the largest
    # det defect falls inside a block and exceeds every block end's, x = 0
    # included, so the oracle test's got[4] == want[4] fails for a check
    # taken only there; at 120 cells a block it also falls before the last
    # block of its half march
    p = ORACLE_INPUTS[name]
    lams = ORACLE_LAMS * LAM_SCALE[name]
    if per_block is not None:
        monkeypatch.setattr(direct_scattering, "BLOCK_SAMPLES", per_block * lams.size)
    B = direct_scattering.BLOCK_SAMPLES // lams.size
    worst = at_ends = at_zero = in_last = 0.0
    for side, plan in zip("-+", _plans(p, float(np.max(np.abs(lams))))):
        defects = _oracle_step_defects(p, lams, side)
        steps = defects.size
        assert steps % B != 0
        ends = np.zeros(steps, dtype=bool)
        ends[B - 1::B] = ends[-1] = True
        worst = max(worst, defects.max())
        at_ends = max(at_ends, defects[ends].max())
        at_zero = max(at_zero, defects[-1])
        in_last = max(in_last, defects[-(steps % B):].max())
        # each block reports the largest defect of its own steps
        blocks = _march(p, lams, plan)
        next(blocks)
        sizes = []
        for cols, _, defect in blocks:
            start = sum(sizes)
            sizes.append(len(cols))
            assert defect == defects[start:start + len(cols)].max()
        assert sizes == [B] * (steps // B) + [steps % B]
    assert worst > at_ends >= at_zero
    if per_block is not None:
        assert worst > in_last
    assert _wronskians(p, lams)[4] == worst
