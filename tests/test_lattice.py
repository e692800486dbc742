import numpy as np
import pytest
from scipy.special import dawsn

from wkist.errors import InvalidArgumentError
from wkist.lattice import (
    LAGRANGE_POINTS,
    GridFunction,
    SpectralGrid,
    _cauchy_plus_batch,
    _lagrange_interpolant,
    _projector_fft,
    _tail_outside,
    cauchy_minus,
    cauchy_plus,
    gridfunction_to_csv,
    make_spatial_grid,
    make_spectral_grid,
)

# the rational test functions below only decay like 1/s, which the Cauchy
# transform rightly warns about; test_cauchy_warns_on_slow_decay pins the
# warning itself
pytestmark = pytest.mark.filterwarnings("ignore:samples do not decay")


def test_spatial_grid_layout():
    g = make_spatial_grid(20.0, 2048)
    assert g.spacing == pytest.approx(40.0 / 2048)
    assert g.points[0] == -20.0
    assert g.points[-1] == pytest.approx(20.0 - g.spacing)
    # x = 0 must be a grid point (the transition matrix is read off there)
    assert g.points[1024] == 0.0


def test_spatial_grid_rejects_bad_sizes():
    with pytest.raises(InvalidArgumentError):
        make_spatial_grid(20.0, 2047)
    with pytest.raises(InvalidArgumentError):
        make_spatial_grid(-1.0, 16)
    with pytest.raises(InvalidArgumentError):
        make_spatial_grid(20.0, 2)


def test_spectral_grid_rejects_bad_sizes():
    with pytest.raises(InvalidArgumentError):
        make_spectral_grid(40.0, 100)  # not a power of two
    with pytest.raises(InvalidArgumentError):
        make_spectral_grid(40.0, 4096, z_min=50.0)


def test_active_band_is_the_floor_without_z_zero():
    # points -4, -3.5, ..., 3.5: the floor 1 drops -0.5, 0 and 0.5
    g = make_spectral_grid(4.0, 16, z_min=1.0)
    assert np.array_equal(g.points[g.active], np.r_[-4.0:-0.75:0.5, 1.0:3.75:0.5])
    # no floor: only z = 0 is off the band
    g = make_spectral_grid(4.0, 16)
    assert np.array_equal(g.points[~g.active], [0.0])


def test_gridfunction_validates_length_and_finiteness():
    g = make_spatial_grid(2.0, 8)
    with pytest.raises(InvalidArgumentError):
        GridFunction(g, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(InvalidArgumentError):
        GridFunction(g, bad)


# --- Cauchy projections ----------------------------------------------------
#
# The projections are one windowed kernel (``_cauchy_plus_batch``, the sinc
# discrete Hilbert transform) plus, in the public ``cauchy_plus`` and
# ``cauchy_minus``, a closed-form completion of the tails (``_tail_outside``,
# which the RHP solve also takes its outer band from).  On rational test
# data f(s) = 1/(s -+ i) the bare kernel is limited by the contour
# truncation at |s| = Z, not by N_z: f only decays like 1/s, so the tails it
# never sees cost O(1/Z) near the edges and ~9e-3 on the inner half at
# Z = 40.  Refining N_z does not move that floor; doubling Z halves it.  The
# tail completion removes it: the public operators are exact on
# 1/(s -+ i) to ~1e-8.  The Plemelj difference C+ - C- = id holds exactly at
# grid points by construction.


def _plus_function(grid):
    return GridFunction(grid, 1.0 / (grid.points + 1j))


def _minus_function(grid):
    return GridFunction(grid, 1.0 / (grid.points - 1j))


def test_cauchy_projects_plus_function():
    grid = make_spectral_grid(40.0, 4096)
    f = _plus_function(grid)
    cp = cauchy_plus(f)
    err = np.abs(cp.values - f.values)
    assert err.max() < 1e-6
    interior = np.abs(grid.points) <= 20.0
    assert err[interior].max() < 1e-6


def test_cauchy_annihilates_plus_function_from_below():
    grid = make_spectral_grid(40.0, 4096)
    f = _plus_function(grid)
    cm = cauchy_minus(f)
    interior = np.abs(grid.points) <= 20.0
    assert np.abs(cm.values)[interior].max() < 1e-6


def test_cauchy_projects_minus_function():
    grid = make_spectral_grid(40.0, 4096)
    f = _minus_function(grid)
    cp = cauchy_plus(f)
    cm = cauchy_minus(f)
    interior = np.abs(grid.points) <= 20.0
    assert np.abs(cm.values + f.values)[interior].max() < 1e-6
    assert np.abs(cp.values)[interior].max() < 1e-6


def test_plemelj_difference_is_exact():
    grid = make_spectral_grid(40.0, 4096)
    for f in (_plus_function(grid), _minus_function(grid)):
        cp = cauchy_plus(f)
        cm = cauchy_minus(f)
        assert np.max(np.abs(cp.values - cm.values - f.values)) < 1e-15


def test_cauchy_truncation_floor_halves_when_z_doubles():
    # the bare kernel's floor is a contour-truncation effect ...
    errors = []
    for Z in (40.0, 80.0, 160.0):
        grid = make_spectral_grid(Z, 4096)
        f = _plus_function(grid)
        err = np.abs(_cauchy_plus_batch(f.values, grid) - f.values)
        interior = np.abs(grid.points) <= Z / 2
        errors.append(err[interior].max())
        # ... which the public operator's tail completion removes
        assert np.max(np.abs(cauchy_plus(f).values - f.values)) < 1e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.6 < coarse / fine < 2.4


def test_cauchy_error_does_not_improve_with_n_z():
    # away from the edges the bare kernel's error is a contour-truncation
    # effect, not a resolution effect: refining N_z leaves it in place
    errs = []
    for n in (2048, 4096, 8192):
        grid = make_spectral_grid(40.0, n)
        f = _plus_function(grid)
        err = np.abs(_cauchy_plus_batch(f.values, grid) - f.values)
        errs.append(err[np.abs(grid.points) <= 20.0].max())
        assert np.max(np.abs(cauchy_plus(f).values - f.values)) < 1e-6
    assert errs[0] == pytest.approx(errs[-1], rel=0.05)


def test_cauchy_converges_spectrally_on_decaying_input():
    # the Hilbert transform of exp(-s^2) is (2/sqrt(pi)) * dawsn(s), so
    # C+ = (f + iHf)/2 is known in closed form on the whole line
    grid = make_spectral_grid(40.0, 4096)
    s = grid.points
    f = GridFunction(grid, np.exp(-s**2))
    exact = 0.5 * np.exp(-s**2) + 1j / np.sqrt(np.pi) * dawsn(s)
    assert np.max(np.abs(cauchy_plus(f).values - exact)) < 1e-12


def test_cauchy_sharpens_with_faster_decay():
    # the floor is set by the test function's tail: 1/(s+i)^3 leaves
    # an O(1/Z^3)-type remainder instead of the O(1/Z) of 1/(s+i)
    grid = make_spectral_grid(40.0, 4096)
    f = GridFunction(grid, 1.0 / (grid.points + 1j) ** 3)
    cp = cauchy_plus(f)
    err = np.abs(cp.values - f.values)
    assert err.max() < 5e-5
    assert err[np.abs(grid.points) <= 20.0].max() < 5e-6


def test_cauchy_warns_on_slow_decay():
    grid = make_spectral_grid(40.0, 512)
    with pytest.warns(UserWarning, match="samples do not decay"):
        cauchy_plus(_plus_function(grid))


def test_cauchy_is_linear():
    grid = make_spectral_grid(40.0, 512)
    rng = np.random.default_rng(3)
    a = GridFunction(grid, rng.standard_normal(512) * np.exp(-grid.points**2 / 100))
    b = GridFunction(grid, rng.standard_normal(512) * np.exp(-grid.points**2 / 100))
    combo = GridFunction(grid, 2.0 * a.values - 1j * b.values)
    lhs = cauchy_plus(combo).values
    rhs = 2.0 * cauchy_plus(a).values - 1j * cauchy_plus(b).values
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_cauchy_acts_entrywise_on_matrix_values():
    # 2x2-matrix-valued samples are projected along the sample axis,
    # each entry exactly as the scalar operator would project it
    grid = make_spectral_grid(40.0, 1024)
    s = grid.points
    entries = [1.0 / (s + 1j), np.exp(-s**2), s / (s**2 + 9.0), 1.0 / (s - 1j)]
    f = GridFunction(grid, np.stack(entries, axis=-1).reshape(-1, 2, 2))
    for op in (cauchy_plus, cauchy_minus):
        matrix = op(f).values
        assert matrix.shape == (1024, 2, 2)
        for k, e in enumerate(entries):
            scalar = op(GridFunction(grid, e)).values
            assert np.max(np.abs(matrix[:, k // 2, k % 2] - scalar)) < 1e-14


def test_projector_is_the_kernel_plus_the_tail_completion():
    # the one tail mechanism: on samples that do not decay, the public
    # projector is the windowed kernel plus _tail_outside, row by row,
    # which is what the RHP solve adds to its right-hand side
    grid = make_spectral_grid(40.0, 1024)
    s = grid.points
    rows = np.stack([1.0 / (s + 1j), 1.0 / (s - 1j), s / (s**2 + 9.0)])
    batch = _cauchy_plus_batch(rows, grid) + _tail_outside(rows, grid)
    with pytest.warns(UserWarning, match="samples do not decay"):
        for row, got in zip(rows, batch):
            assert np.max(np.abs(cauchy_plus(GridFunction(grid, row)).values - got)) < 1e-14


def test_tail_completion_vanishes_on_samples_zero_at_the_edges():
    # samples that are exactly zero on the outer eighth of each half-window
    # have no tail to complete: the completion is exactly zero
    grid = make_spectral_grid(40.0, 512)
    s = grid.points
    rng = np.random.default_rng(5)
    v = (rng.standard_normal((3, 512)) + 1j * rng.standard_normal((3, 512)))
    v = np.where(np.abs(s) < 0.85 * grid.half_width, v, 0.0)
    assert np.all(_tail_outside(v, grid) == 0.0)


def test_csv_round_trips_at_full_precision(tmp_path):
    grid = make_spatial_grid(3.0, 16)
    values = np.exp(1j * grid.points) / 3.0
    path = tmp_path / "f.csv"
    gridfunction_to_csv(GridFunction(grid, values), path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "coordinate,re,im"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(parsed[:, 1] + 1j * parsed[:, 2], values)


def _scipy_cauchy_plus_batch(values, grid, minus=False):
    """The kernel as it was on scipy.fft: a zero-padded forward transform,
    the projection's spectrum built the same way, and an inverse transform."""
    scipy_fft = pytest.importorskip("scipy.fft")
    n = grid.point_count
    m = np.arange(1, n)
    half = np.where(m % 2 == 1, 2.0 / (np.pi * m), 0.0)
    col = np.concatenate([[0.0], half, np.zeros((grid.padding - 2) * n + 1), -half[::-1]])
    projector = 0.5j * scipy_fft.fft(col.astype(complex)) + (-0.5 if minus else 0.5)
    spectrum = scipy_fft.fft(np.asarray(values, dtype=complex), n=grid.padding * n, axis=-1)
    spectrum *= projector
    return scipy_fft.ifft(spectrum, axis=-1, overwrite_x=True)[..., :n].copy()


@pytest.mark.parametrize("n", [2, 1024, 4096])
@pytest.mark.parametrize("minus", [False, True], ids=["C+", "C-"])
def test_projector_spectrum_matches_the_padded_construction(n, minus):
    # at the fixed padding of 2 the embedding's gap is one zero; the
    # spectrum keeps the bytes of the construction written for any padding
    assert SpectralGrid.padding == 2
    m = np.arange(1, n)
    half = np.where(m % 2 == 1, 2.0 / (np.pi * m), 0.0)
    gap = np.zeros((SpectralGrid.padding - 2) * n + 1)
    col = np.concatenate([[0.0], half, gap, -half[::-1]])
    want = 0.5j * np.fft.fft(col.astype(complex)) + (-0.5 if minus else 0.5)
    got = _projector_fft(n, minus)
    assert got.size == SpectralGrid.padding * n
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1024, 2048, 4096])
@pytest.mark.parametrize("shape", [(), (3,), (1, 3)], ids=["N", "B,N", "1,B,N"])
@pytest.mark.parametrize("minus", [False, True], ids=["C+", "C-"])
def test_cauchy_kernel_matches_the_scipy_fft_kernel_bit_for_bit(n, shape, minus):
    grid = make_spectral_grid(40.0, n)
    rng = np.random.default_rng(n + len(shape))
    envelope = np.exp(-0.01 * grid.points**2)
    values = envelope * (rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,)))
    want = _scipy_cauchy_plus_batch(values, grid, minus)
    got = _cauchy_plus_batch(values, grid, minus)
    assert got.shape == values.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3,), (1, 3)], ids=["B,N", "1,B,N"])
@pytest.mark.parametrize("minus", [False, True], ids=["C+", "C-"])
def test_weighted_kernel_is_the_kernel_of_the_product(shape, minus):
    # the solver's half-step multiplies its jump entry into the kernel's
    # buffer: the bytes must be those of the kernel on the product
    n = 1024
    grid = make_spectral_grid(40.0, n)
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
    u = np.exp(-0.01 * grid.points**2) * np.exp(1j * rng.uniform(0, 6, (3, n)))
    got = _cauchy_plus_batch(x, grid, minus, weight=u)
    assert got.shape == x.shape
    assert got.tobytes() == _cauchy_plus_batch(x * u, grid, minus).tobytes()


# --- the Lagrange interpolant ----------------------------------------------


@pytest.mark.parametrize("n", [LAGRANGE_POINTS, 11, 37])
def test_lagrange_interpolant_is_exact_on_polynomials_of_degree_nine(n):
    # every stencil holds ten nodes, so every polynomial of degree <= 9 is
    # its own interpolant at any point between the end nodes
    rng = np.random.default_rng(n)
    nodes = np.arange(-7, n - 7) * 0.3
    a, b = nodes[0], nodes[-1]
    points = np.concatenate([rng.uniform(a, b, 500), (nodes[1:] + nodes[:-1]) / 2, [a, b]])
    for degree in range(LAGRANGE_POINTS):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)

        def poly(x):
            return np.polyval(coeffs, (x - a) / (b - a))

        got = _lagrange_interpolant(nodes, poly(nodes))(points)
        assert np.max(np.abs(got - poly(points))) <= 1e-13 * np.max(np.abs(poly(nodes)))


@pytest.mark.parametrize("n", [2, 3, 7, LAGRANGE_POINTS, 40])
def test_lagrange_interpolant_returns_the_node_values_and_is_zero_outside(n):
    # the nodes as the hodograph lattice builds them, j h_H
    rng = np.random.default_rng(n)
    nodes = np.arange(-(n // 3), n - n // 3) * 0.15625 * 1.1
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    interpolant = _lagrange_interpolant(nodes, values)
    assert interpolant(nodes).tobytes() == values.tobytes()
    a, b = nodes[0], nodes[-1]
    outside = np.array([np.nextafter(a, -np.inf), a - 1.0, np.nextafter(b, np.inf), b + 1.0])
    assert np.all(interpolant(outside) == 0.0)


def test_lagrange_interpolant_on_three_nodes_is_the_parabola_and_on_two_the_secant():
    points = np.linspace(-1.0, 3.0, 41)
    parabola = _lagrange_interpolant(np.array([-1.0, 1.0, 3.0]), np.array([2.0, 1j, -1.0]))
    # p(x) = 2 (x - 1)(x - 3)/8 - 1j (x + 1)(x - 3)/4 - (x + 1)(x - 1)/8
    want = ((points - 1) * (points - 3) / 4 - 1j * (points + 1) * (points - 3) / 4
            - (points + 1) * (points - 1) / 8)
    assert np.max(np.abs(parabola(points) - want)) < 1e-15
    secant = _lagrange_interpolant(np.array([-1.0, 3.0]), np.array([2.0, -1.0 + 4j]))
    want = 2.0 + (-3.0 + 4j) * (points + 1) / 4
    assert np.max(np.abs(secant(points) - want)) < 1e-15


_UNEVEN = np.cumsum(np.random.default_rng(12).uniform(0.05, 1.0, 40)) - 10.0
_WAVE = np.linspace(-6.0, 6.0, 61)
LAGRANGE_CASES = {
    "two nodes": (np.array([-1.0, 2.5]), np.array([0.3, -1.2 + 0.5j])),
    "three nodes": (np.array([-1.0, 0.25, 2.0]), np.array([0.5, 2.0, -0.75])),
    "four nodes": (np.linspace(-1.0, 2.0, 4), np.array([0.3, -1.2 + 0.5j, 2.0 - 1.0j, 0.25j])),
    "five nodes": (np.linspace(0.0, 1.0, 5), np.array([1.0, -0.5, 0.25, 2.0, -1.0])),
    "six nodes": (np.linspace(-3.0, 2.0, 6),
                  np.array([1.0, 1.0j]) @ np.random.default_rng(14).standard_normal((2, 6))),
    "gaussian": (np.linspace(-4.0, 4.0, 33), np.exp(-np.linspace(-4.0, 4.0, 33) ** 2)),
    "complex wave": (_WAVE, np.exp(-((_WAVE / 3.0) ** 2) + 2.5j * _WAVE)),
    "non-uniform": (_UNEVEN, np.random.default_rng(13).standard_normal(40)),
    "complex": (_UNEVEN, np.exp(-((_UNEVEN / 4.0) ** 2) + 2j * _UNEVEN)),
}


@pytest.mark.parametrize("nodes, values", list(LAGRANGE_CASES.values()), ids=list(LAGRANGE_CASES))
def test_lagrange_interpolant_matches_scipy_barycentric(nodes, values):
    # scipy's barycentric polynomial through the ten nodes centred on each
    # point's cell, shifted inward at the ends (all nodes, below ten);
    # exact zeros outside the nodes
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(nodes.size)
    a, b = nodes[0], nodes[-1]
    inside = np.concatenate([nodes, rng.uniform(a, b, 300)])
    outside = np.concatenate([[np.nextafter(a, -np.inf), np.nextafter(b, np.inf)],
                              np.nextafter(b, np.inf) + rng.uniform(0.0, 2.0, 25),
                              np.nextafter(a, -np.inf) - rng.uniform(0.0, 2.0, 25)])
    n = nodes.size
    p = min(LAGRANGE_POINTS, n)
    cell = np.clip(np.searchsorted(nodes, inside, side="right") - 1, 0, n - 2)
    starts = np.clip(cell - (p // 2 - 1), 0, n - p)
    want = np.empty(inside.size, dtype=complex)
    for s in np.unique(starts):
        at = starts == s
        want[at] = interpolate.BarycentricInterpolator(nodes[s:s + p], values[s:s + p])(inside[at])
    interpolant = _lagrange_interpolant(nodes, values)
    # random values on uneven nodes swing the polynomial to 200 times their
    # size, so the rounding is measured against the polynomial's
    assert np.max(np.abs(interpolant(inside) - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(interpolant(outside) == 0.0)


NEAR_NODE_CASES = {
    "uniform": (np.linspace(-4.0, 4.0, 33), np.exp(-np.linspace(-4.0, 4.0, 33) ** 2)),
    "non-uniform": (_UNEVEN, np.exp(-((_UNEVEN / 4.0) ** 2) + 2j * _UNEVEN)),
}


@pytest.mark.parametrize("nodes, values", list(NEAR_NODE_CASES.values()),
                         ids=list(NEAR_NODE_CASES))
def test_lagrange_interpolant_is_continuous_where_the_stencil_changes(nodes, values):
    # one rounding either side of a node the point's cell, and with it the
    # stencil, changes; both stencils pass through the node's value
    interpolant = _lagrange_interpolant(nodes, values)
    below = interpolant(np.nextafter(nodes[1:], -np.inf))
    above = interpolant(np.nextafter(nodes[:-1], np.inf))
    scale = np.max(np.abs(values))
    assert np.max(np.abs(below - values[1:])) <= 1e-13 * scale
    assert np.max(np.abs(above - values[:-1])) <= 1e-13 * scale


def test_lagrange_interpolant_stacked_columns_have_the_bytes_of_separate_calls():
    # a and b as the forward carries them: from a lam lattice +-(j + 1/2) dlam
    # onto the band's lam = -1/z, through one basis
    rng = np.random.default_rng(21)
    step = np.pi / (16 * 20.0)
    half = (np.arange(60) + 0.5) * step
    nodes = np.concatenate([-half[::-1], half])
    z = make_spectral_grid(40.0, 1024, z_min=2.0).points
    lam = np.concatenate([-1.0 / z[np.abs(z) >= 2.0], nodes[::7]])
    a, b = rng.standard_normal((2, nodes.size)) + 1j * rng.standard_normal((2, nodes.size))
    stacked = _lagrange_interpolant(nodes, np.stack([a, b], axis=1))(lam)
    assert stacked.shape == (lam.size, 2)
    for column, values in enumerate((a, b)):
        assert stacked[:, column].tobytes() == _lagrange_interpolant(nodes, values)(lam).tobytes()
