from dataclasses import replace

import numpy as np
import pytest

import wkist.reconstruction
from wkist.direct_scattering import reflection_coefficient
from wkist.errors import (
    HodographInconsistentError,
    InvalidArgumentError,
    RangeError,
    RhpUnsolvedError,
    SlopeConditionError,
)
from wkist.lattice import make_spatial_grid, make_spectral_grid
from wkist.lax import make_potential
from wkist.reconstruction import (
    _halving_miss,
    _hodograph_lattice,
    inverse_transform,
    qh_from_slope,
    resample_q,
    x_from_m11,
    x_from_qh,
)
from wkist.rhp import DELTA_CONJUGATED, TRIANGULAR, suggest_z_min
from wkist.soliton import (
    SolitonParams,
    soliton_epsilon,
    soliton_q,
    soliton_qh,
    soliton_slope,
)

from soliton_moments import soliton_m1_entries

SOLITON = SolitonParams(3.0, 1.0)

# scalar hodograph shift at the origin, e = 0.1 (tanh(2e) + 1); computed
# once by Newton iteration to machine residual and frozen
EPSILON_AT_ZERO = 0.1243741728620181


def test_qh_from_slope_inverts_the_closed_form():
    g = make_spatial_grid(20.0, 2048)
    s = soliton_slope(g.points, 0.0, SOLITON)
    gap = np.abs(qh_from_slope(s) - soliton_qh(g.points, 0.0, SOLITON))
    assert np.max(gap) < 1e-12


def test_qh_from_slope_rejects_steep_slopes():
    with pytest.raises(SlopeConditionError) as info:
        qh_from_slope(np.array([0.1, 0.999999999, 0.2]))
    assert info.value.max_slope == pytest.approx(0.999999999)
    assert info.value.kind == "slope-condition-violated"
    # a touch below the margin is accepted
    out = qh_from_slope(np.array([0.5]))
    assert abs(out[0] - 0.5 / np.sqrt(0.75)) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
def test_qh_from_slope_refuses_a_non_finite_slope(bad):
    # NaN compares false against the margin and would pass the slope guard
    with pytest.raises(RhpUnsolvedError):
        qh_from_slope(np.array([0.1, bad]))


def test_x_from_qh_matches_closed_form():
    gaps = {}
    for n in (2048, 4096):
        g = make_spatial_grid(20.0, n)
        x = x_from_qh(g.points, soliton_qh(g.points, 0.0, SOLITON))
        # the exact shift at x_H is the diagonal moment, eps = Im m11
        _, m11 = soliton_m1_entries(g.points, 0.0, SOLITON)
        gaps[n] = np.max(np.abs(g.points - x - m11.imag))
    assert gaps[2048] < 5e-5
    # trapezoid quadrature: quartering under grid doubling
    assert 3.5 < gaps[2048] / gaps[4096] < 4.5


def test_epsilon_value_at_origin():
    assert abs(soliton_epsilon(0.0, 0.0, SOLITON) - EPSILON_AT_ZERO) < 1e-13


def _polynomial_through(x, y, points):
    # the polynomial of degree x.size - 1 through (x, y), at points
    deg = x.size - 1
    return (np.polyval(np.polyfit(x, y.real, deg), points)
            + 1j * np.polyval(np.polyfit(x, y.imag, deg), points))


def test_halving_miss_on_two_odd_and_even_node_counts():
    rng = np.random.default_rng(15)
    values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    uneven = np.cumsum(rng.uniform(0.2, 1.0, 8))
    # the one interpolant, on uneven and on uniform nodes: through four kept
    # nodes it is the one cubic, through three the parabola
    for nodes in (uneven, 0.4 * np.arange(8) - 1.0):
        def estimate(count, v):
            return _halving_miss(nodes[:count], v)

        # two nodes: the kept one spans nothing, so the miss is the dropped value
        assert estimate(2, values[:2]) == pytest.approx(abs(values[1]), rel=1e-15)
        # seven: four kept nodes carry one cubic, missed at nodes 1, 3 and 5
        miss = _polynomial_through(nodes[:7:2], values[:7:2], nodes[1:7:2]) - values[1:7:2]
        assert estimate(7, values[:7]) == pytest.approx(np.max(np.abs(miss)), rel=1e-12)
        # six: three kept nodes carry the parabola; node 5 lies beyond the last
        # kept node and does not count
        miss = _polynomial_through(nodes[:6:2], values[:6:2], nodes[1:5:2]) - values[1:5:2]
        spiked = values[:6].copy()
        spiked[5] = 1e3
        assert estimate(6, spiked) == pytest.approx(np.max(np.abs(miss)), rel=1e-12)
        # a miss below rounding reads as the floor, 1e-13 of the largest value
        assert estimate(7, np.full(7, -2.0)) == 2e-13


def test_hodograph_lattice_falls_back_to_the_sweep():
    sweep = np.linspace(-4.5, 4.5, 289)
    h = sweep[1] - sweep[0]
    # stride floor(rho z / (2 h)), rho = 2 pi / 10: 5 at z = 0.5, whose
    # end nodes overhang the sweep ends -144 h and 144 h by one cell
    nodes = _hodograph_lattice(sweep, h, 0.5)
    assert np.allclose(np.diff(nodes), 5 * h) and nodes[29] == 0.0
    assert nodes[0] == -145 * h and nodes[-1] == 145 * h
    # stride 1, a lattice of three nodes, and an empty band
    for z_near in (0.15, 24.0, np.inf):
        assert _hodograph_lattice(sweep, h, z_near) is sweep


def test_x_from_qh_refuses_a_single_node():
    with pytest.raises(InvalidArgumentError, match="two or more nodes"):
        x_from_qh(np.array([0.0]), np.array([1e-3 + 0j]))


@pytest.mark.parametrize("hodograph_map", [x_from_qh, x_from_m11])
def test_hodograph_maps_refuse_a_value_count_off_the_nodes(hodograph_map):
    # one value per node; numpy would otherwise fail in a broadcast
    with pytest.raises(InvalidArgumentError, match="per node"):
        hodograph_map(np.linspace(-1.0, 1.0, 5), 1e-3j * np.ones(4))


def test_x_from_m11_agrees_with_the_shift():
    g = make_spatial_grid(20.0, 2048)
    _, m11 = soliton_m1_entries(g.points, 0.0, SOLITON)
    x = x_from_m11(g.points, m11)
    # the explicit map undoes the hodograph shift: eps(x(x_H)) = Im m11
    gap = soliton_epsilon(x, 0.0, SOLITON) - m11.imag
    assert np.max(np.abs(gap)) < 1e-12


def test_x_from_m11_rejects_bad_moments():
    x_H = np.linspace(-2.0, 2.0, 9)
    good = 0.1j * (np.tanh(x_H) + 1.0)
    with pytest.raises(HodographInconsistentError):
        x_from_m11(x_H, good + 0.01)            # stray real part
    with pytest.raises(HodographInconsistentError):
        x_from_m11(x_H, -0.01j * np.ones(9))    # negative shift
    with pytest.raises(HodographInconsistentError):
        x_from_m11(x_H, 2.0j * x_H + 5.0j)      # non-increasing map
    assert np.max(np.abs(x_from_m11(x_H, good) - (x_H - good.imag))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 2e-3), complex(0.0, np.inf)])
def test_x_from_m11_refuses_a_non_finite_moment(bad):
    # a NaN real part compares false against the tolerance and would pass
    with pytest.raises(HodographInconsistentError):
        x_from_m11(np.array([-1.0, 0.0, 1.0]), np.array([1e-3j, bad, 2e-3j]))


def test_resample_q_reproduces_the_physical_potential():
    g = make_spatial_grid(20.0, 2048)
    qh = soliton_qh(g.points, 0.0, SOLITON)
    _, m11 = soliton_m1_entries(g.points, 0.0, SOLITON)
    q, estimate = resample_q(qh, x_from_m11(g.points, m11), g)
    direct = np.asarray(soliton_q(g.points, 0.0, SOLITON), dtype=complex)
    gap = np.max(np.abs(q.values - direct))
    assert gap < 2e-3
    # the node-dropping estimate is a (conservative) upper bound
    assert estimate > gap


def test_resample_q_on_two_nodes_is_linear():
    g = make_spatial_grid(2.0, 16)
    q_H = np.array([1e-7, 3e-7 - 2e-7j])
    q, estimate = resample_q(q_H, np.array([-1.0, 1.0]), g)
    inside = np.abs(g.points) <= 1.0
    line = q_H[0] + (q_H[1] - q_H[0]) * (g.points + 1.0) / 2.0
    assert np.max(np.abs(q.values[inside] - line[inside])) < 1e-22
    assert np.all(q.values[~inside] == 0.0)
    # the dropped node lies outside the one node kept: its miss is its value
    assert estimate == abs(q_H[1])
    with pytest.raises(HodographInconsistentError):
        resample_q(q_H[:1], np.array([0.0]), g)


def test_resample_q_rejects_undecayed_ranges():
    g = make_spatial_grid(20.0, 512)
    x_map = np.linspace(-1.0, 1.0, 64)   # window cuts through the bump
    qh = 0.5 / np.cosh(x_map)
    with pytest.raises(RangeError):
        resample_q(qh.astype(complex), x_map, g)


def test_inverse_transform_roundtrip_small():
    grid = make_spatial_grid(20.0, 1024)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    z_min = suggest_z_min(40.0, 2048, window=5.0)
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 2048, z_min=z_min))
    rec = inverse_transform(sd, 0.0, grid, window=5.0, decay_floor=1e-4)
    assert np.max(np.abs(rec.q.values - p.q)) < 1e-4
    d = rec.diagnostics
    assert d["worst_residual"] < 1e-10
    assert d["route_gap_epsilon"] < 1e-3
    assert d["epsilon_vs_E1"] < 1e-7
    assert d["max_slope"] < 1.0
    # both recovery routes give the same potential
    assert d["route_gap_q"] < 1e-4
    # outside the sweep window the potential is identically zero
    outside = np.abs(grid.points) > 5.0 + 1e-12
    assert not rec.q.values[outside].any()


def _stride5():
    # h = 1/32 and rho z_near / (2 h) = 5.5 on the N_z = 1024 band of
    # window 4.5, so the RHP lattice takes every fifth sweep cell
    grid = make_spatial_grid(16.0, 1024)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    z_min = suggest_z_min(40.0, 1024, window=4.5)
    return grid, reflection_coefficient(p, make_spectral_grid(40.0, 1024, z_min=z_min))


def test_inverse_transform_sizes_cell_batches_to_the_grid(monkeypatch):
    # every batch holds at most BATCH_SAMPLES spectral samples, so its
    # arrays stay cache-sized, and equally spaced lattice nodes, so its
    # phases take the recurrence; 1-cell batches give the same results
    grid, sd = _stride5()
    jump = wkist.reconstruction._jump_entries
    blocks = []

    def recording(kind, r, zgrid, x_H, *args):
        out = jump(kind, r, zgrid, x_H, *args)
        blocks.append((x_H, out[0].shape))
        return out

    monkeypatch.setattr(wkist.reconstruction, "_jump_entries", recording)
    rec = inverse_transform(sd, 0.0, grid, window=4.5, decay_floor=1e-3)
    nodes = rec.cells["x_H"]
    assert all(shape == (x.size, 1024) for x, shape in blocks)
    assert all(1 < x.size and x.size * 1024 <= 2**15 for x, _ in blocks)
    assert sum(x.size for x, _ in blocks) == nodes.size < rec.x_H.size
    assert np.array_equal(np.concatenate([x for x, _ in blocks]), nodes)
    for x, _ in blocks:
        assert np.max(np.abs(np.diff(x) - 5 * grid.spacing)) < 1e-12

    blocks.clear()
    monkeypatch.setattr(wkist.reconstruction, "BATCH_SAMPLES", 1)
    single = inverse_transform(sd, 0.0, grid, window=4.5, decay_floor=1e-3)
    assert {x.size for x, _ in blocks} == {1}
    for name in ("slope", "m1_11"):
        assert np.max(np.abs(getattr(rec, name) - getattr(single, name))) < 1e-12
    assert np.max(np.abs(rec.q.values - single.q.values)) < 1e-12


def test_lattice_matches_the_full_sweep(monkeypatch):
    # the interpolant from every fifth cell against a solve at every sweep cell
    grid, sd = _stride5()
    rec = inverse_transform(sd, 0.0, grid, window=4.5, decay_floor=1e-3)
    monkeypatch.setattr(wkist.reconstruction, "LATTICE_PHASE_STEP", 0.0)
    full = inverse_transform(sd, 0.0, grid, window=4.5, decay_floor=1e-3)
    assert np.array_equal(full.cells["x_H"], full.x_H)
    assert full.diagnostics["lattice_error_estimate"] == 0.0
    slope_gap = np.max(np.abs(rec.slope - full.slope))
    assert slope_gap < 5e-7
    assert np.max(np.abs(rec.m1_11 - full.m1_11)) < 1e-8
    assert np.max(np.abs(rec.q.values - full.q.values)) < 5e-7
    # the every-other-node miss bounds the miss of the lattice itself
    assert slope_gap < rec.diagnostics["lattice_error_estimate"] < 1e-5


def test_lattice_keeps_x_H_zero_a_node_between_the_kinds():
    grid, sd = _stride5()
    rec = inverse_transform(sd, 0.0, grid, window=4.5, decay_floor=1e-3)
    nodes, kinds = rec.cells["x_H"], rec.cells["kind"]
    h_H = 5 * grid.spacing
    assert 0.0 in nodes
    assert np.max(np.abs(np.diff(nodes) - h_H)) < 1e-12
    # the nodes cover the sweep, overhanging it by less than one spacing
    assert 0.0 <= rec.x_H[0] - nodes[0] < h_H and 0.0 <= nodes[-1] - rec.x_H[-1] < h_H
    assert np.all(kinds[nodes <= 0.0] == TRIANGULAR)
    assert np.all(kinds[nodes > 0.0] == DELTA_CONJUGATED)


def test_lattice_of_five_nodes_estimates_by_the_parabola_miss():
    # nodes -2..2 h_H, the sweep ends -10 h and 10 h: every other node is
    # three, so the estimate is the parabola's miss at the dropped two (the
    # floor admits the undecayed ends of so small a window)
    grid, sd = _stride5()
    rec = inverse_transform(sd, 0.0, grid, window=0.32, decay_floor=1.0)
    nodes = rec.cells["x_H"]
    assert nodes.size == 5 and nodes[2] == 0.0
    # every node is a sweep cell, where the interpolant takes the node's slope
    assert np.array_equal(rec.x_H[::5], nodes)
    slope = rec.slope[::5]
    assert np.array_equal(np.hypot(slope.real, slope.imag), rec.cells["abs_dx_m1_12"])
    miss = _polynomial_through(nodes[::2], slope[::2], nodes[1::2]) - slope[1::2]
    assert 0.0 < np.max(np.abs(miss)) < np.max(np.abs(slope[1::2]))
    assert rec.diagnostics["lattice_error_estimate"] == pytest.approx(np.max(np.abs(miss)),
                                                                       rel=1e-12)


def test_lattice_spline_reaches_a_sweep_end_past_the_last_node_by_rounding():
    # on this grid (stride 18) the last sweep cell, 180 h, lies one rounding
    # beyond the last lattice node, 10 h_H, where the interpolant itself is
    # zero; the slope and the diagonal moment there must still come from
    # the end stencil
    grid = make_spatial_grid(8.0, 1000)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 512, z_min=0.9))
    rec = inverse_transform(sd, 0.0, grid, window=2.89, decay_floor=1e-2)
    nodes = rec.cells["x_H"]
    assert nodes.size < rec.x_H.size and rec.x_H[-1] > nodes[-1]
    assert abs(rec.slope[-1]) == pytest.approx(rec.cells["abs_dx_m1_12"][-1], rel=1e-12)
    assert abs(rec.m1_11[-1] - rec.m1_11[-2]) < 1e-7
    assert rec.diagnostics["route_gap_epsilon"] < 1e-4


def test_inverse_transform_rejects_oversized_window():
    grid = make_spatial_grid(4.0, 256)
    p = make_potential(grid, lambda x: 0.01 * np.exp(-(x**2)))
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 512, z_min=0.9))
    with pytest.raises(InvalidArgumentError):
        inverse_transform(sd, 0.0, grid, window=10.0)


@pytest.mark.parametrize("window", [0.0, -1.0, 0.005])
def test_inverse_transform_refuses_a_sweep_of_fewer_than_two_cells(window, monkeypatch):
    # a window holding at most one grid point leaves nothing to integrate;
    # it must be refused before any RHP solve runs
    grid = make_spatial_grid(4.0, 256)
    p = make_potential(grid, lambda x: 0.01 * np.exp(-(x**2)))
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 512, z_min=0.9))

    def no_solve(*args, **kwargs):
        raise AssertionError("an RHP solve ran")

    monkeypatch.setattr(wkist.reconstruction, "_solve_batch", no_solve)
    with pytest.raises(InvalidArgumentError, match="two cells"):
        inverse_transform(sd, 0.0, grid, window=window)


@pytest.mark.parametrize("decay_floor", [float("nan"), -1e-6, float("inf")])
def test_inverse_transform_refuses_a_bad_decay_floor(decay_floor):
    # a NaN floor would switch the range guard off
    grid = make_spatial_grid(4.0, 256)
    p = make_potential(grid, lambda x: 0.01 * np.exp(-(x**2)))
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 512, z_min=0.9))
    with pytest.raises(InvalidArgumentError, match="decay_floor"):
        inverse_transform(sd, 0.0, grid, window=3.0, decay_floor=decay_floor)


@pytest.mark.parametrize("value", [1e-5, 0.3])
@pytest.mark.parametrize("where", ["floor", "z=0"])
def test_inverse_transform_refuses_reflection_inside_the_floor(where, value):
    # the slope is read off M(0), which needs a jump that is the identity
    # around z = 0: data the forward map never writes there is bad input
    grid = make_spatial_grid(20.0, 512)
    p = make_potential(grid, lambda x: 0.05 * np.exp(-(x**2)))
    sd = reflection_coefficient(p, make_spectral_grid(40.0, 512, z_min=0.9))
    assert sd.active.any() and not np.any(sd.r[~sd.active])
    r = sd.r.copy()
    r[(sd.zgrid.points == 0.0) if where == "z=0" else ~sd.active] = value
    with pytest.raises(InvalidArgumentError, match="z_min"):
        inverse_transform(replace(sd, r=r), 0.0, grid, window=3.0, decay_floor=1e-2)
