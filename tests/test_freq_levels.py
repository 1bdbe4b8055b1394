"""The |xi|^2 level table and the radial multipliers evaluated on it.

Every radial multiplier is computed once per distinct |xi|^2 level and
gathered onto the lattice; each stored mode must get exactly the bits a
per-mode evaluation gives.  Each reference below evaluates its
multiplier on every stored mode of the half spectrum.
"""

import math
import weakref

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import traced_peak, zero_field
from dissipwave import (Field, SolverConfig, build_symbol_table,
                        builtin_presets, cutoff, forward_transform,
                        gaussian_bump, green_band, green_hat, heat_reference,
                        inverse_transform, lp_norm, make_grid)
from dissipwave.solver import (_QUAD_NODES, _QUAD_WEIGHTS, LinearFlow,
                               _make_step_cache, state_from_fields,
                               time_derivative)
from dissipwave.symbols import _delta_spectrum, green_pair, propagator_levels

# small grids whose lattices reach both sides of the branch point
# |xi|^2 = 1/4 and resolve the band transitions
GRIDS = {"2d": make_grid(2, 32, 8.0), "3d": make_grid(3, 16, 8.0)}
# 0.013 keeps the low levels in the series branch of green_pair
TIMES = (0.0, 0.013, 0.7, 3.0)


@pytest.mark.parametrize("grid", [make_grid(1, 64, 8.0), *GRIDS.values()],
                         ids=["1d", *GRIDS])
def test_level_table_reproduces_freq_sq(grid):
    levels, index = grid.freq_levels
    assert np.all(np.diff(levels) > 0)
    assert index.shape == grid.spectral_shape
    assert np.array_equal(levels[index], grid.freq_sq)
    # every level is some mode's, so the table is np.unique's exactly
    assert np.array_equal(np.unique(index), np.arange(levels.size))
    if grid.n_dims == 1:  # |xi|^2 = xi_j^2 is distinct for j = 0 .. N/2
        assert levels.size == grid.freq_sq.size
    else:
        assert levels.size < grid.freq_sq.size


def test_level_count_on_the_lin2d_grid():
    grid = builtin_presets()["lin2d"].grid
    assert grid.freq_sq.size == 131_584
    assert grid.freq_levels[0].size == 28_646


@pytest.mark.parametrize("grid", [
    make_grid(1, 64, 8.0), make_grid(1, 4096, 200.0), make_grid(2, 32, 8.0),
    make_grid(2, 128, 3.0), make_grid(3, 16, 8.0), make_grid(3, 32, 5.0)],
    ids=["1d-64", "1d-4096", "2d-32", "2d-128", "3d-16", "3d-32"])
def test_folded_level_table_is_np_unique_of_freq_sq(grid):
    # the table is built on rows 0 .. N/2 of each leading axis and spread
    # by j -> min(j, N - j); it must be np.unique's over the whole stored
    # spectrum, levels, index and index dtype alike
    levels, index = np.unique(grid.freq_sq, return_inverse=True)
    got_levels, got_index = grid.freq_levels
    assert np.array_equal(got_levels, levels)
    assert got_index.dtype == index.dtype
    assert got_index.flags.c_contiguous
    assert np.array_equal(got_index, index.reshape(grid.spectral_shape))


def test_level_table_build_allocates_about_its_folded_size():
    # on 512^2 the build holds the folded |xi|^2, 257^2 floats, and
    # np.unique's sort order, sorted copy, flags, running count and
    # inverse on it, then the stored spectrum's index: at most five
    # folded intp arrays and the index.  np.unique over all 512 x 257
    # stored modes took 6.7 MB here
    grid = builtin_presets()["lin2d"].grid
    grid.freq_grids
    folded = np.empty((257, 257), dtype=np.intp).nbytes
    index = np.empty(grid.spectral_shape, dtype=np.intp).nbytes
    peak = traced_peak(lambda: grid.freq_levels)
    assert peak <= index + 5 * folded


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("delta", TIMES)
def test_symbol_table_matches_per_mode_evaluation(grid, delta):
    xi_sq = grid.freq_sq
    g, g_t = green_pair(xi_sq, delta)
    g_tt = -g_t - xi_sq * g
    table = build_symbol_table(grid, delta)
    for got, want in ((table.uu, g_t + g), (table.uv, g),
                      (table.vu, g_tt + g_t), (table.vv, g_t)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("dt", (0.013, 0.1, 0.7))
def test_step_weights_match_per_mode_quadrature(grid, dt):
    u_ref = [np.zeros(grid.spectral_shape) for _ in range(3)]
    v_ref = [np.zeros(grid.spectral_shape) for _ in range(3)]
    nodes, weights = leggauss(8)
    for tau, w in zip(0.5 * (nodes + 1.0), 0.5 * dt * weights):
        ker, ker_t = green_pair(grid.freq_sq, dt * (1.0 - tau))
        lagrange = ((tau + 1) * (tau + 2) / 2, -tau * (tau + 2),
                    tau * (tau + 1) / 2)
        for wu, wv, basis in zip(u_ref, v_ref, lagrange):
            wu += (w * basis) * ker
            wv += (w * basis) * ker_t
    cache = _make_step_cache(grid, SolverConfig(theta=2, dt=dt, t_final=dt),
                             dt)
    # the weights live on the box the 2/3 rule keeps, |j| <= N/3 on every
    # axis, in stored order: the j >= 0 run, then the j < 0 run
    n = grid.points_per_dim
    j = np.fft.fftfreq(n, d=1.0 / n)
    keep = [np.flatnonzero(np.abs(j) <= n / 3)] * (grid.n_dims - 1)
    box = np.ix_(*keep, np.flatnonzero(np.arange(n // 2 + 1) <= n / 3))
    for got, want in zip(cache.u_weights + cache.v_weights, u_ref + v_ref):
        assert got.shape == want[box].shape
        assert np.array_equal(got, want[box])


def test_quadrature_constants_are_leggauss_8():
    # the step's rule is kept as constants so the package never imports
    # numpy.polynomial; they must be its 8-point rule bit for bit
    nodes, weights = leggauss(8)
    assert _QUAD_NODES.dtype == _QUAD_WEIGHTS.dtype == np.float64
    assert np.array_equal(_QUAD_NODES, nodes)
    assert np.array_equal(_QUAD_WEIGHTS, weights)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("t", TIMES)
def test_heat_reference_matches_per_mode_factor(grid, t):
    spec = forward_transform(gaussian_bump(grid, 1.0, 1.5))
    want = inverse_transform(grid, spec * np.exp(-grid.freq_sq * t)).values
    assert np.array_equal(heat_reference(grid, spec, t).values, want)


@pytest.mark.parametrize("grid", [make_grid(1, 64, 8.0), *GRIDS.values()],
                         ids=["1d", *GRIDS])
# at t = 30 the product's high modes are subnormal or zero, as at lin2d's
# late snapshot times
@pytest.mark.parametrize("t", (0.0, 1.0, 7.3, 30.0))
def test_heat_reference_in_scratch_is_the_allocating_call(grid, t):
    # the heat gap a linear flow forms a block of lines at a time in its
    # own arrays is lp_norm of the oracle's allocating heat_reference of
    # u0 + u1 minus u, bit for bit; it leaves the rows of the flow's last
    # evaluation as they were and repeats bit for bit
    start = state_from_fields(gaussian_bump(grid, 1.0, 1.5),
                              gaussian_bump(grid, -0.3, 0.8))
    flow = LinearFlow(start)
    state = flow.at(2.0)
    heat = heat_reference(grid, start.u_hat + start.v_hat, t)
    want = lp_norm(Field(grid, heat.values - state.u), math.inf)
    rows = (state.u_hat.copy(), state.v_hat.copy(), state.u.copy())
    assert flow.heat_gap(t, state.u) == want
    for got, kept in zip((state.u_hat, state.v_hat, state.u), rows):
        assert np.array_equal(got, kept)
    assert flow.heat_gap(t, state.u) == want  # and again from its arrays
    u_only = LinearFlow(start, with_v=False)
    assert u_only.heat_gap(t, u_only.at(2.0).u) == want


@pytest.mark.parametrize("grid", [make_grid(1, 64, 8.0), GRIDS["2d"]],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("t", (1.0, 30.0))  # 30: the subnormal case
def test_a_flow_from_zero_velocity_drops_its_zero_spectrum(grid, t):
    # with u1 = 0 the flow keeps u0's spectrum alone, so the start state's
    # zero spectrum is freed with it; each row is one gather and one
    # product, and u, u_t and the heat gap are still the two-term forms'
    # bit for bit
    start = state_from_fields(gaussian_bump(grid, 1.0, 1.5),
                              zero_field(grid))
    uu, uv, vu, vv = (entry[grid.freq_levels[1]] for entry in
                      propagator_levels(grid.freq_levels[0], t))
    want_u = inverse_transform(grid, uu * start.u_hat + uv * start.v_hat)
    want_u_t = inverse_transform(grid, vu * start.u_hat + vv * start.v_hat)
    heat = heat_reference(grid, start.u_hat + start.v_hat, t).values
    zero = weakref.ref(start.v_hat)
    flows = (LinearFlow(start), LinearFlow(start, with_v=False))
    del start
    assert zero() is None
    for flow in flows:
        state = flow.at(t)
        assert np.array_equal(state.u, want_u.values)
        if state.v_hat is not None:
            assert np.array_equal(time_derivative(state, 1, None).values,
                                  want_u_t.values)
        want = lp_norm(Field(grid, heat - state.u), math.inf)
        assert flow.heat_gap(t, state.u) == want


@pytest.mark.parametrize("bad", (np.nan, np.inf, -1.0))
def test_linear_flow_heat_rejects_a_time_that_is_not_finite(bad):
    grid = GRIDS["2d"]
    start = state_from_fields(gaussian_bump(grid, 1.0, 1.5),
                              gaussian_bump(grid, -0.3, 0.8))
    flow = LinearFlow(start)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        flow.heat_gap(bad, flow.at(1.0).u)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("band", (1, 2, 3))
@pytest.mark.parametrize("t", TIMES[1:])
def test_green_band_matches_per_mode_multiplier(grid, band, t):
    mult = cutoff(band, grid.freq_radius) * green_hat(grid.freq_sq, t)
    want = inverse_transform(grid, _delta_spectrum(grid) * mult).values
    got = green_band(band, grid, t)
    assert isinstance(got, Field)
    assert np.array_equal(got.values, want)
