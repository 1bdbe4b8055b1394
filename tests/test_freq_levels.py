"""The |xi|^2 level table and the radial multipliers evaluated on it.

Every radial multiplier is computed once per distinct |xi|^2 level and
gathered onto the lattice; each stored mode must get exactly the bits a
per-mode evaluation gives.  Each reference below evaluates its
multiplier on every stored mode of the half spectrum.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from dissipwave import (Field, SolverConfig, build_symbol_table,
                        builtin_presets, cutoff, forward_transform,
                        gaussian_bump, green_band, green_hat, heat_reference,
                        inverse_transform, make_grid)
from dissipwave.solver import (_QUAD_NODES, _QUAD_WEIGHTS, LinearFlow,
                               _make_step_cache, state_from_fields)
from dissipwave.symbols import _delta_spectrum, green_pair

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
    if grid.n_dims == 1:  # |xi|^2 = xi_j^2 is distinct for j = 0 .. N/2
        assert levels.size == grid.freq_sq.size
    else:
        assert levels.size < grid.freq_sq.size


def test_level_count_on_the_lin2d_grid():
    grid = builtin_presets()["lin2d"].grid
    assert grid.freq_sq.size == 131_584
    assert grid.freq_levels[0].size == 28_646


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
    # the heat a linear flow forms in its own work arrays is the oracle's
    # allocating heat_reference of u0 + u1 bit for bit, a fresh field that
    # leaves the rows of the flow's last evaluation as they were
    start = state_from_fields(gaussian_bump(grid, 1.0, 1.5),
                              gaussian_bump(grid, -0.3, 0.8))
    want = heat_reference(grid, start.u_hat + start.v_hat, t).values
    flow = LinearFlow(start)
    state = flow.at(2.0)
    rows = (state.u_hat.copy(), state.v_hat.copy())
    got = flow.heat(t)
    assert np.array_equal(got, want)
    assert np.array_equal(state.u_hat, rows[0])
    assert np.array_equal(state.v_hat, rows[1])
    flow_arrays = (flow._entry, flow._term, flow._u_hat, flow._v_hat,
                   start.u_hat, start.v_hat)
    assert not any(np.shares_memory(got, a) for a in flow_arrays)
    assert np.array_equal(flow.heat(t), want)  # and again from its arrays


@pytest.mark.parametrize("bad", (np.nan, np.inf, -1.0))
def test_linear_flow_heat_rejects_a_time_that_is_not_finite(bad):
    grid = GRIDS["2d"]
    start = state_from_fields(gaussian_bump(grid, 1.0, 1.5),
                              gaussian_bump(grid, -0.3, 0.8))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        LinearFlow(start).heat(bad)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("band", (1, 2, 3))
@pytest.mark.parametrize("t", TIMES[1:])
def test_green_band_matches_per_mode_multiplier(grid, band, t):
    mult = cutoff(band, grid.freq_radius) * green_hat(grid.freq_sq, t)
    want = inverse_transform(grid, _delta_spectrum(grid) * mult).values
    got = green_band(band, grid, t)
    assert isinstance(got, Field)
    assert np.array_equal(got.values, want)
