"""Linear stepping, the semilinear step against the RK4 oracle, guards,
derivatives."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from dissipwave import (EnergyLedger, Field, InstabilityError, SolverConfig,
                        SolverState, apply_nonlinearity, build_symbol_table,
                        forward_transform, gaussian_bump, inverse_transform,
                        linear_solution, linear_step, make_grid, solve,
                        state_from_fields)
from dissipwave import solver
from dissipwave.oracle import rk4_reference
from dissipwave.solver import (GUARD_BOUND, _make_step_cache, step_schedule,
                              step_semilinear, time_derivative, u_field)


def _zero(grid):
    return Field(grid, np.zeros(grid.shape))


def test_solver_config_validation():
    with pytest.raises(ValueError, match="theta"):
        SolverConfig(theta=0, dt=0.1, t_final=1.0)
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(theta=3, dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError, match="t_final"):
        SolverConfig(theta=3, dt=0.1, t_final=0.0)
    with pytest.raises(ValueError, match="nonlin_sign"):
        SolverConfig(theta=3, dt=0.1, t_final=1.0, nonlin_sign=2)


def test_theta_is_capped_where_the_ledger_density_stays_finite():
    # the ledger sums |u|^(theta + 2), and the guard lets |u| reach
    # GUARD_BOUND: at theta 440 that power overflows
    assert solver.MAX_THETA == 439
    assert math.isfinite(GUARD_BOUND ** (439 + 2))
    with pytest.raises(OverflowError):
        GUARD_BOUND ** (440 + 2)
    assert SolverConfig(theta=439, dt=0.1, t_final=1.0).theta == 439
    with pytest.raises(ValueError, match="at most 439, got 440"):
        SolverConfig(theta=440, dt=0.1, t_final=1.0)


def test_an_integral_float_theta_runs_as_its_integer(bump1d, grid1d):
    # 3.0 passes the integer check and is stored as 3: the source rate
    # and the ledger's density take it by repeated squaring, which needs
    # an int, so the run must equal the int run bit for bit
    runs = []
    for theta in (3.0, 3):
        ledger = EnergyLedger(sobolev_index=1)
        final = solve(state_from_fields(bump1d, _zero(grid1d)),
                      SolverConfig(theta=theta, dt=0.1, t_final=0.2),
                      ledger=ledger)
        runs.append((final.u_hat, final.v_hat, ledger.energy))
    for got, want in zip(*runs):
        assert np.array_equal(got, want)
    assert type(SolverConfig(theta=3.0, dt=0.1, t_final=0.2).theta) is int


def _painted_slabs(grid, theta):
    """The step cache's kept slabs painted onto a zero spectrum, each slab
    adding 1 to its modes, and the cache."""
    cfg = SolverConfig(theta=theta, dt=0.1, t_final=1.0)
    cache = _make_step_cache(grid, cfg, cfg.dt)
    painted = np.zeros(grid.spectral_shape)
    for spectral, _box in cache.slabs:
        painted[spectral] += 1.0
    return painted, cache


def test_dealias_mask_applies_from_theta_2():
    # the source keeps the slabs of its step cache: for theta >= 2 exactly
    # the modes |j| <= N/3 on every axis, in 2^(n-1) slabs; for theta = 1
    # every stored mode, in one slab; no mode is kept twice, and the slabs
    # fill the box they are gathered into
    cases = [(d, n, theta) for d in (1, 2, 3) for n in (16, 32, 64, 256)
             for theta in (1, 2, 3) if d <= 2 or n < 256]
    for n_dims, n, theta in cases:
        g = make_grid(n_dims, n, 8.0)
        painted, cache = _painted_slabs(g, theta)
        j = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        axes = [j] * (n_dims - 1) + [np.fft.rfftfreq(n, d=1.0 / n)]
        keep = np.ix_(*[f <= (n / 3 if theta >= 2 else np.inf) for f in axes])
        rule = np.zeros(g.spectral_shape)
        rule[keep] = 1.0
        assert np.array_equal(painted, rule), (n_dims, n, theta)
        assert len(cache.slabs) == (2 ** (n_dims - 1) if theta >= 2 else 1)
        assert cache.one_slab == (n_dims == 1 or theta == 1)
        box = np.zeros(cache.box_shape)
        for _spectral, slab in cache.slabs:
            box[slab] += 1.0
        assert box.shape == rule[keep].shape and np.all(box == 1.0)


def test_dealias_mask_two_thirds_rule():
    # the last axis stores j = 0 .. N/2 only; negative j live on the others
    g = make_grid(1, 64, 8.0)
    m, _cache = _painted_slabs(g, 2)
    assert m.shape == g.spectral_shape == (33,)
    assert m[0] == 1.0
    assert m[21] == 1.0  # |j| = 21 <= 64/3
    assert m[22] == 0.0
    assert m[32] == 0.0  # nyquist always dropped
    m2, _cache = _painted_slabs(make_grid(2, 64, 8.0), 2)
    assert m2.shape == (64, 33)
    assert m2[21, 0] == 1.0 and m2[-21, 0] == 1.0 and m2[0, 21] == 1.0
    assert m2[22, 0] == 0.0 and m2[-22, 0] == 0.0 and m2[0, 22] == 0.0
    assert m2[32, 0] == 0.0 and m2[0, 32] == 0.0
    assert m2[21, 21] == 1.0 and m2[-21, 21] == 1.0
    assert m2[22, 21] == 0.0 and m2[-21, 22] == 0.0


def test_apply_nonlinearity_signs_and_powers(rng):
    u = rng.standard_normal(64)
    for theta in (1, 2, 3, 4):
        expected = -np.abs(u) ** theta * u
        got = apply_nonlinearity(u, theta)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)
    flipped = apply_nonlinearity(u, 3, sign=+1)
    assert np.max(np.abs(flipped + apply_nonlinearity(u, 3))) == 0.0


class _ProductCounter(np.ndarray):
    """An array that counts the numpy.multiply calls made on it and on
    the arrays ufuncs derive from it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.multiply:
            _ProductCounter.products += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs).view(_ProductCounter)


def test_abs_power_takes_about_two_log2_theta_products():
    # repeated squaring: (theta - 1) // 2 products one at a time took
    # 10-13 ms a call at theta 439 on 65 536 points
    u = np.linspace(-1.0, 1.0, 8).view(_ProductCounter)
    for theta in range(1, solver.MAX_THETA + 1):
        _ProductCounter.products = 0
        solver._abs_power(u, theta)
        assert _ProductCounter.products <= 2 * math.log2(theta), theta


def test_abs_power_matches_pow_to_its_rounding_bound():
    # the result is a product of theta factors |u| (u^2 counts two), and
    # whatever the order of the products, a product of theta factors is
    # within gamma_(theta-1) = (theta-1) eps / (1 - (theta-1) eps) of the
    # exact power, eps = 2^-53: a rounding error in u^2 is raised to the
    # power its product has in the result.  libm's pow adds at most an ulp,
    # 2 eps.  |u| in [0.5, GUARD_BOUND] keeps every power normal up to
    # MAX_THETA, and the sign of u must not matter
    eps = 2.0 ** -53
    half = np.linspace(0.5, GUARD_BOUND, 1001)
    u = np.concatenate([-half, half])
    for theta in range(1, solver.MAX_THETA + 1):
        gamma = (theta - 1) * eps / (1 - (theta - 1) * eps)
        want = np.abs(u) ** theta
        got = solver._abs_power(u, theta)
        assert np.max(np.abs(got - want) / want) <= gamma + 2 * eps, theta
        assert np.array_equal(got[:1001], got[1001:])
    assert not solver._abs_power(np.zeros(3), solver.MAX_THETA).any()


def test_abs_power_keeps_the_builtin_thetas_bit_for_bit(rng):
    # theta 2 and 3, every builtin's, are the plain products they were
    u = rng.standard_normal(257)
    assert np.array_equal(solver._abs_power(u, 2), u * u)
    assert np.array_equal(solver._abs_power(u, 3), np.abs(u) * (u * u))
    out = np.empty_like(u)
    assert solver._abs_power(u, 3, out=out) is out


def test_linear_step_is_linear(grid1d, rng):
    table = build_symbol_table(grid1d, 0.3)
    s1 = state_from_fields(Field(grid1d, rng.standard_normal(grid1d.shape)),
                           Field(grid1d, rng.standard_normal(grid1d.shape)))
    s2 = state_from_fields(Field(grid1d, rng.standard_normal(grid1d.shape)),
                           Field(grid1d, rng.standard_normal(grid1d.shape)))
    combo = SolverState(grid=grid1d, u_hat=2.0 * s1.u_hat - 0.5 * s2.u_hat,
                        v_hat=2.0 * s1.v_hat - 0.5 * s2.v_hat)
    stepped = linear_step(combo, table)
    a, b = linear_step(s1, table), linear_step(s2, table)
    assert np.max(np.abs(stepped.u_hat - (2 * a.u_hat - 0.5 * b.u_hat))) < 1e-12
    assert np.max(np.abs(stepped.v_hat - (2 * a.v_hat - 0.5 * b.v_hat))) < 1e-12


def test_linear_step_semigroup(grid1d, bump1d):
    state = state_from_fields(bump1d, _zero(grid1d))
    two_half = linear_step(linear_step(state, build_symbol_table(grid1d, 0.4)),
                           build_symbol_table(grid1d, 0.4))
    one_full = linear_step(state, build_symbol_table(grid1d, 0.8))
    assert np.max(np.abs(two_half.u_hat - one_full.u_hat)) < 1e-10
    assert np.max(np.abs(two_half.v_hat - one_full.v_hat)) < 1e-10


def test_repeated_linear_step_matches_linear_solution():
    g = make_grid(1, 128, 16.0)
    u0, u1 = gaussian_bump(g, 1.0, 1.0), _zero(g)
    table = build_symbol_table(g, 0.25)
    state = start = state_from_fields(u0, u1)
    for _ in range(16):
        state = linear_step(state, table)
    exact = linear_solution(start, 4.0)
    assert np.max(np.abs(state.u - exact.u)) < 1e-10


def test_linear_solution_rejects_a_negative_time():
    g = make_grid(1, 64, 8.0)
    state = state_from_fields(gaussian_bump(g, 1.0, 1.0), _zero(g))
    with pytest.raises(ValueError, match="nonnegative"):
        linear_solution(state, -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_linear_flow_rejects_a_non_finite_time(bad):
    g = make_grid(2, 32, 8.0)
    start = state_from_fields(gaussian_bump(g, 1.0, 1.0),
                              gaussian_bump(g, -0.4, 1.5))
    for flow in (solver.LinearFlow(start), solver.LinearFlow(start, False)):
        with pytest.raises(ValueError, match="finite"):
            flow.at(bad)
    with pytest.raises(ValueError, match="finite"):
        linear_solution(start, bad)


def test_linear_flow_walk_matches_linear_solution_bitwise():
    # one flow evaluated at one time after another gives what a fresh
    # evaluation at each time gives; the u row alone, formed and
    # transformed in the work spectrum, gives the same u and keeps no
    # spectra
    for g in (make_grid(1, 64, 8.0), make_grid(2, 32, 8.0),
              make_grid(3, 16, 8.0)):
        _check_linear_flow_walk(g)


def _check_linear_flow_walk(g):
    start = state_from_fields(gaussian_bump(g, 1.0, 1.0),
                              gaussian_bump(g, -0.4, 1.5))
    both, u_only = solver.LinearFlow(start), solver.LinearFlow(start, False)
    fields = []
    for t in (0.0, 0.3, 2.0, 0.7, 9.0):
        want = linear_solution(start, t)
        got = both.at(t)
        assert np.array_equal(got.u_hat, want.u_hat)
        assert np.array_equal(got.v_hat, want.v_hat)
        # u, transformed in the flow's work spectrum, is a fresh array per
        # call
        assert np.array_equal(got.u, inverse_transform(g, want.u_hat).values)
        alone = u_only.at(t)
        assert alone.u_hat is None and alone.v_hat is None
        assert np.array_equal(alone.u, got.u)
        fields += [got.u, alone.u]
    rows = both.at(1.0)
    flow_arrays = (both._work, both._block, both._gather, u_only._work,
                   rows.u_hat, rows.v_hat, start.u_hat, start.v_hat)
    for k, field in enumerate(fields):
        assert not any(np.shares_memory(field, a)
                       for a in (*fields[:k], *flow_arrays))
    with pytest.raises(ValueError, match="nonnegative"):
        both.at(-0.5)


def test_state_without_v_raises_when_v_is_read():
    g = make_grid(1, 64, 8.0)
    start = state_from_fields(gaussian_bump(g, 1.0, 1.0),
                              gaussian_bump(g, 0.5, 1.0))
    state = solver.LinearFlow(start, with_v=False).at(1.0)
    assert np.array_equal(state.u, linear_solution(start, 1.0).u)
    assert state.v_hat is None
    for h in (1, 2):
        with pytest.raises(ValueError, match="u_t was not evaluated"):
            time_derivative(state, h, None)


def test_linear_step_grid_mismatch():
    g1, g2 = make_grid(1, 64, 8.0), make_grid(1, 128, 8.0)
    state = state_from_fields(gaussian_bump(g1, 1.0, 1.0), _zero(g1))
    with pytest.raises(ValueError, match="grid"):
        linear_step(state, build_symbol_table(g2, 0.1))


def test_semilinear_tiny_amplitude_matches_linear():
    # with |u| ~ 1e-5 and theta=3 the source is ~1e-20: indistinguishable
    g = make_grid(1, 128, 16.0)
    u0 = gaussian_bump(g, 1e-5, 1.0)
    cfg = SolverConfig(theta=3, dt=0.05, t_final=1.0)
    final = solve(state_from_fields(u0, _zero(g)), cfg)
    exact = linear_solution(state_from_fields(u0, _zero(g)), 1.0)
    assert np.max(np.abs(final.u - exact.u)) < 1e-14


def _duhamel_minus_rk4():
    """sup|u| gap at t = 0.5 between solve and the oracle's RK4 march, both
    at dt = 0.005."""
    g = make_grid(1, 64, 8.0)
    u0 = gaussian_bump(g, 0.8, 1.0)
    cfg = SolverConfig(theta=3, dt=0.005, t_final=0.5)
    ref = rk4_reference(u0, _zero(g), 3, 0.005, 100)
    return np.max(np.abs(solve(state_from_fields(u0, _zero(g)), cfg).u - ref))


def test_integrators_agree_at_small_dt():
    assert _duhamel_minus_rk4() < 1e-6


def test_rk4_reference_sees_a_wrong_source_coefficient(monkeypatch):
    # control: the oracle builds its own source, so a 1% error in the
    # solver's |u|^theta parts the two runs by more than the agreement
    # bound above (a reference that shared _abs_power would not see it)
    abs_power = solver._abs_power
    monkeypatch.setattr(solver, "_abs_power",
                        lambda u, theta, out=None:
                        1.01 * abs_power(u, theta, out=out))
    assert _duhamel_minus_rk4() > 1e-6


def _duhamel_order(u0, u1):
    def run(dt):
        cfg = SolverConfig(theta=3, dt=dt, t_final=0.5)
        return u_field(solve(state_from_fields(u0, u1), cfg)).values

    ref = run(0.5 / 512)
    e1 = np.max(np.abs(run(0.05) - ref))
    e2 = np.max(np.abs(run(0.025) - ref))
    return np.log2(e1 / e2)


def test_duhamel_third_order_convergence():
    g = make_grid(1, 64, 8.0)
    assert _duhamel_order(gaussian_bump(g, 1.0, 1.0), _zero(g)) > 2.8


def test_duhamel_seeded_start_keeps_third_order():
    # nonzero u_t: the Taylor seed of the source history carries the rate
    # F_t; a constant start (F_{-1} = F_{-2} = F_0) reads order 1.4
    g = make_grid(1, 64, 8.0)
    assert _duhamel_order(gaussian_bump(g, 1.0, 1.0),
                          gaussian_bump(g, 0.8, 1.2)) > 2.8


def test_rk4_fourth_order_convergence():
    g = make_grid(1, 64, 8.0)
    u0 = gaussian_bump(g, 1.0, 1.0)

    def run(dt):
        return rk4_reference(u0, _zero(g), 3, dt, round(0.5 / dt))

    ref = run(0.5 / 512)
    e1 = np.max(np.abs(run(0.05) - ref))
    e2 = np.max(np.abs(run(0.025) - ref))
    assert np.log2(e1 / e2) > 3.5


def test_instability_guard_trips():
    g = make_grid(1, 128, 16.0)
    u0 = gaussian_bump(g, 1.0, 1.0)
    cfg = SolverConfig(theta=1, dt=0.02, t_final=20.0, nonlin_sign=+1)
    with pytest.raises(InstabilityError) as info:
        solve(state_from_fields(u0, _zero(g)), cfg)
    assert info.value.sup > info.value.bound
    assert 0.0 < info.value.time <= 20.0


def test_guard_fires_on_the_initial_state():
    # the guard bound is one constant, 10 times the small-data amplitude
    # bound 0.5; data above it abort at t = 0, before any step
    g = make_grid(1, 64, 8.0)
    u0 = gaussian_bump(g, 5.5, 1.0)
    cfg = SolverConfig(theta=3, dt=0.05, t_final=1.0)
    with pytest.raises(InstabilityError) as info:
        solve(state_from_fields(u0, _zero(g)), cfg)
    assert info.value.time == 0.0
    assert info.value.sup == pytest.approx(5.5)
    assert info.value.bound == GUARD_BOUND == 5.0


def test_guard_checks_the_final_state():
    # growth flow: the first state beyond the guard bound is the last one
    # when t_final stops right on it, and solve must still refuse it
    g = make_grid(1, 128, 16.0)
    u0 = gaussian_bump(g, 1.0, 1.0)
    dt = 0.02
    cfg = SolverConfig(theta=1, dt=dt, t_final=20.0, nonlin_sign=+1)
    with pytest.raises(InstabilityError) as first:
        solve(state_from_fields(u0, _zero(g)), cfg)
    n = int(round(first.value.time / dt))
    before = solve(state_from_fields(u0, _zero(g)),
                   replace(cfg, t_final=(n - 1) * dt))
    assert np.max(np.abs(u_field(before).values)) <= first.value.bound
    with pytest.raises(InstabilityError) as last:
        solve(state_from_fields(u0, _zero(g)), replace(cfg, t_final=n * dt))
    assert last.value.time == pytest.approx(n * dt)
    assert last.value.sup > last.value.bound


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_guard_refuses_one_non_finite_sample(grid1d, bump1d, monkeypatch,
                                             bad):
    # the guard reads sup|u| off max u and min u without forming |u|: one
    # nan or infinite sample in the u of the third step's state must stop
    # the run at that state's time
    step = solver.step_semilinear
    taken = []

    def planted(state, *args):
        new, history = step(state, *args)
        taken.append(new)
        if len(taken) == 3:
            new.u[17] = bad
        return new, history

    monkeypatch.setattr(solver, "step_semilinear", planted)
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0)
    with pytest.raises(InstabilityError) as info:
        solve(state_from_fields(bump1d, _zero(grid1d)), cfg)
    assert len(taken) == 3
    assert info.value.time == step_schedule(cfg)[3][0]
    if math.isnan(bad):
        assert math.isnan(info.value.sup)
    else:
        assert info.value.sup == math.inf


def test_solve_never_writes_the_start_state():
    # the run's steps write arrays the run owns; the caller's start
    # spectra stay as they were, bit for bit
    g = make_grid(2, 32, 8.0)
    start = state_from_fields(gaussian_bump(g, 0.6, 1.0),
                              gaussian_bump(g, -0.3, 1.3))
    u_hat, v_hat = start.u_hat.copy(), start.v_hat.copy()
    cfg = SolverConfig(theta=2, dt=0.05, t_final=1.0,
                       dt_doubling_times=(0.5,))
    final = solve(start, cfg)
    assert np.array_equal(start.u_hat, u_hat)
    assert np.array_equal(start.v_hat, v_hat)
    assert not np.shares_memory(final.u_hat, start.u_hat)
    assert not np.shares_memory(final.v_hat, start.v_hat)


def test_steady_steps_allocate_no_spectrum_sized_array():
    # between two snapshots a step allocates no spectrum-sized array: the
    # state spectra, the source history, the work arrays and the physical
    # fields are the run's, and both transforms run every stage in them.
    # What remains are numpy's ufunc casting buffers (its bufsize, 8192
    # elements), which on 256^2 are a quarter of a spectrum
    g = make_grid(2, 256, 16.0)
    start = state_from_fields(gaussian_bump(g, 0.4, 1.5), _zero(g))
    cfg = SolverConfig(theta=2, dt=0.05, t_final=0.3,
                       snapshot_times=(0.1, 0.3))
    spectrum = np.empty(g.spectral_shape, dtype=complex).nbytes
    assert np.getbufsize() * 16 <= spectrum / 4
    marks = []

    def observe(t, state):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    traced_peak(lambda: solve(start, cfg, observer=observe))
    (base, _peak), (_current, peak) = marks
    assert (peak - base) / spectrum < 0.5


def test_solve_peak_memory_is_its_design():
    # the run holds one state pair, two work spectra (the second also the
    # source field) and u; the step cache four real spectra (the
    # propagator) and six real boxes (the weights); the history three
    # boxes, which the seed forms in the run's arrays; one spectrum more
    # is transient: on 128^2 numpy's ufunc casting buffer (8192 elements)
    # in the linear step.  That is 7 spectra, a field and 6 boxes, which
    # the design bounds by a second field for two of the boxes (0.89 of
    # a field).  A field more, such as a source field of its own or a
    # fresh rate or u_t field in the seed, is one spectrum over the bound.
    g = make_grid(2, 128, 8.0)
    start = state_from_fields(gaussian_bump(g, 0.4, 1.5),
                              gaussian_bump(g, -0.2, 1.2))
    start.u_sup, g.freq_levels  # the caller's u and the grid's level table
    cfg = SolverConfig(theta=2, dt=0.05, t_final=1.0,
                       snapshot_times=(0.5, 1.0), dt_doubling_times=(0.5,))
    spectrum = np.empty(g.spectral_shape, dtype=complex).nbytes
    field = np.empty(g.shape).nbytes
    m = g.points_per_dim // 3
    box = np.empty((2 * m + 1, m + 1), dtype=complex).nbytes
    design = 7 * spectrum + 2 * field + 4 * box
    peak = traced_peak(lambda: solve(start, cfg))
    assert (peak - design) / spectrum < 0.25


@pytest.mark.parametrize("theta", [1, 2])
def test_reseed_reads_u_before_overwriting_it(theta):
    # at an epoch's reseed the state's u is the run's u, which the seed
    # overwrites with u_t once the rate has read it; a chain of steps that
    # each own their arrays, history and cache reset at the doubling,
    # reaches the same spectra bit for bit.  The source field shares the
    # second work spectrum's bytes
    g = make_grid(2, 64, 8.0)
    start = state_from_fields(gaussian_bump(g, 0.4, 1.5),
                              gaussian_bump(g, -0.2, 1.2))
    cfg = SolverConfig(theta=theta, dt=0.05, t_final=0.6,
                       dt_doubling_times=(0.2, 0.4))
    state, cache, history = start, _make_step_cache(g, cfg, cfg.dt), None
    for _t, dt, _snapshot in step_schedule(cfg)[1:]:
        if dt != cache.dt:
            cache, history = _make_step_cache(g, cfg, dt), None
        state, history = step_semilinear(state, cfg, cache, history,
                                         arrays=None)
    final = solve(start, cfg)
    assert np.array_equal(final.u_hat, state.u_hat)
    assert np.array_equal(final.v_hat, state.v_hat)
    arrays = solver._RunArrays(g, cache)
    assert np.shares_memory(arrays.source, arrays.work[1])


def test_solve_observers_and_ledger(grid1d, bump1d):
    from dissipwave import EnergyLedger
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0,
                       snapshot_times=(0.0, 0.5, 1.0))
    seen = []
    led = EnergyLedger(sobolev_index=1)
    final = solve(state_from_fields(bump1d, _zero(grid1d)), cfg,
                  observer=lambda t, s: seen.append((t, s)), ledger=led)
    # the configured times exactly, not a sum of dt increments
    assert [t for t, _ in seen] == [0.0, 0.5, 1.0]
    assert seen[-1][1] is final
    assert led.times == [0.1 * k for k in range(10)] + [1.0]


def test_solve_rejects_misaligned_snapshots(grid1d, bump1d):
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0, snapshot_times=(0.55,))
    with pytest.raises(ValueError, match="snapshot"):
        solve(state_from_fields(bump1d, _zero(grid1d)), cfg)
    cfg = SolverConfig(theta=3, dt=0.3, t_final=1.0)
    with pytest.raises(ValueError, match="t_final"):
        solve(state_from_fields(bump1d, _zero(grid1d)), cfg)
    # both round to step 25 within the alignment slack; keeping one would
    # record fewer samples than were configured
    cfg = SolverConfig(theta=3, dt=0.04, t_final=2.0,
                       snapshot_times=(1.0, 1.0000000001))
    with pytest.raises(ValueError, match="fall on one step"):
        solve(state_from_fields(bump1d, _zero(grid1d)), cfg)


def test_time_derivative_orders(grid1d, bump1d):
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0)
    state = state_from_fields(bump1d, gaussian_bump(grid1d, 0.2, 1.5))
    assert np.array_equal(time_derivative(state, 0, cfg).values,
                          u_field(state).values)
    # second order must satisfy the equation: u_tt = lap u - u_t - |u|^th u
    u = u_field(state).values
    v = time_derivative(state, 1, cfg).values
    lap = inverse_transform(grid1d, -grid1d.freq_sq * state.u_hat).values
    expected = lap - v + apply_nonlinearity(u, 3)
    got = time_derivative(state, 2, cfg).values
    assert np.max(np.abs(got - expected)) < 1e-12
    # the linear flow (no config) has no source: u_tt = lap u - u_t
    linear = time_derivative(state, 2, None).values
    assert np.max(np.abs(linear - (lap - v))) < 1e-12
    assert np.max(np.abs(got - linear)) > 1e-3
    with pytest.raises(ValueError):
        time_derivative(state, 3, cfg)


def test_time_derivative_uses_the_config_sign(grid1d, bump1d):
    # growth flow: u_tt = lap u - u_t + |u|^theta u
    cfg = SolverConfig(theta=3, dt=0.1, t_final=0.2, nonlin_sign=+1)
    state = solve(
        state_from_fields(bump1d, gaussian_bump(grid1d, 0.2, 1.5)), cfg)
    u = u_field(state).values
    v = time_derivative(state, 1, cfg).values
    lap = inverse_transform(grid1d, -grid1d.freq_sq * state.u_hat).values
    expected = lap - v + np.abs(u) ** 3 * u
    got = time_derivative(state, 2, cfg).values
    assert np.max(np.abs(got - expected)) < 1e-12


def test_time_derivative_matches_finite_difference():
    # amplitude 1e-2 with theta=5 makes the source ~1e-12, so the h=2
    # derivative of the semilinear flow agrees with the linear one
    g = make_grid(1, 128, 16.0)
    u0 = gaussian_bump(g, 0.01, 1.0)
    h = 1e-4

    start = state_from_fields(u0, _zero(g))

    def v_at(t):
        return time_derivative(linear_solution(start, t), 1, None).values

    state = linear_solution(start, 1.0)
    fd = (v_at(1.0 + h) - v_at(1.0 - h)) / (2 * h)
    cfg = SolverConfig(theta=5, dt=0.1, t_final=1.0)
    utt = time_derivative(state, 2, cfg).values
    assert np.max(np.abs(fd - utt)) < 1e-8


def test_state_from_fields_grid_mismatch():
    g1, g2 = make_grid(1, 64, 8.0), make_grid(1, 64, 4.0)
    with pytest.raises(ValueError, match="grid"):
        state_from_fields(gaussian_bump(g1, 1.0, 1.0),
                          Field(g2, np.zeros(g2.shape)))


@settings(max_examples=15, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=2.0),
       s=st.floats(min_value=0.05, max_value=2.0))
def test_linear_solution_semigroup_property(t, s):
    g = make_grid(1, 64, 8.0)
    u0 = gaussian_bump(g, 1.0, 1.0)
    u1 = gaussian_bump(g, 0.3, 2.0)
    start = state_from_fields(u0, u1)
    b = linear_solution(linear_solution(start, t), s)
    c = linear_solution(start, t + s)
    assert np.max(np.abs(b.u - c.u)) < 1e-10
    assert np.max(np.abs(time_derivative(b, 1, None).values
                         - time_derivative(c, 1, None).values)) < 1e-10


def test_solver_state_holds_the_flow_only(grid1d, bump1d):
    # the equation is the config's and the clock is solve's: one step is
    # the flow solve reaches at t = dt, and it hands on a source history
    assert [f.name for f in fields(SolverState)] == ["grid", "u_hat", "v_hat"]
    config = SolverConfig(theta=2, dt=0.125, t_final=0.125, nonlin_sign=+1)
    state = state_from_fields(bump1d, _zero(grid1d))
    stepped, history = step_semilinear(
        state, config, _make_step_cache(grid1d, config, 0.125), None)
    assert len(history) == 3
    final = solve(state_from_fields(bump1d, _zero(grid1d)), config)
    assert np.array_equal(stepped.u_hat, final.u_hat)
    assert np.array_equal(stepped.v_hat, final.v_hat)


def test_solve_makes_two_transforms_per_duhamel_step(grid1d, bump1d,
                                                     monkeypatch):
    # start-up: the initial u and the seed of the source history (the
    # inverse of u_t, the forward transform of the source rate); per step:
    # the source at u_n (forward) and the new u (inverse).  The start
    # state, whose two data transforms are not solve's, is built first.
    # The guard, the ledger and the observer share each state's u, so a
    # state rebuilt after its guard (for instance by dataclasses.replace)
    # would add an inverse transform per step.  Each transform makes one
    # last-axis stage, numpy.fft.rfft or numpy.fft.irfft, which is counted
    from dissipwave import EnergyLedger
    start = state_from_fields(bump1d, gaussian_bump(grid1d, 0.2, 1.5))
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    steps = 8
    cfg = SolverConfig(theta=3, dt=0.125, t_final=steps * 0.125,
                       snapshot_times=(0.0, 0.5, 1.0))
    solve(start, cfg, observer=lambda t, s: s.u_sup,
          ledger=EnergyLedger(sobolev_index=1))
    assert counts == {"rfft": 1 + steps, "irfft": 2 + steps}


def test_schedule_doubles_the_step_at_each_epoch_end():
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0,
                       dt_doubling_times=(0.2, 0.6, 1.0, 3.0),
                       snapshot_times=(0.0, 0.2, 0.4, 1.0))
    table = step_schedule(cfg)
    # the ends at or past t_final are ignored: epochs 0.1, 0.2 and 0.4
    assert [dt for _t, dt, _snap in table] == [0.1] * 3 + [0.2] * 2 + [0.4]
    assert [t for t, _dt, _snap in table] == pytest.approx(
        [0.0, 0.1, 0.2, 0.4, 0.6, 1.0])
    assert [t for t, _dt, snap in table if snap] == [0.0, 0.2, 0.4, 1.0]


def test_default_schedule_keeps_the_constant_step(grid1d, bump1d):
    # no doubling times, or none before t_final, is the constant step: one
    # cache and one history for the whole run, bit for bit
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.0)
    u1 = gaussian_bump(grid1d, 0.2, 1.5)
    state = state_from_fields(bump1d, u1)
    cache, history = _make_step_cache(grid1d, cfg, cfg.dt), None
    for _ in range(10):
        state, history = step_semilinear(state, cfg, cache, history)
    for doubling in ((), (1.0, 2.0)):
        final = solve(state_from_fields(bump1d, u1),
                      replace(cfg, dt_doubling_times=doubling))
        assert np.array_equal(final.u_hat, state.u_hat)
        assert np.array_equal(final.v_hat, state.v_hat)


def test_schedule_rejects_times_off_their_epoch_grid(grid1d, bump1d):
    base = SolverConfig(theta=3, dt=0.1, t_final=1.0,
                        dt_doubling_times=(0.2, 0.6))
    # 0.5 is a multiple of 0.1 but not on the 0.2 grid from 0.2
    for bad, match in ((dict(snapshot_times=(0.5,)), "snapshot time 0.5"),
                       (dict(dt_doubling_times=(0.2, 0.5)), "doubling time"),
                       (dict(t_final=1.2), "t_final"),
                       (dict(dt_doubling_times=(0.4, 0.2)), "no step"),
                       # nan compares false with t_final, yet is no
                       # ignored end: it lies on no grid
                       (dict(dt_doubling_times=(math.nan,)),
                        "doubling time nan"),
                       (dict(dt_doubling_times=(0.2, math.nan, 0.6)),
                        "doubling time nan")):
        with pytest.raises(ValueError, match=match):
            solve(state_from_fields(bump1d, _zero(grid1d)),
                  replace(base, **bad))


def test_schedule_refuses_more_states_than_it_may_hold(monkeypatch):
    # the count is arithmetic, so a schedule of about 1e300 rows, or of an
    # infinite count, is refused at once, before any row is built
    for dt in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="at most 1000000 states"):
            step_schedule(SolverConfig(theta=3, dt=dt, t_final=1.0))
    # the bound counts every state, the first and each epoch's included:
    # t = 0 and 2 + 2 + 3 steps of 0.1, 0.2 and 0.4
    monkeypatch.setattr(solver, "MAX_STATES", 8)
    cfg = SolverConfig(theta=3, dt=0.1, t_final=1.8,
                       dt_doubling_times=(0.2, 0.6))
    assert len(step_schedule(cfg)) == 8
    with pytest.raises(ValueError, match="t_final 2.2 lies more than 3 "
                                         "steps of dt = 0.4 after t = 0.6"):
        step_schedule(replace(cfg, t_final=2.2))


def test_epoch_steps_keep_third_order_convergence():
    # halving the base step halves every epoch's step: each reseed at an
    # epoch start adds a third-order local error, so the run stays third
    # order; nonzero u_t makes the Taylor reseed carry the source rate
    g = make_grid(1, 64, 8.0)
    u0, u1 = gaussian_bump(g, 1.0, 1.0), gaussian_bump(g, 0.8, 1.2)

    def run(dt, doubling):
        cfg = SolverConfig(theta=3, dt=dt, t_final=1.0,
                           dt_doubling_times=doubling)
        return u_field(solve(state_from_fields(u0, u1), cfg)).values

    ref = run(1.0 / 1024, ())
    e1 = np.max(np.abs(run(0.025, (0.2, 0.6)) - ref))
    e2 = np.max(np.abs(run(0.0125, (0.2, 0.6)) - ref))
    assert np.log2(e1 / e2) > 2.8


def test_each_epoch_reseed_adds_two_transforms(grid1d, bump1d, monkeypatch):
    # per step the source at u_n (forward) and the new u (inverse); each
    # epoch's first step reseeds the history from the Taylor line, which
    # adds the inverse of u_t and the forward transform of the source rate;
    # each transform's one last-axis stage is counted
    start = state_from_fields(bump1d, gaussian_bump(grid1d, 0.2, 1.5))
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = SolverConfig(theta=3, dt=0.125, t_final=1.0,
                       dt_doubling_times=(0.25, 0.5))
    steps, reseeds = len(step_schedule(cfg)) - 1, 3
    assert steps == 4
    solve(start, cfg)
    # the start state is built before counting: the initial u inverse
    assert counts == {"rfft": steps + reseeds,
                      "irfft": 1 + steps + reseeds}


def test_declared_numpy_floor_has_the_fft_out_argument():
    # the Duhamel step writes each source spectrum into its recycled
    # buffer through numpy.fft's out=, which numpy 2.0 added; an older
    # numpy raises TypeError on every semilinear step
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)', text)
    assert floor is not None and int(floor.group(1)) >= 2


def test_convergence_study_script_runs():
    # a smoke run of the refinement study on a small grid; the order
    # itself is gate 7's to judge
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "convergence_study.py"),
         "--points", "32", "--half-width", "8", "--t-final", "0.5"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    sections = proc.stdout.strip().split("\n\n")
    assert [s.split()[0] for s in sections] == ["solve",
                                                "oracle.rk4_reference"]
    for section in sections:  # a title, a column header, the error rows
        errors = [float(row.split()[1]) for row in section.splitlines()[2:]]
        assert len(errors) == 4 and all(map(math.isfinite, errors))
