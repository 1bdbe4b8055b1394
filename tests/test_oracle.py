"""Independent references: mode ODE, 1-d characteristics formula, heat flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipwave import (Field, dalembert, forward_transform,
                        free_wave_multiplier, gaussian_bump, heat_reference,
                        inverse_transform, make_grid, mode_ode,
                        mode_ode_series)


def test_mode_ode_zero_frequency_closed_form():
    # g'' + g' = 0 with g(0)=0, g'(0)=1 has g = 1 - exp(-t)
    r = mode_ode(0.0, 1.0, tol=1e-10)
    assert r.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
    assert r.derivative == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert abs(r.value - (1.0 - math.exp(-1.0))) <= max(r.est_error, 1e-12)


def test_mode_ode_critical_frequency_closed_form():
    # at xi_sq = 1/4 the roots coalesce and g = t exp(-t/2)
    r = mode_ode(0.25, 2.0, tol=1e-10)
    assert r.value == pytest.approx(2.0 * math.exp(-1.0), abs=1e-10)


def test_mode_ode_oscillatory_closed_form():
    # xi_sq = 1: g = exp(-t/2) sin(w t) / w with w = sqrt(3)/2
    w = math.sqrt(3.0) / 2.0
    t = 3.0
    r = mode_ode(1.0, t, tol=1e-10)
    assert r.value == pytest.approx(math.exp(-t / 2) * math.sin(w * t) / w,
                                    abs=1e-9)


def test_mode_ode_series_contract():
    times = np.array([0.0, 0.5, 1.0, 2.0])
    g, gt, err = mode_ode_series(2.0, times, tol=1e-10)
    assert g.shape == gt.shape == err.shape == times.shape
    assert g[0] == 0.0 and gt[0] == 1.0
    assert np.all(err >= 0)
    # each sample agrees with a one-shot integration to that time
    for k in (1, 2, 3):
        one = mode_ode(2.0, float(times[k]), tol=1e-10)
        assert g[k] == pytest.approx(one.value, abs=1e-9)
        assert gt[k] == pytest.approx(one.derivative, abs=1e-9)


def test_mode_ode_error_estimate_tracks_tolerance():
    loose = mode_ode(3.0, 5.0, tol=1e-6)
    tight = mode_ode(3.0, 5.0, tol=1e-10)
    assert tight.est_error < loose.est_error
    # the two answers agree far better than the loose estimate
    assert abs(loose.value - tight.value) <= loose.est_error * 10


def test_mode_ode_validation():
    with pytest.raises(ValueError):
        mode_ode(-1.0, 1.0)
    with pytest.raises(ValueError):
        mode_ode(1.0, 1.0, tol=1e-15)
    with pytest.raises(ValueError):
        mode_ode_series(1.0, np.array([1.0, 0.5]))


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_mode_ode_rejects_a_non_finite_tol(tol):
    # refused before any integration: with tol = inf DOP853's step control
    # is unbounded and the integration never returns
    with pytest.raises(ValueError, match="finite"):
        mode_ode_series(0.3, [1.0, 2.0], tol=tol)


@settings(max_examples=20, deadline=None)
@given(xi_sq=st.floats(min_value=0.0, max_value=16.0),
       t=st.floats(min_value=0.1, max_value=8.0))
def test_mode_ode_estimate_is_conservative_near_closed_forms(xi_sq, t):
    # cross-validate the reported estimate against a much tighter solve
    r = mode_ode(xi_sq, t, tol=1e-8)
    tight = mode_ode(xi_sq, t, tol=1e-12)
    assert abs(r.value - tight.value) <= max(r.est_error, 1e-12) * 10


def test_dalembert_constant_data():
    g = make_grid(1, 128, 10.0)
    h = Field(g, np.ones(g.shape))
    integral, average = dalembert(h, 3.0)
    assert np.max(np.abs(integral.values - 3.0)) < 1e-10
    assert np.max(np.abs(average.values - 1.0)) < 1e-10


def test_dalembert_zero_data():
    g = make_grid(1, 64, 10.0)
    h = Field(g, np.zeros(g.shape))
    integral, average = dalembert(h, 2.0)
    assert np.max(np.abs(integral.values)) == 0.0
    assert np.max(np.abs(average.values)) == 0.0


def test_dalembert_single_mode():
    # for h = cos(kx): half-integral = sin(kt)/k cos(kx), average = cos(kt)cos(kx)
    g = make_grid(1, 128, 10.0)
    k = 2 * np.pi / 10.0
    x = g.axis_coords
    h = Field(g, np.cos(k * x))
    t = 2.5
    integral, average = dalembert(h, t)
    assert np.max(np.abs(integral.values - np.sin(k * t) / k * np.cos(k * x))) < 1e-9
    assert np.max(np.abs(average.values - np.cos(k * t) * np.cos(k * x))) < 1e-9


def test_dalembert_matches_spectral_multiplier():
    g = make_grid(1, 256, 20.0)
    h = gaussian_bump(g, 1.0, 1.0)
    t = 3.0
    integral, _ = dalembert(h, t)
    mult = free_wave_multiplier(g, t)
    via_fft = inverse_transform(g, forward_transform(h) * mult)
    assert np.max(np.abs(integral.values - via_fft.values)) < 1e-8


def test_dalembert_wraparound_guard():
    g = make_grid(1, 64, 10.0)
    h = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="half_width/2"):
        dalembert(h, 5.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        dalembert(Field(make_grid(2, 16, 4.0), np.zeros((16, 16))), 1.0)


def test_free_wave_multiplier_zero_mode_limit():
    g = make_grid(1, 64, 8.0)
    mult = free_wave_multiplier(g, 2.0)
    assert mult[0] == pytest.approx(2.0)  # sin(rt)/r -> t as r -> 0


def test_heat_reference_single_mode():
    g = make_grid(1, 64, 8.0)
    k = np.pi / 8.0
    f = Field(g, np.cos(k * g.axis_coords))
    t = 4.0
    out = heat_reference(g, forward_transform(f), t)
    expected = np.exp(-k * k * t) * np.cos(k * g.axis_coords)
    assert np.max(np.abs(out.values - expected)) < 1e-12


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_heat_reference_rejects_a_negative_or_non_finite_time(bad):
    # nan used to give an all-nan field, inf an invalid value (0 * inf) at
    # the zero mode
    g = make_grid(2, 32, 8.0)
    spec = forward_transform(gaussian_bump(g, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        heat_reference(g, spec, bad)


def test_heat_reference_preserves_mean(rng):
    g = make_grid(1, 64, 8.0)
    f = Field(g, rng.standard_normal(g.shape))
    out = heat_reference(g, forward_transform(f), 10.0)
    assert np.mean(out.values) == pytest.approx(np.mean(f.values), abs=1e-12)
