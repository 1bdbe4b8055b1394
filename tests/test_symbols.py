"""Mode symbols, propagator table, cutoffs, and band kernels."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipwave import (build_symbol_table, builtin_presets, cutoff,
                        green_band, green_hat, green_hat_dt, make_grid,
                        mode_ode, smooth_step)
from dissipwave.symbols import (EPS, OUTER_RADIUS, TRANSITIONS, W_SERIES,
                                _shell_mode_count, green_pair,
                                propagator_levels)


def test_green_hat_zero_frequency():
    t = 1.0
    assert float(green_hat(0.0, t)) == pytest.approx(1.0 - math.exp(-1.0),
                                                     abs=1e-14)
    assert float(green_hat_dt(0.0, t)) == pytest.approx(math.exp(-1.0),
                                                        abs=1e-14)


def test_green_hat_branch_point_closed_form():
    for t in (0.1, 1.0, 10.0, 50.0):
        assert float(green_hat(0.25, t)) == pytest.approx(
            t * math.exp(-t / 2), rel=1e-13, abs=1e-300)


def test_green_hat_oscillatory_closed_form():
    # xi_sq = 1: w = sqrt(3)/2, G = exp(-t/2) sin(w t)/w
    w = math.sqrt(3.0) / 2.0
    for t in (0.5, 2.0, 7.0):
        expected = math.exp(-t / 2) * math.sin(w * t) / w
        assert float(green_hat(1.0, t)) == pytest.approx(expected, abs=1e-14)


def test_green_hat_overdamped_closed_form():
    # xi_sq = 3/16: roots -1/4 and -3/4, G = 2(exp(-t/4) - exp(-3t/4))
    for t in (0.5, 4.0, 20.0):
        expected = 2.0 * (math.exp(-t / 4) - math.exp(-3 * t / 4))
        assert float(green_hat(3.0 / 16.0, t)) == pytest.approx(expected,
                                                                abs=1e-14)


def test_green_hat_branch_continuity():
    # the series window must join the two exact branches smoothly
    for t in (0.1, 1.0, 10.0, 50.0):
        center = t * math.exp(-t / 2)
        for xi_sq in (0.25 - 1e-10, 0.25 + 1e-10):
            assert abs(float(green_hat(xi_sq, t)) - center) <= 1e-8


def test_series_window_continuity():
    # just inside the switch the series value must continue the exact
    # branch formula evaluated at the same point
    t = 2.0
    w_edge = W_SERIES / (t * t / 4.0)
    for sgn in (+1.0, -1.0):
        disc = sgn * w_edge * 0.99
        xi_sq = 0.25 * (1.0 - disc)
        got = float(green_hat(xi_sq, t))
        root = math.sqrt(abs(disc))
        if disc > 0:
            exact = 2.0 * math.exp(-t / 2) * math.sinh(root * t / 2) / root
        else:
            exact = 2.0 * math.exp(-t / 2) * math.sin(root * t / 2) / root
        assert abs(got - exact) < 1e-10


def test_green_hat_dt_is_time_derivative():
    # Richardson central difference of G against the closed-form G_t
    for xi_sq in (0.0, 0.1, 0.25, 0.7, 4.0):
        t, h = 2.0, 1e-5
        fd = (float(green_hat(xi_sq, t + h)) - float(green_hat(xi_sq, t - h))) / (2 * h)
        assert fd == pytest.approx(float(green_hat_dt(xi_sq, t)), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(xi_sq=st.floats(min_value=0.0, max_value=16.0),
       t=st.floats(min_value=0.05, max_value=10.0))
def test_green_hat_matches_mode_ode(xi_sq, t):
    ref = mode_ode(xi_sq, t, tol=1e-10)
    assert abs(float(green_hat(xi_sq, t)) - ref.value) < 1e-8
    assert abs(float(green_hat_dt(xi_sq, t)) - ref.derivative) < 1e-8


def test_green_pair_pins_values():
    # exact values, compared as repr: t = 0, xi_sq = 0 (overdamped), and
    # one point in each of the series, overdamped and oscillatory branches
    xi_sq = np.array([0.3, 0.0, 0.25 + 1e-6, 0.1875, 1.0])
    t = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    want_g = ["0.0", "0.6321205588285577", "0.7357583918370613",
              "0.6361847456071568", "-0.007643713713069364"]
    want_gt = ["1.0", "0.36787944117144233", "-4.905057253398797e-07",
               "-0.10925911803392525", "0.0332847520988389"]
    g, g_t = green_pair(xi_sq, t)
    assert [repr(float(v)) for v in g] == want_g
    assert [repr(float(v)) for v in g_t] == want_gt
    for k in range(len(t)):
        pair = green_pair(float(xi_sq[k]), float(t[k]))
        assert [repr(v) for v in pair] == [want_g[k], want_gt[k]]
        assert repr(green_hat(xi_sq[k], t[k])) == want_g[k]
        assert repr(green_hat_dt(xi_sq[k], t[k])) == want_gt[k]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_green_pair_and_propagator_reject_a_non_finite_time(bad):
    # nan used to give an all-nan table, inf an invalid-value warning deep
    # in the overdamped branch
    xi_sq = np.array([0.0, 0.1, 0.25, 1.0])
    with pytest.raises(ValueError, match="finite"):
        green_pair(0.1, bad)
    with pytest.raises(ValueError, match="finite"):
        green_pair(xi_sq, np.array([0.5, bad, 1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        propagator_levels(xi_sq, bad)
    with pytest.raises(ValueError, match="finite"):
        build_symbol_table(make_grid(1, 64, 8.0), bad)


@pytest.mark.parametrize("t", [1e154, 1e300, sys.float_info.max])
def test_green_pair_at_a_huge_finite_time_is_the_limit_quietly(t):
    # w = (1 - 4 xi_sq) t^2 / 4 overflows past t ~ 1e154, which must not
    # warn (pytest makes a RuntimeWarning an error): every mode but xi = 0
    # has decayed to 0, and the zero mode's G is 1 - e^(-t) = 1
    xi_sq = np.array([0.0, 1e-6, 0.1, 0.25 - 1e-16, 0.25, 0.25 + 1e-16,
                      1.0])
    g, g_t = green_pair(xi_sq, t)
    assert g.tolist() == [1.0] + [0.0] * 6
    assert g_t.tolist() == [0.0] * 7


def test_symbol_table_structure():
    g = make_grid(1, 64, 8.0)
    table = build_symbol_table(g, 0.25)
    assert table.uv.shape == g.spectral_shape
    g_0, g_t = green_pair(g.freq_sq, 0.25)
    assert np.array_equal(table.uv, g_0) and np.array_equal(table.vv, g_t)
    # uu = G_t + G, and vu = G_tt + G_t = -|xi|^2 G by the mode ODE, up to
    # the rounding of two additions on entries of size <= 7
    assert np.max(np.abs(table.uu - table.vv - g_0)) < 1e-14
    assert np.max(np.abs(table.vu + g.freq_sq * g_0)) < 1e-14
    assert float(table.uv[0]) == pytest.approx(1.0 - math.exp(-0.25), abs=1e-14)


@pytest.mark.parametrize("grid", [make_grid(1, 64, 8.0), make_grid(2, 32, 8.0),
                                  make_grid(3, 16, 8.0)],
                         ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("delta", [0.0, 0.013, 0.7, 3.0])
def test_symbol_table_apply_in_place_is_the_fresh_call(grid, delta, rng):
    # apply forms both cross terms before it writes a row, so the rows may
    # be the inputs themselves; each row is the same two products summed
    table = build_symbol_table(grid, delta)
    shape = grid.spectral_shape
    u_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want_u = table.uu * u_hat + table.uv * v_hat
    want_v = table.vu * u_hat + table.vv * v_hat
    fresh = table.apply(u_hat, v_hat)
    work = (np.empty_like(u_hat), np.empty_like(u_hat))
    in_place = table.apply(u_hat, v_hat, out=(u_hat, v_hat, *work))
    assert in_place[0] is u_hat and in_place[1] is v_hat
    for got, want in zip((*fresh, *in_place), (want_u, want_v) * 2):
        assert np.array_equal(got, want)


def test_symbol_table_semigroup_per_mode():
    # the stored [[uu, uv], [vu, vv]] must satisfy P(t+s) = P(t) P(s) per mode
    g = make_grid(1, 64, 8.0)
    t, s = 0.7, 0.45
    pt = _propagator_entries(g, t)
    ps = _propagator_entries(g, s)
    pts = _propagator_entries(g, t + s)
    prod00 = pt[0] * ps[0] + pt[1] * ps[2]
    prod01 = pt[0] * ps[1] + pt[1] * ps[3]
    prod10 = pt[2] * ps[0] + pt[3] * ps[2]
    prod11 = pt[2] * ps[1] + pt[3] * ps[3]
    for got, want in zip((prod00, prod01, prod10, prod11), pts):
        assert np.max(np.abs(got - want)) < 1e-10


def _propagator_entries(g, t):
    tab = build_symbol_table(g, t)
    return (tab.uu, tab.uv, tab.vu, tab.vv)


def test_smooth_step_shape():
    s = smooth_step(np.linspace(-1.0, 2.0, 301))
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(s[np.linspace(-1.0, 2.0, 301) <= 0.0] == 0.0)
    assert np.all(s[np.linspace(-1.0, 2.0, 301) >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)


def test_smooth_step_complement_symmetry():
    x = np.linspace(0.01, 0.99, 97)
    assert np.max(np.abs(smooth_step(x) + smooth_step(1.0 - x) - 1.0)) < 1e-14


def test_cutoff_partition_of_unity():
    r = np.linspace(0.0, 3.0, 400)
    total = cutoff(1, r) + cutoff(2, r) + cutoff(3, r)
    assert np.max(np.abs(total - 1.0)) < 1e-14
    for band in (1, 2, 3):
        vals = cutoff(band, r)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_cutoff_supports():
    assert cutoff(1, np.array([0.0, 0.45])) == pytest.approx([1.0, 1.0])
    assert cutoff(1, np.array([0.9, 1.0])) == pytest.approx([0.0, 0.0])
    assert cutoff(3, np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0])
    assert cutoff(3, np.array([2.0, 5.0])) == pytest.approx([1.0, 1.0])


def test_band_number_must_be_1_2_or_3():
    g = make_grid(1, 1024, 100.0)
    for band in (0, 4):
        with pytest.raises(ValueError, match="band must be 1, 2 or 3"):
            cutoff(band, np.array([1.0]))
        with pytest.raises(ValueError, match="band must be 1, 2 or 3"):
            green_band(band, g, 1.0)


def test_partition_transitions_do_not_overlap():
    # band 1 falls from 1 to 0 on (EPS, 2 EPS) and band 3 rises on
    # (OUTER_RADIUS - 1, OUTER_RADIUS); the middle band has both
    assert EPS > 0 and OUTER_RADIUS > 1
    assert 2 * EPS < OUTER_RADIUS - 1
    (low,), (high,) = TRANSITIONS[1], TRANSITIONS[3]
    assert low == (EPS, 2 * EPS) and high == (OUTER_RADIUS - 1, OUTER_RADIUS)
    assert TRANSITIONS[2] == (low, high)
    assert cutoff(2, np.array([2 * EPS, OUTER_RADIUS - 1])).tolist() == [1, 1]


def test_green_band_requires_resolution():
    # transition shells must contain at least 8 lattice modes
    tiny = make_grid(1, 32, 6.0)
    with pytest.raises(ValueError, match="modes"):
        green_band(1, tiny, 1.0)


def test_band_transition_counts_full_lattice():
    # half-spectrum modes count with their conjugate partners, so the
    # transition shells of bands1d hold as many modes as on the full lattice
    preset = builtin_presets()["bands1d"]
    counts = [_shell_mode_count(preset.grid, lo, hi)
              for lo, hi in TRANSITIONS[2]]
    assert counts == [58, 128]


def test_green_band_requires_nyquist_headroom():
    g = make_grid(1, 64, 64.0)  # nyquist pi/2 < outer radius 2
    with pytest.raises(ValueError, match="[Nn]yquist"):
        green_band(3, g, 1.0)


def test_green_band_positive_time():
    g = make_grid(1, 512, 50.0)
    with pytest.raises(ValueError, match="t"):
        green_band(1, g, 0.0)


def test_green_band_sum_reconstructs_kernel():
    # band kernels sum to the full kernel (cutoffs partition unity)
    g = make_grid(1, 1024, 100.0)
    t = 5.0
    total = sum(green_band(b, g, t).values for b in (1, 2, 3))
    table = build_symbol_table(g, t)
    from dissipwave.grid import inverse_transform
    from dissipwave.symbols import _delta_spectrum
    full = inverse_transform(g, _delta_spectrum(g) * table.uv)
    assert np.max(np.abs(total - full.values)) < 1e-10


def test_green_band_refinement_stability():
    # sup norm of the low band kernel moves < 5% under grid refinement
    t = 10.0
    coarse = green_band(1, make_grid(1, 1024, 100.0), t)
    fine = green_band(1, make_grid(1, 2048, 100.0), t)
    a = float(np.max(np.abs(coarse.values)))
    b = float(np.max(np.abs(fine.values)))
    assert abs(a - b) / b < 0.05
