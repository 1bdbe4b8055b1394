"""Norms, energy ledger, decay fitting, report plumbing."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from conftest import traced_peak
from dissipwave import (EnergyLedger, Field, builtin_presets, decay_report,
                        derivative_field, e0_norm, fit_decay_rate,
                        fit_exponential_rate, forward_transform,
                        gaussian_bump, linear_solution, lp_norm, make_grid,
                        quantity_label, solve, spectral_l2_sq,
                        state_from_fields, weighted_profile)
from dissipwave.analysis import (MIN_FIT_POINTS, NothingToFit,
                                 decay_tolerance, energy_audit, field_label,
                                 read_series_csv, sobolev_weight,
                                 target_slope, write_report_csv,
                                 write_series_csv)


def test_lp_norm_indicator(grid1d):
    vals = np.zeros(grid1d.shape)
    vals[:5] = 1.0
    f = Field(grid1d, vals)
    assert lp_norm(f, 1) == pytest.approx(5 * grid1d.dx, rel=1e-14)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(5 * grid1d.dx), rel=1e-14)
    assert lp_norm(f, math.inf) == 1.0


@pytest.mark.parametrize("values", [
    [-3.0, -0.5, -7.25, -1e-300],  # negative only: the sup is -min
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, -0.0, -0.0, -0.0],
    [2.5, -2.5, 1.0, -0.0],
], ids=["negative", "signed-zeros", "negative-zeros", "tie"])
def test_lp_norm_sup_is_max_abs_bit_for_bit(values):
    g = make_grid(1, 16, 1.0)
    f = Field(g, np.resize(np.array(values), g.shape))
    got, want = lp_norm(f, math.inf), float(np.max(np.abs(f.values)))
    assert repr(got) == repr(want)


def test_lp_norm_sup_propagates_nan(grid1d):
    for where in (0, grid1d.points_per_dim // 2, -1):
        vals = np.linspace(-1.0, 2.0, grid1d.points_per_dim)
        vals[where] = math.nan
        assert math.isnan(lp_norm(Field(grid1d, vals), math.inf))


def test_lp_norm_gaussian_mass():
    g = make_grid(1, 512, 30.0)
    f = gaussian_bump(g, 1.0, 1.0)
    assert lp_norm(f, 1) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-6)


@pytest.mark.parametrize("n_dims", [1, 2])
@pytest.mark.parametrize("amplitude", [0.05, 50.0])
def test_lp_norm_large_p_is_the_gaussian_closed_form(n_dims, amplitude):
    # |A exp(-|x|^2 / 2 s^2)|_p = A (s sqrt(2 pi / p))^(n/p); the sum of
    # |f|^p itself underflows to 0 at A = 0.05 and overflows at A = 50.
    # The p-th power is a bump of width s/20, sampled at spacing s/32
    p = 400
    f = gaussian_bump(make_grid(n_dims, 256, 4.0), amplitude, 1.0)
    want = amplitude * math.sqrt(2 * math.pi / p) ** (n_dims / p)
    assert lp_norm(f, p) == pytest.approx(want, rel=1e-13)


def test_lp_norm_of_a_zero_field_is_zero(grid1d):
    f = Field(grid1d, np.zeros(grid1d.shape))
    for p in (1, 2, 400, math.inf):
        assert lp_norm(f, p) == 0.0


def test_lp_norm_validation(grid1d):
    with pytest.raises(ValueError):
        lp_norm(Field(grid1d, np.zeros(grid1d.shape)), 0.5)


def test_l2_matches_parseval(grid1d, rng):
    f = Field(grid1d, rng.standard_normal(grid1d.shape))
    direct = lp_norm(f, 2) ** 2
    spectral = spectral_l2_sq(grid1d, forward_transform(f))
    assert direct == pytest.approx(spectral, rel=1e-12)


def test_norm_interpolation_bound(grid1d, rng):
    # L2 <= sqrt(L1 * Linf) on any snapshot
    for _ in range(5):
        f = Field(grid1d, rng.standard_normal(grid1d.shape))
        l1, l2, li = lp_norm(f, 1), lp_norm(f, 2), lp_norm(f, math.inf)
        assert l2 <= math.sqrt(l1 * li) * (1 + 1e-12)


def _sobolev_norm(f, s):
    """|f|_{H^s} from its half spectrum through sobolev_weight."""
    return math.sqrt(spectral_l2_sq(f.grid, forward_transform(f),
                                    sobolev_weight(f.grid, s)))


def test_sobolev_norm_matches_derivative_sums_1d():
    g = make_grid(1, 128, 10.0)
    # band-limited field so spectral derivatives are exact
    x = g.axis_coords
    f = Field(g, np.sin(np.pi / 10.0 * x) + 0.3 * np.cos(3 * np.pi / 10.0 * x))
    s = 3
    direct = sum(lp_norm(derivative_field(f, (k,)), 2) ** 2 for k in range(s + 1))
    assert _sobolev_norm(f, s) == pytest.approx(math.sqrt(direct), rel=1e-10)


def test_sobolev_norm_matches_derivative_sums_2d():
    g = make_grid(2, 32, 8.0)
    xs, ys = g.coords
    f = Field(g, np.sin(np.pi / 8 * xs) * np.cos(2 * np.pi / 8 * ys))
    s = 2
    # |xi|^{2k} expands into multi-index derivative norms with multinomials
    direct = 0.0
    for k in range(s + 1):
        for j in range(k + 1):
            coeff = math.comb(k, j)
            direct += coeff * lp_norm(derivative_field(f, (j, k - j)), 2) ** 2
    assert _sobolev_norm(f, s) == pytest.approx(math.sqrt(direct), rel=1e-10)


def test_e0_norm_decomposition():
    g = make_grid(1, 128, 10.0)
    u0 = gaussian_bump(g, 0.5, 1.0)
    u1 = gaussian_bump(g, 0.25, 2.0)
    s = 2
    # read off the state's spectra: the H^{s+1} size of u plus the H^s of u_t
    assert e0_norm(state_from_fields(u0, u1), s) == (
        _sobolev_norm(u0, s + 1) + _sobolev_norm(u1, s))
    zero = Field(g, np.zeros(g.shape))
    assert e0_norm(state_from_fields(zero, zero), 2) == 0.0


def test_basic_energy_manufactured_state():
    g = make_grid(1, 128, 10.0)
    k = 2 * np.pi / 10.0
    a = 0.3
    u0 = Field(g, a * np.sin(k * g.axis_coords))
    u1 = Field(g, np.zeros(g.shape))
    led = EnergyLedger(sobolev_index=1)
    led.record(0.0, state_from_fields(u0, u1), 2)
    # gradient: (a^2 k^2/2) L; potential: (a^4/4) * (3/8) * (2L), mean of sin^4
    expected = 0.5 * a * a * k * k * 10.0 + (a**4 / 4.0) * (3.0 / 8.0) * 20.0
    assert led.energy[0] == pytest.approx(expected, rel=1e-12)
    assert led.diss_rate[0] == pytest.approx(0.0, abs=1e-20)


def test_weighted_profile_cancels_matching_bump():
    # f(x) = (1 + |x|^2/(1+t))^{-r} makes the weight cancel exactly
    g = make_grid(1, 256, 40.0)
    t, r = 3.0, 2.0
    f = Field(g, (1.0 + g.radius_sq / (1.0 + t)) ** (-r))
    assert weighted_profile(f, t, r) == pytest.approx((1 + t) ** 0.5, rel=1e-12)


def test_weighted_profile_time_exponent():
    # a unit spike at the origin, where the envelope is 1, reads (1+t)^(n/2)
    t = 8.0
    for n in (1, 2):
        g = make_grid(n, 64, 8.0)
        vals = np.zeros(g.shape)
        vals[g.origin_index] = 1.0
        assert weighted_profile(Field(g, vals), t, 2.0) == pytest.approx(
            (1 + t) ** (0.5 * n), rel=1e-12)


def test_weighted_profile_monotone_in_r(grid1d, rng):
    f = Field(grid1d, rng.standard_normal(grid1d.shape))
    t = 2.0
    assert weighted_profile(f, t, 1.5) <= weighted_profile(f, t, 2.5)


def test_weighted_profile_validation(grid1d):
    f = Field(grid1d, np.zeros(grid1d.shape))
    with pytest.raises(ValueError):
        weighted_profile(f, 1.0, 0.5)  # r too small
    with pytest.raises(ValueError):
        weighted_profile(f, -1.0, 2.0)
    assert weighted_profile(f, 1.0, 2.0) == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_weighted_profile_rejects_a_time_that_is_not_finite(grid1d, t):
    # as heat_reference and green_pair do: nan would read nan and inf inf
    f = Field(grid1d, np.ones(grid1d.shape))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        weighted_profile(f, t, 2.0)


def test_fit_decay_rate_exact_power_law():
    t = np.linspace(1.0, 50.0, 40)
    vals = 3.7 * (1 + t) ** (-0.5)
    fit = fit_decay_rate(t, vals, (1.0, 50.0))
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.stderr >= 0.0
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 40


def test_fit_decay_rate_constant_series():
    # ssym == ssxym == 0: r and with it stderr and r^2 are nan, as in scipy,
    # and no 0/0 is evaluated on the way
    t = np.linspace(1.0, 20.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (fit_decay_rate, fit_exponential_rate):
            res = fit(t, np.full(10, 2.0), (1.0, 20.0))
            assert res.slope == 0.0
            assert math.isnan(res.stderr) and math.isnan(res.r_squared)


def test_fit_identical_times_raise_without_warning():
    t = np.array([0.5, 3.0, 3.0, 3.0, 3.0, 3.0, 9.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (fit_decay_rate, fit_exponential_rate):
            with pytest.raises(ValueError, match="^Cannot calculate a linear "
                               "regression if all x values are identical$"):
                fit(t, np.arange(1.0, 8.0), (2.0, 4.0))


@pytest.mark.parametrize("fit, abscissa", [
    (fit_decay_rate, np.log1p), (fit_exponential_rate, lambda ts: ts)],
    ids=["log1p", "linear"])
def test_fit_matches_scipy_linregress_bitwise(fit, abscissa):
    rng = np.random.default_rng(20081018)
    for _ in range(100):
        n = int(rng.integers(MIN_FIT_POINTS, 300))
        t = np.sort(rng.uniform(0.0, 100.0, n))
        vals = np.exp(rng.normal(size=n)) * (1 + t) ** rng.uniform(-2.0, 0.0)
        res = fit(t, vals, (0.0, 100.0))
        ref = linregress(abscissa(t), np.log(vals))
        assert repr(res.slope) == repr(float(ref.slope))
        assert repr(res.stderr) == repr(float(ref.stderr))
        assert repr(res.r_squared) == repr(float(ref.rvalue) ** 2)


def test_fit_decay_rate_perturbed_power_law():
    # window spans a full period of sin(log(1+t)) so the wobble averages out
    t = np.geomspace(1.0, 1000.0, 60)
    vals = (1 + t) ** (-1.0) * (1 + 0.1 * np.sin(np.log(1 + t)))
    fit = fit_decay_rate(t, vals, (1.0, 1000.0))
    assert abs(fit.slope + 1.0) < 0.05


def test_fit_decay_rate_window_excludes_outside_points():
    t = np.linspace(1.0, 50.0, 40)
    vals = 2.0 * (1 + t) ** (-0.75)
    vals[t < 10.0] = 17.0  # garbage outside the window must not matter
    fit = fit_decay_rate(t, vals, (10.0, 50.0))
    assert abs(fit.slope + 0.75) < 1e-12


def test_fit_decay_rate_validation():
    # only finite data with no positive value is NothingToFit; too few
    # samples is a window error even for zero data
    t = np.linspace(1.0, 10.0, MIN_FIT_POINTS - 1)
    for data in (np.ones(len(t)), np.zeros(len(t))):
        with pytest.raises(ValueError, match="samples") as info:
            fit_decay_rate(t, data, (1.0, 10.0))
        assert not isinstance(info.value, NothingToFit)
    t = np.linspace(1.0, 10.0, 10)
    vals = np.ones(10)
    vals[3] = 0.0
    for bad in (vals, np.full(10, np.nan)):
        with pytest.raises(ValueError, match="positive") as info:
            fit_decay_rate(t, bad, (1.0, 10.0))
        assert not isinstance(info.value, NothingToFit)
    with pytest.raises(NothingToFit):
        fit_decay_rate(t, np.zeros(10), (1.0, 10.0))
    with pytest.raises(ValueError, match="window"):
        fit_decay_rate(t, np.ones(10), (10.0, 1.0))


def test_fit_exponential_rate():
    t = np.linspace(0.0, 10.0, 30)
    vals = 5.0 * np.exp(-0.35 * t)
    fit = fit_exponential_rate(t, vals, (0.0, 10.0))
    assert abs(fit.slope + 0.35) < 1e-12
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_target_slopes_and_tolerances():
    assert target_slope("linear", 1, math.inf, 0, 0) == -0.5
    assert target_slope("linear", 1, math.inf, 1, 0) == -1.0
    assert target_slope("linear", 1, math.inf, 0, 1) == -1.5
    assert target_slope("linear", 2, math.inf, 0, 0) == -1.0
    assert target_slope("semilinear", 1, math.inf, 0, 0) == -0.5
    assert target_slope("semilinear", 1, 2, 0, 0) == -0.25
    assert target_slope("semilinear", 1, 1, 0, 0) == 0.0
    assert target_slope("semilinear", 2, math.inf, 0, 0) == -1.0
    assert target_slope("semilinear", 1, math.inf, 0, 1) == -0.5
    with pytest.raises(ValueError):
        target_slope("linear", 1, 2, 0, 0)  # linear targets are sup-norm only
    assert decay_tolerance("linear", 0) == 0.10
    assert decay_tolerance("linear", 1) == 0.15
    assert decay_tolerance("semilinear", 1) == 0.10


def test_quantity_labels():
    assert quantity_label(math.inf, 0, 0) == "linf:u"
    assert quantity_label(2, 0, 0) == "l2:u"
    assert quantity_label(1, 0, 0) == "l1:u"
    assert quantity_label(math.inf, 1, 0) == "linf:dx_u"
    assert quantity_label(math.inf, 0, 1) == "linf:dt_u"
    assert field_label(2, 1) == "dt_dx2_u"


def test_decay_report_pass_and_fail():
    t = np.linspace(1.0, 50.0, 30)
    series = {
        "linf:u": (t, (1 + t) ** (-0.52)),
        "l2:u": (t, (1 + t) ** (-0.80)),  # far from -0.25: must fail
    }
    rep = decay_report(series, ((math.inf, 0, 0), (2, 0, 0)),
                       "semilinear", 1, (10.0, 50.0))
    by_q = {r.quantity: r for r in rep.rows}
    assert by_q["linf:u"].passed
    assert not by_q["l2:u"].passed
    assert not rep.passed
    with pytest.raises(KeyError):
        decay_report(series, ((1, 0, 0),), "semilinear", 1, (10.0, 50.0))


def test_decay_report_one_sided_time_derivative():
    t = np.linspace(1.0, 50.0, 30)
    series = {"linf:dt_u": (t, (1 + t) ** (-1.9))}  # steeper than target passes
    rep = decay_report(series, ((math.inf, 0, 1),), "semilinear", 1,
                       (10.0, 50.0))
    assert rep.rows[0].one_sided and rep.rows[0].passed


def test_energy_ledger_linear_balance():
    # linear flow obeys the energy law once the potential term is negligible,
    # so a small amplitude isolates the quadrature error of the dissipation
    # integral
    g = make_grid(1, 256, 20.0)
    u0 = gaussian_bump(g, 0.01, 1.0)
    u1 = Field(g, np.zeros(g.shape))
    led = EnergyLedger(sobolev_index=2)
    dt = 0.001
    start = state_from_fields(u0, u1)
    for k in range(0, 1001):
        led.record(k * dt, linear_solution(start, k * dt), 3)
    assert energy_audit(led.series_pairs()).residual < 1e-4 * led.energy[0]
    assert len(led.times) == 1001


def _linear_flow_balance(dt, t_final=2.0):
    # theta 7 makes the potential term (|u|^9 at amplitude 0.01) negligible
    # against the quadrature error at every dt below
    g = make_grid(1, 256, 20.0)
    u0 = gaussian_bump(g, 0.01, 1.0)
    u1 = Field(g, np.zeros(g.shape))
    led = EnergyLedger(sobolev_index=1)
    start = state_from_fields(u0, u1)
    for k in range(int(round(t_final / dt)) + 1):
        led.record(k * dt, linear_solution(start, k * dt), 7)
    return energy_audit(led.series_pairs()).residual / led.energy[0]


def test_energy_ledger_balance_is_sixth_order():
    residuals = [_linear_flow_balance(dt) for dt in (0.1, 0.05, 0.025)]
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(orders >= 5.5), (residuals, orders)


def test_energy_ledger_semi1d_data_at_dt_0_04():
    # the built-in semi1d-theta3 data up to t = 2 at dt 0.04, a finer step
    # than the preset's: u_t(0) = 0, so the first intervals carry the
    # steepest relative change of the rate
    preset = replace(builtin_presets()["semi1d-theta3"], dt=0.04,
                     t_final=2.0, snapshot_times=())
    u0, u1 = preset.initial_data()
    led = EnergyLedger(sobolev_index=preset.sobolev_s)
    solve(state_from_fields(u0, u1), preset.solver_config(), ledger=led)
    assert len(led.times) == 51
    assert energy_audit(led.series_pairs()).residual <= 1e-6 * led.energy[0]


@pytest.mark.parametrize("jitter", [0.0, 1e-9])
def test_dissipation_integral_is_sixth_order(jitter):
    # a smooth rate on equispaced times, and on times off the grid by up to
    # 1e-9 relative, as snapshot steps are stamped with their set times
    rng = np.random.default_rng(20081018)
    errors = []
    for n in (41, 81, 161):
        times = np.linspace(0.0, 2.0, n) * (1.0 + jitter * rng.uniform(-1, 1, n))
        rates = np.exp(-times) * np.cos(3.0 * times)
        exact = (np.exp(-times) * (3.0 * np.sin(3.0 * times)
                                   - np.cos(3.0 * times)) + 1.0) / 10.0
        led = EnergyLedger(sobolev_index=1, times=list(times),
                           diss_rate=list(rates))
        errors.append(float(np.max(np.abs(led.dissipation_integral - exact))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 5.5), orders


@pytest.mark.parametrize("n", range(1, 10))
def test_dissipation_integral_is_exact_for_polynomials(n):
    # n records fix a polynomial of degree n - 1, and six records a quintic
    assert EnergyLedger(sobolev_index=1).dissipation_integral.shape == (0,)
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(0.1, 1.0, n))
    rate = np.polynomial.Polynomial(rng.standard_normal(min(n, 6)))
    led = EnergyLedger(sobolev_index=1, times=list(times),
                       diss_rate=list(rate(times)))
    exact = rate.integ()(times) - rate.integ()(times[0])
    assert led.dissipation_integral.shape == (n,)
    np.testing.assert_allclose(led.dissipation_integral, exact, rtol=0,
                               atol=1e-12 * max(1.0, np.max(np.abs(exact))))


def test_energy_ledger_requires_increasing_times(grid1d):
    u0 = gaussian_bump(grid1d, 1.0, 1.0)
    u1 = Field(grid1d, np.zeros(grid1d.shape))
    led = EnergyLedger(sobolev_index=1)
    st0 = state_from_fields(u0, u1)
    led.record(0.0, st0, 2)
    with pytest.raises(ValueError, match="increasing"):
        led.record(0.0, st0, 2)


def test_energy_ledger_record_allocates_no_field():
    # the power spectra and then the |u|^(theta+2) density are formed in
    # the ledger's two real half spectra, allocated at the first record
    g = make_grid(2, 128, 8.0)
    state = state_from_fields(gaussian_bump(g, 0.4, 1.5),
                              gaussian_bump(g, -0.2, 1.2))
    led = EnergyLedger(sobolev_index=1)
    led.record(0.0, state, 2)
    peak = traced_peak(lambda: led.record(1.0, state, 2))
    assert peak < 0.25 * np.empty(g.shape).nbytes


def _record_fields(ledger):
    return (ledger.times, ledger.energy, ledger.diss_rate, ledger.sup_norm,
            ledger.u_sobolev, ledger.ut_sobolev)


def test_energy_ledger_weights_follow_the_grid():
    # a regrid keeps N and doubles the half width, so the spectra keep
    # their shape while the weights change: one ledger recording on each
    # grid in turn, and on a grid of another N, records what a fresh
    # ledger records on each, bit for bit
    grids = (make_grid(2, 64, 8.0), make_grid(2, 64, 16.0),
             make_grid(2, 32, 16.0))
    states = [state_from_fields(gaussian_bump(g, 0.4, 1.5),
                                gaussian_bump(g, -0.2, 1.2)) for g in grids]
    one = EnergyLedger(sobolev_index=3)
    fresh = []
    for t, state in enumerate(states):
        one.record(float(t), state, 2)
        fresh.append(EnergyLedger(sobolev_index=3))
        fresh[-1].record(float(t), state, 2)
    for got, *want in zip(_record_fields(one),
                          *map(_record_fields, fresh)):
        assert got == [w for (w,) in want]


def test_doubling_grids_hold_one_grids_weights_at_a_time():
    # one ledger record and one e0_norm on each of eight grids whose half
    # width doubles, as a regrid's does: the ledger owns the arrays of the
    # grid it last recorded, its two real power spectra and four weights
    # (3 complex half spectra C), and e0_norm keeps nothing, so what is
    # held once a grid's state is dropped stays one grid's: those 3 C,
    # the grid's cached axes and the records (0.22 C here).  Weights
    # cached per grid kept 2 C more for every grid
    ledger = EnergyLedger(sobolev_index=3)
    spectrum = np.empty((64, 33), dtype=complex).nbytes
    held = []

    def run():
        for k in range(8):
            g = make_grid(2, 64, 8.0 * 2**k)
            state = state_from_fields(gaussian_bump(g, 0.4, 1.5),
                                      gaussian_bump(g, -0.2, 1.2))
            ledger.record(float(k), state, 2)
            e0_norm(state, 3)
            del g, state
            held.append(tracemalloc.get_traced_memory()[0])

    traced_peak(run)
    assert max(held) < 3.25 * spectrum
    assert max(held) - held[0] < 0.1 * spectrum


def _energy_series(energy, integral, integral_times=None):
    times = np.arange(len(energy), dtype=float)
    if integral_times is None:
        integral_times = times
    return {"energy": (times, np.asarray(energy, dtype=float)),
            "diss_integral": (np.asarray(integral_times, dtype=float),
                              np.asarray(integral, dtype=float))}


def test_energy_audit_values_and_inclusive_bounds():
    # E - E(0) + int reads 0, 0, 0.25, 0.5; E steps by -1, 0.5, -1.5; both
    # worst values are 0.5 = 0.125 E(0), exact in binary
    series = _energy_series([4.0, 3.0, 3.5, 2.0], [0.0, 1.0, 0.25, 2.5])
    audit = energy_audit(series, 0.125, 0.125)
    assert audit == (4.0, 0.5, 0.5, True, True)
    assert (audit.e0, audit.worst_rise, audit.residual) == (4.0, 0.5, 0.5)
    below = np.nextafter(0.125, 0.0)
    assert energy_audit(series, below, 0.125)[3:] == (False, True)
    assert energy_audit(series, 0.125, below)[3:] == (True, False)


def test_energy_audit_of_one_record_has_no_rise():
    audit = energy_audit(_energy_series([2.0], [0.0]), 0.0, 0.0)
    assert audit == (2.0, 0.0, 0.0, True, True)


@pytest.mark.parametrize("drop, integral_times", [
    ("energy", None), ("diss_integral", None), (None, [0.0, 1.0, 2.5]),
], ids=["no-energy", "no-integral", "unaligned"])
def test_energy_audit_rejects_incomplete_series(drop, integral_times):
    series = _energy_series([3.0, 2.0, 1.5], [0.0, 1.0, 1.5], integral_times)
    series.pop(drop, None)
    with pytest.raises(ValueError):
        energy_audit(series)


def test_series_csv_format(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, {"linf:u": ((0.5, 1.0), (1.25, 0.625)),
                            "l2:u": (np.array([0.5]), np.array([2.0]))})
    text = path.read_text()
    assert text == ("t,quantity,value\n0.5,linf:u,1.25\n1.0,linf:u,0.625\n"
                    "0.5,l2:u,2.0\n")


def test_series_csv_round_trip_is_exact(tmp_path):
    # each series keeps its own times; repr-written values read back exactly
    rng = np.random.default_rng(7)
    t1 = np.sort(rng.uniform(0.0, 100.0, 17))
    t2 = np.geomspace(1e-3, 1e3, 9)
    series = {"linf:u": (t1, rng.lognormal(size=17)),
              "energy": (t2, rng.normal(scale=1e-12, size=9)),
              "abs_err_g:xi_sq=0.25": (t2, np.full(9, math.pi))}
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert list(back) == list(series)
    for label, (times, values) in series.items():
        for written, read in zip((times, values), back[label]):
            assert [repr(float(x)) for x in read] == \
                [repr(float(x)) for x in written]


def test_report_csv_format(tmp_path):
    t = np.linspace(1.0, 50.0, 30)
    rep = decay_report({"linf:u": (t, (1 + t) ** (-0.5))},
                       ((math.inf, 0, 0),), "linear", 1, (10.0, 50.0))
    path = tmp_path / "report.csv"
    write_report_csv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "quantity,slope,stderr,target,tolerance,verdict"
    assert lines[1].startswith("linf:u,") and lines[1].endswith(",pass")


def test_csv_byte_determinism(tmp_path):
    t = 0.1 * np.arange(20)
    series = {"l2:u": (t, np.exp(-0.3 * t))}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(p1, series)
    write_series_csv(p2, series)
    assert p1.read_bytes() == p2.read_bytes()
