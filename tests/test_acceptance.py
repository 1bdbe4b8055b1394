"""Acceptance gate: the nine headline checks at their stated tolerances.

Each test prints one `ACCEPTANCE k (name): PASS/FAIL (details)` line before
asserting, so `pytest -s tests/test_acceptance.py` doubles as the checklist.
The expensive preset runs are module-scoped fixtures shared across checks.
"""

import math

import numpy as np
import pytest

from dissipwave import (EnergyLedger, InstabilityError, SolverConfig,
                        SolverState, builtin_presets, fit_decay_rate,
                        forward_transform, gaussian_bump, inverse_transform,
                        linear_solution, linear_step, make_grid, run_bands,
                        run_linear, run_semilinear, solve, state_from_fields)
from dissipwave.analysis import energy_audit, fit_window_mask
from dissipwave.grid import Field
from dissipwave.oracle import (dalembert, free_wave_multiplier, mode_ode_series,
                               rk4_reference)
from dissipwave.presets import HEAT_GAP_LABEL, PROFILE_LABEL
from dissipwave.symbols import build_symbol_table, green_hat, green_hat_dt


def _verdict(num: int, name: str, ok: bool, details: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} ({details})")


def _row(report, quantity):
    return next(r for r in report.rows if r.quantity == quantity)


@pytest.fixture(scope="module")
def semi1d_run():
    return run_semilinear(builtin_presets()["semi1d-theta3"])


@pytest.fixture(scope="module")
def semi2d_run():
    return run_semilinear(builtin_presets()["semi2d-theta2"])


@pytest.fixture(scope="module")
def lin1d_run():
    return run_linear(builtin_presets()["lin1d"])


@pytest.fixture(scope="module")
def lin2d_run():
    return run_linear(builtin_presets()["lin2d"])


@pytest.fixture(scope="module")
def bands_run():
    return run_bands(builtin_presets()["bands1d"])


def test_acceptance_1_symbol_correctness():
    xi_sq_grid = np.linspace(0.0, 4.0, 32)
    times = np.linspace(0.0, 10.0, 32)
    worst = 0.0
    for x in xi_sq_grid:
        ref_g, ref_gt, _err = mode_ode_series(float(x), times, tol=1e-10)
        g = green_hat(float(x), times)
        gt = green_hat_dt(float(x), times)
        worst = max(worst,
                    float(np.max(np.abs(g - ref_g))),
                    float(np.max(np.abs(gt - ref_gt))))
    branch = 0.0
    for t in (0.1, 1.0, 10.0, 50.0):
        center = t * math.exp(-t / 2)
        for x in (0.25 - 1e-10, 0.25 + 1e-10):
            branch = max(branch, abs(float(green_hat(x, t)) - center))
    ok = worst <= 1e-8 and branch <= 1e-8
    _verdict(1, "symbol correctness", ok,
             f"max symbol err {worst:.2e} <= 1e-8, "
             f"branch gap {branch:.2e} <= 1e-8")
    assert ok


def test_acceptance_2_propagator_exactness():
    grid = make_grid(1, 4096, 200.0)
    ta = build_symbol_table(grid, 0.7)
    tb = build_symbol_table(grid, 0.4)
    tc = build_symbol_table(grid, 1.1)

    def entries(t):
        return (t.uu, t.uv, t.vu, t.vv)

    a11, a12, a21, a22 = entries(ta)
    b11, b12, b21, b22 = entries(tb)
    c11, c12, c21, c22 = entries(tc)
    semigroup_gap = max(
        float(np.max(np.abs(a11 * b11 + a12 * b21 - c11))),
        float(np.max(np.abs(a11 * b12 + a12 * b22 - c12))),
        float(np.max(np.abs(a21 * b11 + a22 * b21 - c21))),
        float(np.max(np.abs(a21 * b12 + a22 * b22 - c22))))

    u0 = gaussian_bump(grid, 1.0, 1.0)
    u1 = gaussian_bump(grid, 0.3, 2.0)
    table = build_symbol_table(grid, 0.25)
    state = start = state_from_fields(u0, u1)
    for _ in range(64):
        state = linear_step(state, table)
    exact = linear_solution(start, 16.0)
    comp_gap = max(
        float(np.max(np.abs(state.u - exact.u))),
        float(np.max(np.abs(inverse_transform(grid, state.v_hat).values
                            - inverse_transform(grid, exact.v_hat).values))))

    ok = semigroup_gap <= 1e-10 and comp_gap <= 1e-9
    _verdict(2, "propagator exactness", ok,
             f"per-mode semigroup gap {semigroup_gap:.2e} <= 1e-10, "
             f"64-step composition gap {comp_gap:.2e} <= 1e-9")
    assert ok


def test_acceptance_3_energy_law(semi1d_run):
    led = semi1d_run.ledger
    e = np.asarray(led.energy)
    e0 = float(e[0])
    worst_rise = float(np.max(np.diff(e)))
    residual = energy_audit(led.series_pairs()).residual
    mono_ok = worst_rise <= 1e-8 * e0
    bal_ok = residual <= 1e-6 * e0

    # flipped source: absorbing sign reversed, sub-threshold power, so the
    # energy law fails qualitatively and the trust-region guard fires
    grid = make_grid(1, 1024, 40.0)
    cfg = SolverConfig(theta=1, dt=0.02, t_final=20.0, nonlin_sign=+1)
    flip_led = EnergyLedger(sobolev_index=2)
    aborted_at = None
    try:
        solve(state_from_fields(gaussian_bump(grid, 0.5, 1.0),
                                Field(grid, np.zeros(grid.shape))),
              cfg, ledger=flip_led)
    except InstabilityError as exc:
        aborted_at = exc.time
    fe = np.asarray(flip_led.energy)
    flip_rise = float(np.max(np.diff(fe))) if len(fe) > 1 else 0.0
    grew = aborted_at is not None or flip_rise > 1e-8 * float(fe[0])

    ok = mono_ok and bal_ok and grew
    _verdict(3, "energy law", ok,
             f"worst step rise {worst_rise:.2e} <= 1e-8*E0={1e-8 * e0:.2e}, "
             f"balance residual {residual:.2e} <= 1e-6*E0={1e-6 * e0:.2e}, "
             f"flipped sign grew: rise {flip_rise:.2e}, "
             f"aborted at t={aborted_at}")
    assert ok


def test_acceptance_4_linear_decay(lin1d_run, lin2d_run):
    rep1 = lin1d_run.report()
    rep2 = lin2d_run.report()
    s_u = _row(rep1, "linf:u")
    s_dx = _row(rep1, "linf:dx_u")
    s_dt = _row(rep1, "linf:dt_u")
    s_2d = _row(rep2, "linf:u")
    ok = rep1.passed and rep2.passed
    _verdict(4, "linear decay", ok,
             f"1d slopes {s_u.slope:+.4f} (-0.5±0.10), "
             f"{s_dx.slope:+.4f} (-1.0±0.10), "
             f"{s_dt.slope:+.4f} (-1.5±0.15); "
             f"2d slope {s_2d.slope:+.4f} (-1.0±0.10)")
    assert ok


def test_acceptance_5_semilinear_decay(semi1d_run, semi2d_run):
    rep1 = semi1d_run.report()
    rep2 = semi2d_run.report()
    s_sup = _row(rep1, "linf:u")
    s_l2 = _row(rep1, "l2:u")
    s_l1 = _row(rep1, "l1:u")
    s_dt = _row(rep1, "linf:dt_u")
    s_2d = _row(rep2, "linf:u")
    s_2d_dt = _row(rep2, "linf:dt_u")

    times, profile = semi1d_run.series[PROFILE_LABEL]
    i10 = int(np.argmin(np.abs(times - 10.0)))
    ratio = float(np.max(profile[i10:]) / profile[i10])
    profile_ok = ratio <= 3.0

    ok = rep1.passed and rep2.passed and profile_ok
    _verdict(5, "semilinear decay", ok,
             f"1d slopes sup {s_sup.slope:+.4f} (-0.5±0.10), "
             f"L2 {s_l2.slope:+.4f} (-0.25±0.10), "
             f"L1 {s_l1.slope:+.4f} (0±0.10), "
             f"dt_u {s_dt.slope:+.4f} (<= -0.40, observed recorded); "
             f"2d sup {s_2d.slope:+.4f} (-1.0±0.10), "
             f"dt_u {s_2d_dt.slope:+.4f} (<= -0.90); "
             f"weighted profile max/value(10) = {ratio:.3f} <= 3")
    assert ok


def test_acceptance_6_band_decay(bands_run):
    report = bands_run.report()
    b1 = _row(report, "linf:band1")
    dx = _row(report, "linf:dx_band1")
    b2 = _row(report, "linf:band2")
    r2 = b2.r_squared
    ok = report.passed
    _verdict(6, "band decay", ok,
             f"low band slope {b1.slope:+.4f} (-0.5±0.10), "
             f"its x-derivative {dx.slope:+.4f} (-1.0±0.10); "
             f"middle band log-slope {b2.slope:+.4f} < -0.05 "
             f"with r^2 {r2:.5f} >= 0.99")
    assert ok


def test_acceptance_7_convergence_order():
    grid = make_grid(1, 128, 16.0)
    u0 = gaussian_bump(grid, 1.0, 1.0)
    u1 = Field(grid, np.zeros(grid.shape))

    def duhamel(dt):
        return solve(state_from_fields(u0, u1),
                     SolverConfig(theta=3, dt=dt, t_final=1.0)).u

    def rk4(dt):
        return rk4_reference(u0, u1, 3, dt, round(1.0 / dt))

    orders = {}
    for name, final_values in (("rk4", rk4), ("duhamel", duhamel)):
        ref = final_values(0.1 / 16.0)
        e1 = float(np.max(np.abs(final_values(0.1) - ref)))
        e2 = float(np.max(np.abs(final_values(0.05) - ref)))
        orders[name] = math.log2(e1 / e2)
    ok = orders["rk4"] >= 3.5 and orders["duhamel"] >= 1.8
    _verdict(7, "convergence order", ok,
             f"rk4 order {orders['rk4']:.3f} >= 3.5, "
             f"duhamel order {orders['duhamel']:.3f} >= 1.8")
    assert ok


def test_acceptance_8_oracle_agreement(lin1d_run):
    grid = make_grid(1, 256, 20.0)
    data = gaussian_bump(grid, 1.0, 1.0)
    coeffs = forward_transform(data)
    worst = 0.0
    for t in (0.5, 2.0, 4.0):
        integral_half, sum_half = dalembert(data, t)
        sine = inverse_transform(
            grid, coeffs * free_wave_multiplier(grid, t)).values
        cosine = inverse_transform(
            grid, coeffs * np.cos(grid.freq_radius * t)).values
        worst = max(worst,
                    float(np.max(np.abs(integral_half.values - sine))),
                    float(np.max(np.abs(sum_half.values - cosine))))

    gap_fit = fit_decay_rate(*lin1d_run.series[HEAT_GAP_LABEL],
                             builtin_presets()["lin1d"].fit_window)
    ok = worst <= 1e-8 and gap_fit.slope < -0.6
    _verdict(8, "oracle agreement", ok,
             f"1-d characteristics vs multiplier {worst:.2e} <= 1e-8, "
             f"heat-gap slope {gap_fit.slope:+.4f} < -0.6")
    assert ok


def test_acceptance_9_a_priori_boundedness(semi1d_run, semi2d_run):
    details = []
    ok = True
    for run in (semi1d_run, semi2d_run):
        led = run.ledger
        quantity = (np.asarray(led.u_sobolev) ** 2
                    + np.asarray(led.ut_sobolev) ** 2
                    + np.asarray(led.energy))
        peak = float(np.max(quantity))
        bound = 10.0 * run.e0 ** 2
        sup_u = float(np.max(led.sup_norm))
        ok = ok and peak <= bound and sup_u <= 0.5
        details.append(f"{run.preset.name}: peak {peak:.3e} <= "
                       f"10*e0^2={bound:.3e}, sup|u| {sup_u:.3e} <= 0.5")
    _verdict(9, "a priori boundedness", ok, "; ".join(details))
    assert ok


def test_norm_interpolation_along_trajectory(semi1d_run):
    # supporting check: L2 <= sqrt(L1 * Linf) holds along the computed run
    l1 = semi1d_run.series["l1:u"][1]
    l2 = semi1d_run.series["l2:u"][1]
    sup = semi1d_run.series["linf:u"][1]
    assert np.all(l2 <= np.sqrt(l1 * sup) * (1 + 1e-12))


def test_semilinear_fits_see_every_configured_window_sample(semi1d_run,
                                                            semi2d_run):
    # supporting check: the recorded times are the configured snapshot
    # times, so each fit window holds all 11 samples, its edges included
    for run in (semi1d_run, semi2d_run):
        preset = run.preset
        for times, _ in run.series.values():
            assert times.tolist() == list(preset.snapshot_times)
            assert int(fit_window_mask(times, preset.fit_window).sum()) == 11
