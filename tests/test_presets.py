"""Experiment presets: validation, config round trips, tiny end-to-end runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dissipwave import (ExperimentPreset, SolverConfig, SpectralField,
                        apply_nonlinearity, build_symbol_table,
                        builtin_presets, e0_norm, gaussian_bump,
                        inverse_transform, lp_norm, make_grid,
                        preset_from_config, preset_to_config, run_bands,
                        run_experiment, run_linear, run_semilinear,
                        spectral_derivative, state_from_fields,
                        write_snapshot)
from dissipwave.analysis import energy_audit
from dissipwave.presets import (HEAT_GAP_LABEL, _norm_of, _rounded_times,
                                profile_label)
from dissipwave.solver import step_schedule


def _tiny(**over):
    base = dict(name="tiny", kind="semilinear", n_dims=1, grid_points=64,
                half_width=16.0, amplitude=0.1, theta=3, dt=0.05, t_final=1.0,
                snapshot_times=(0.5, 1.0), fit_window=(0.5, 1.0),
                reports=((math.inf, 0, 0), (2.0, 0, 0)))
    base.update(over)
    return ExperimentPreset(**base)


def test_builtin_presets_validate_and_names_match():
    presets = builtin_presets()
    assert set(presets) == {"lin1d", "lin2d", "semi1d-theta3",
                            "semi2d-theta2", "bands1d"}
    for name, p in presets.items():
        assert p.name == name
        p.grid  # construction already validated; touch the grid property too


def test_config_round_trip_all_builtins():
    for p in builtin_presets().values():
        cfg = preset_to_config(p)
        assert all(isinstance(k, str) and isinstance(v, str)
                   for k, v in cfg.items())
        assert preset_from_config(cfg) == p


def test_config_keys_and_their_order():
    assert list(preset_to_config(builtin_presets()["semi1d-theta3"])) == [
        "name", "kind", "dimension", "grid_points", "half_width",
        "amplitude", "width", "u1_amplitude", "u0_file", "u1_file", "theta",
        "dt", "t_final", "integrator", "dealias", "delta_bar",
        "snapshot_times", "fit_window_lo", "fit_window_hi", "reports",
        "profile_r", "sobolev_index", "eps", "outer_radius", "band1_times",
        "band2_times"]


@pytest.mark.parametrize("over, key, text", [
    (dict(dealias=True), "dealias", "true"),
    (dict(dealias=False), "dealias", "false"),
    (dict(dealias=None), "dealias", "auto"),
    (dict(sobolev_index=3), "sobolev_index", "3"),
    (dict(sobolev_index=None), "sobolev_index", "auto"),
    (dict(reports=()), "reports", ""),
    (dict(half_width=16), "half_width", "16"),
], ids=["dealias-true", "dealias-false", "dealias-auto", "sobolev-3",
        "sobolev-auto", "reports-empty", "int-valued-float"])
def test_config_round_trip_of_non_default_encodings(over, key, text):
    p = _tiny(**over)
    cfg = preset_to_config(p)
    assert cfg[key] == text
    assert preset_from_config(cfg) == p


@pytest.mark.parametrize("key, text, window", [
    ("fit_window_lo", "25", (25.0, 100.0)),
    ("fit_window_hi", "90", (20.0, 90.0)),
])
def test_config_one_fit_window_end_keeps_the_other_default(key, text, window):
    cfg = preset_to_config(_tiny())
    del cfg["fit_window_lo"], cfg["fit_window_hi"]
    cfg[key] = text
    p = preset_from_config(cfg)
    assert p.fit_window == window
    assert preset_to_config(p)[key] == repr(float(text))
    assert preset_from_config(preset_to_config(p)) == p


@pytest.mark.parametrize("text, value", [
    ("AUTO", None), ("", None), ("True", True), ("off", False), (" yes ", True),
])
def test_config_dealias_spellings(text, value):
    cfg = preset_to_config(_tiny())
    cfg["dealias"] = text
    assert preset_from_config(cfg).dealias is value


@pytest.mark.parametrize("edit, message", [
    (dict(dealias="maybe"),
     "config key dealias: expected a boolean, got 'maybe'"),
    (dict(sobolev_index=" X "),
     "config key sobolev_index: invalid literal for int() with base 10: 'x'"),
    (dict(kind=None, dimension=None),
     "missing required config keys: dimension, kind"),
    (dict(b="1", a="2"), "unknown config keys: a, b"),
], ids=["bool", "optional-int", "missing", "unknown"])
def test_config_error_messages(edit, message):
    cfg = {**preset_to_config(_tiny()), **edit}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    with pytest.raises(ValueError) as info:
        preset_from_config(cfg)
    assert str(info.value) == message


def test_config_unknown_key_rejected():
    cfg = preset_to_config(_tiny())
    cfg["cleverness"] = "11"
    with pytest.raises(ValueError, match="unknown config key"):
        preset_from_config(cfg)


def test_config_missing_required_key():
    cfg = preset_to_config(_tiny())
    del cfg["grid_points"]
    with pytest.raises(ValueError, match="missing required"):
        preset_from_config(cfg)


def test_config_bad_value_names_the_key():
    cfg = preset_to_config(_tiny())
    cfg["dt"] = "fast"
    with pytest.raises(ValueError, match="config key dt"):
        preset_from_config(cfg)


def test_gaussian_bump_peak_and_width_guard(grid1d):
    f = gaussian_bump(grid1d, 2.5, 1.0)
    assert float(np.max(f.values)) == pytest.approx(2.5, rel=1e-12)
    assert float(f.values[0]) < 1e-8  # far tail
    with pytest.raises(ValueError, match="width"):
        gaussian_bump(grid1d, 1.0, 0.0)


def test_rounded_times_are_dt_multiples():
    ts = _rounded_times(1.0, 10.0, 7, 0.05, include=(2.0,))
    assert 2.0 in ts
    assert ts == tuple(sorted(set(ts)))
    for t in ts:
        assert abs(round(t / 0.05) * 0.05 - t) < 1e-9


def test_semi2d_step_divides_the_short_cut_times():
    # a short semi2d run stops at t = 2 with snapshots at 1.0, 1.5 and 2.0;
    # a preset step that does not divide them fails the schedule
    cut = replace(builtin_presets()["semi2d-theta2"], t_final=2.0,
                  snapshot_times=(1.0, 1.5, 2.0))
    n_steps, snaps = step_schedule(cut.solver_config())
    assert n_steps * cut.dt == pytest.approx(2.0)
    assert sorted(snaps.values()) == [1.0, 1.5, 2.0]


def test_theta_floor_depends_on_dimension():
    with pytest.raises(ValueError, match="theta"):
        _tiny(theta=2)
    # two dimensions admit theta = 2
    _tiny(n_dims=2, grid_points=32, theta=2)


def test_domain_margin_guard():
    with pytest.raises(ValueError, match="domain too small"):
        _tiny(t_final=15.0, dt=0.5, snapshot_times=(), fit_window=(1.0, 15.0))


def test_snapshot_times_must_fit_horizon():
    with pytest.raises(ValueError, match="snapshot"):
        _tiny(snapshot_times=(0.5, 2.0))


def test_bands_preset_needs_time_lists():
    with pytest.raises(ValueError, match="band"):
        ExperimentPreset(name="b", kind="bands", n_dims=1, grid_points=64,
                         half_width=16.0)


def test_kind_dispatch_guards():
    p = _tiny()
    with pytest.raises(ValueError, match="not linear"):
        run_linear(p)
    with pytest.raises(ValueError, match="not a bands"):
        run_bands(p)
    lin = _tiny(kind="linear", theta=1, reports=((math.inf, 0, 0),))
    with pytest.raises(ValueError, match="not semilinear"):
        run_semilinear(lin)


def test_semilinear_tiny_run_series_shapes():
    p = _tiny()
    run = run_semilinear(p)
    labels = {"linf:u", "l2:u", profile_label(p.profile_r)}
    assert set(run.series) == labels
    for times, vals in run.series.values():
        assert times.tolist() == [0.5, 1.0]
        assert vals.shape == (2,)
        assert np.all(vals > 0)
    assert run.e0 > 0
    assert run.e0 == e0_norm(*p.initial_data(), p.sobolev_s)  # read off the ledger
    # ledger saw every step: 20 steps plus the initial record
    assert len(run.ledger.times) == 21
    assert (energy_audit(run.ledger.series_pairs()).residual
            < 1e-3 * run.ledger.energy[0])


def test_linear_run_includes_heat_gap():
    p = _tiny(kind="linear", theta=1, reports=((math.inf, 0, 0),))
    run = run_linear(p)
    assert HEAT_GAP_LABEL in run.series
    times, gap = run.series[HEAT_GAP_LABEL]
    assert times.tolist() == [0.5, 1.0] and gap.shape == (2,)
    assert set(run.series) == {"linf:u", HEAT_GAP_LABEL}


def test_linear_flow_second_time_derivative_has_no_source():
    # u_tt of the linear flow is Lap u - u_t: at amplitude 1 a theta 3
    # source would move the sup norm by order one
    p = _tiny(kind="linear", amplitude=1.0, u1_amplitude=0.3,
              reports=((math.inf, 0, 2),))
    run = run_linear(p)
    grid = p.grid
    u0, u1 = p.initial_data()
    for t, got in zip(*run.series["linf:dt2_u"]):
        u_hat, v_hat = build_symbol_table(grid, t).apply(
            np.fft.rfftn(u0.values), np.fft.rfftn(u1.values))
        utt = np.fft.irfftn(-grid.freq_sq * u_hat - v_hat, s=grid.shape,
                            axes=(0,))
        assert got == float(np.max(np.abs(utt)))


@pytest.mark.parametrize("config", [
    None, SolverConfig(theta=3, dt=0.05, t_final=1.0),
], ids=["linear", "semilinear"])
def test_norm_of_matches_the_spectral_derivative(config):
    # _norm_of differentiates the physical time derivative in space; the
    # spectral route differentiates u_hat, v_hat or the spectrum of u_tt
    grid = make_grid(2, 32, 8.0)
    state = state_from_fields(gaussian_bump(grid, 0.5, 1.0),
                              gaussian_bump(grid, -0.3, 1.5))
    utt_hat = -grid.freq_sq * state.u_hat - state.v_hat
    if config is not None:
        utt_hat = utt_hat + np.fft.rfftn(
            apply_nonlinearity(state.u, config.theta, config.nonlin_sign))
    spectra = {0: state.u_hat, 1: state.v_hat, 2: utt_hat}
    for alpha in (0, 1, 2):
        for h in (0, 1, 2):
            d_hat = spectral_derivative(SpectralField(grid, spectra[h]),
                                        (alpha, 0))
            for p in (1, 2, math.inf):
                want = lp_norm(inverse_transform(d_hat), p)
                got = _norm_of(state, config, p, alpha, h)
                assert got == pytest.approx(want, rel=1e-12, abs=0), \
                    (alpha, h, p)


def test_lin1d_second_time_derivative_meets_the_linear_rate():
    # sup |u_tt| of the linear flow in 1d decays like t^(-5/2)
    p = replace(builtin_presets()["lin1d"],
                reports=((math.inf, 0, 0), (math.inf, 0, 2)))
    report = run_linear(p).report()
    row = report.rows[1]
    assert row.quantity == "linf:dt2_u" and row.target == -2.5
    assert row.slope == pytest.approx(-2.502, abs=1e-3)
    assert report.passed


def test_run_experiment_dispatch_matches_kind():
    p = _tiny()
    run = run_experiment(p)
    assert run.preset is p
    lin = _tiny(kind="linear", theta=1, reports=((math.inf, 0, 0),))
    assert HEAT_GAP_LABEL in run_experiment(lin).series


def test_snapshot_sink_receives_fields():
    p = _tiny()
    seen = []
    run_semilinear(p, snapshot_sink=lambda t, u: seen.append((t, u)))
    assert len(seen) == 2
    t0, u0 = seen[0]
    assert t0 == pytest.approx(0.5, abs=1e-9)
    assert u0.grid == p.grid


def test_initial_data_from_snapshot_file(tmp_path):
    p = _tiny()
    grid = p.grid
    bump = gaussian_bump(grid, 0.07, 2.0)
    path = tmp_path / "u0.dwf"
    write_snapshot(path, bump, 0.0)
    q = _tiny(u0_file=str(path))
    u0, u1 = q.initial_data()
    assert np.array_equal(u0.values, bump.values)
    assert np.all(u1.values == 0.0)


def test_initial_data_file_grid_mismatch(tmp_path):
    other = make_grid(1, 128, 16.0)
    path = tmp_path / "u0.dwf"
    write_snapshot(path, gaussian_bump(other, 0.1, 1.0), 0.0)
    with pytest.raises(ValueError, match="different grid"):
        _tiny(u0_file=str(path)).initial_data()


def test_tiny_bands_run_shapes():
    p = ExperimentPreset(name="b", kind="bands", n_dims=1, grid_points=512,
                         half_width=64.0, eps=0.45, outer_radius=2.0,
                         band1_times=(2.0, 4.0, 8.0, 12.0, 16.0),
                         band2_times=(1.0, 2.0, 3.0, 4.0, 5.0))
    run = run_bands(p)
    assert list(run.series) == ["linf:band1", "linf:dx_band1", "linf:band2"]
    for label, (times, vals) in run.series.items():
        band = p.band2_times if label == "linf:band2" else p.band1_times
        assert times.tolist() == list(band) and vals.shape == (5,)
    report = run.report()
    assert [r.quantity for r in report.rows] == list(run.series)
    assert report.window == (2.0, 16.0)
    # the middle band decays monotonically from the start
    assert np.all(np.diff(run.series["linf:band2"][1]) < 0)


def test_report_runs_on_tiny_series():
    # five snapshots, the least the fitter accepts; the window edges sit
    # clear of the snapshots because stepped times carry roundoff
    p = _tiny(snapshot_times=(0.2, 0.4, 0.6, 0.8, 1.0), fit_window=(0.1, 1.05))
    report = run_semilinear(p).report()
    assert len(report.rows) == 2  # one row per requested norm
    assert report.window == (0.1, 1.05)
    names = {row.quantity for row in report.rows}
    assert names == {"linf:u", "l2:u"}
