"""Experiment presets: validation, config round trips, tiny end-to-end runs."""

import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from dissipwave import (ExperimentPreset, SolverConfig, apply_nonlinearity,
                        build_symbol_table, builtin_presets,
                        derivative_field, derivative_multiplier,
                        forward_transform, gaussian_bump, heat_reference,
                        inverse_transform, linear_solution, lp_norm,
                        make_grid, preset_from_config, preset_to_config,
                        quantity_label, run_bands, run_experiment, run_linear,
                        run_semilinear, spectral_l2_sq, state_from_fields,
                        write_snapshot)
from dissipwave import solver, symbols
from dissipwave.analysis import energy_audit, sobolev_weight
from dissipwave.presets import (HEAT_GAP_LABEL, PROFILE_LABEL, _norm_of,
                                _observer, _rounded_times)
from dissipwave.solver import LinearFlow, step_schedule, time_derivative


_TINY = dict(name="tiny", kind="semilinear", n_dims=1, grid_points=64,
             half_width=16.0, amplitude=0.1, theta=3, dt=0.05, t_final=1.0,
             snapshot_times=(0.5, 1.0), fit_window=(0.5, 1.0),
             reports=((math.inf, 0, 0), (2.0, 0, 0)))


def _tiny(**over):
    return ExperimentPreset(**{**_TINY, **over})


def _tiny_linear(**over):
    """The tiny preset as a linear one, without the theta and dt it does
    not read."""
    base = {k: v for k, v in _TINY.items() if k not in ("theta", "dt")}
    return ExperimentPreset(**{**base, "kind": "linear", **over})


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
    presets = builtin_presets()
    assert list(preset_to_config(presets["lin1d"])) == [
        "name", "kind", "dimension", "grid_points", "half_width",
        "amplitude", "width", "u1_amplitude", "u0_file", "u1_file",
        "t_final", "snapshot_times", "fit_window_lo", "fit_window_hi",
        "reports"]
    assert list(preset_to_config(presets["semi1d-theta3"])) == [
        "name", "kind", "dimension", "grid_points", "half_width",
        "amplitude", "width", "u1_amplitude", "u0_file", "u1_file", "theta",
        "dt", "dt_doubling_times", "t_final", "snapshot_times",
        "fit_window_lo", "fit_window_hi", "reports"]
    assert list(preset_to_config(presets["bands1d"])) == [
        "name", "kind", "dimension", "grid_points", "half_width",
        "band1_times", "band2_times"]


@pytest.mark.parametrize("over, key, text", [
    (dict(reports=()), "reports", ""),
    (dict(half_width=16), "half_width", "16"),
], ids=["reports-empty", "int-valued-float"])
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


@pytest.mark.parametrize("edit, message", [
    (dict(kind=None, dimension=None),
     "missing required config keys: dimension, kind"),
    (dict(b="1", a="2"), "unknown config keys: a, b"),
], ids=["missing", "unknown"])
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
    ts = _rounded_times(1.0, 10.0, 7, _tiny(dt=0.05, t_final=10.0),
                        include=(2.0,))
    assert 2.0 in ts
    assert ts == tuple(sorted(set(ts)))
    for t in ts:
        assert abs(round(t / 0.05) * 0.05 - t) < 1e-9


def test_semi2d_step_divides_the_short_cut_times():
    # a short semi2d run stops at t = 2 with snapshots at 1.0, 1.5 and 2.0;
    # a preset step that does not divide them fails the schedule
    cut = replace(builtin_presets()["semi2d-theta2"], t_final=2.0,
                  snapshot_times=(1.0, 1.5, 2.0))
    table = step_schedule(cut.solver_config())
    assert (len(table) - 1) * cut.dt == pytest.approx(2.0)
    assert [t for t, _dt, snapshot in table if snapshot] == [1.0, 1.5, 2.0]
    # the cut stops before the first doubling time: 80 steps of the
    # preset's first size, the run of a constant step
    assert cut.dt_doubling_times[0] > 2.0
    assert len(table) - 1 == 80
    assert {dt for _t, dt, _snapshot in table} == {0.025}


def test_rounded_times_land_on_their_epoch_grid():
    # the steps are 0.05 to t = 2, 0.1 to 4 and 0.2 to 10; rounding onto
    # the 0.05 grid alone would give 2.85, 4.35, 5.35 and 8.1, each off
    # its epoch's grid
    doubling = (2.0, 4.0)
    tiny = _tiny(dt=0.05, dt_doubling_times=doubling, t_final=10.0)
    ts = _rounded_times(1.0, 10.0, 12, tiny, include=(3.0,))
    assert 3.0 in ts and len(ts) == 12 + 1
    _tiny(dt=0.05, dt_doubling_times=doubling, t_final=10.0,
          snapshot_times=ts, fit_window=(1.0, 10.0))


@pytest.mark.parametrize("name, epoch_steps, snapshot_times", [
    ("semi1d-theta3", {0.1: 60, 0.2: 120, 0.4: 175},
     (1.0, 1.2, 1.4, 1.6, 1.9, 2.2, 2.6, 3.0, 3.6, 4.2, 4.9, 5.7, 6.8, 7.8,
      9.2, 10.0, 10.8, 12.6, 14.8, 17.4, 20.4, 24.0, 28.0, 32.8, 38.4, 45.2,
      52.8, 62.0, 72.8, 85.2, 100.0)),
    ("semi2d-theta2", {0.025: 120, 0.05: 180, 0.1: 270, 0.2: 55},
     (1.0, 1.175, 1.375, 1.625, 1.925, 2.25, 2.65, 3.15, 3.7, 4.35, 5.1, 6.0,
      7.05, 8.3, 9.8, 10.0, 11.55, 13.6, 16.0, 18.8, 22.1, 26.1, 30.7, 36.1,
      42.4, 50.0)),
])
def test_builtin_semilinear_schedules(name, epoch_steps, snapshot_times):
    # the epoch table of README: steps of each size, in order, and every
    # snapshot a state of the run, stamped with its configured time
    preset = builtin_presets()[name]
    table = step_schedule(preset.solver_config())
    steps = Counter(dt for _t, dt, _snapshot in table[1:])
    assert list(steps.items()) == list(epoch_steps.items())
    assert len(table) - 1 == sum(epoch_steps.values())
    assert preset.snapshot_times == snapshot_times
    assert tuple(t for t, _dt, snap in table if snap) == snapshot_times


@pytest.mark.parametrize("name", ["semi1d-theta3", "semi2d-theta2"])
def test_halved_step_keeps_every_builtin_time_on_its_grid(name):
    # the remedy the off-grid messages name: a dt that divides the preset's
    # keeps its doubling times, snapshot times and t_final on the grid
    preset = builtin_presets()[name]
    halved = replace(preset, dt=preset.dt / 2)  # validates, no run
    table = step_schedule(halved.solver_config())
    assert tuple(t for t, _dt, snap in table if snap) == preset.snapshot_times
    assert table[-1][0] == preset.t_final


@pytest.mark.parametrize("doubling, message", [
    ((0.6, 0.2), "strictly increasing"),
    ((0.0, 0.6), "positive"),
], ids=["unsorted", "zero"])
def test_doubling_times_are_increasing_and_positive(doubling, message):
    # the epoch grids are step_schedule's to check
    with pytest.raises(ValueError, match=f"dt_doubling_times must be {message}"):
        _tiny(dt_doubling_times=doubling)


def test_doubling_times_at_or_past_t_final_are_ignored():
    # a short cut of a preset keeps its doubling times and steps as before
    cut = _tiny(dt_doubling_times=(1.0, 7.5))
    assert step_schedule(cut.solver_config()) == step_schedule(
        _tiny().solver_config())


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


# a config line is read stripped, so only a preset built in code can hold
# the spaces; tests/test_cli.py runs the names a config can carry
@pytest.mark.parametrize("field, value", [
    ("name", " padded"), ("name", "padded\t"), ("u0_file", "data.dwf "),
    ("u1_file", "data#1.dwf"), ("u1_file", "two\nlines.dwf"),
], ids=["name-lead-space", "name-trail-tab", "u0-file-space", "u1-file-hash",
        "u1-file-newline"])
def test_string_fields_that_do_not_survive_the_config_are_refused(field,
                                                                  value):
    with pytest.raises(ValueError, match=field):
        _tiny(**{field: value})


@pytest.mark.parametrize("over, what", [
    (dict(half_width=1e300, grid_points=16), "corner |x|^2 is inf"),
    (dict(half_width=1e-200, grid_points=16), "corner |x|^2 is 0.0"),
    # only |xi|^2 to the power n + 2, the ledger's top Sobolev term,
    # overflows: |xi|^2 is 1.9e63 and the cell volume 2e-93
    (dict(n_dims=3, grid_points=16, half_width=1e-30), "|xi|^10 is inf"),
], ids=["huge", "tiny", "sobolev-power"])
def test_a_box_the_floats_cannot_hold_is_refused(over, what):
    with pytest.raises(ValueError, match="half_width") as info:
        _tiny_linear(**over)
    assert str(info.value).endswith(what)


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
    lin = _tiny_linear(reports=((math.inf, 0, 0),))
    with pytest.raises(ValueError, match="not semilinear"):
        run_semilinear(lin)


def test_semilinear_tiny_run_series_shapes():
    p = _tiny()
    run = run_semilinear(p)
    labels = {"linf:u", "l2:u", PROFILE_LABEL}
    assert set(run.series) == labels
    for times, vals in run.series.values():
        assert times.tolist() == [0.5, 1.0]
        assert vals.shape == (2,)
        assert np.all(vals > 0)
    assert run.e0 > 0
    assert run.e0 == run.ledger.u_sobolev[0] + run.ledger.ut_sobolev[0]
    # ledger saw every step: 20 steps plus the initial record
    assert len(run.ledger.times) == 21
    assert (energy_audit(run.ledger.series_pairs()).residual
            < 1e-3 * run.ledger.energy[0])


def test_linear_run_includes_heat_gap():
    p = _tiny_linear(reports=((math.inf, 0, 0),))
    run = run_linear(p)
    assert HEAT_GAP_LABEL in run.series
    times, gap = run.series[HEAT_GAP_LABEL]
    assert times.tolist() == [0.5, 1.0] and gap.shape == (2,)
    assert set(run.series) == {"linf:u", HEAT_GAP_LABEL}


def test_run_linear_walks_one_flow_from_one_start_state(monkeypatch):
    # one solver.LinearFlow per run, from the start state, evaluated once
    # per snapshot time in order; it forms u_t only when a report has h >= 1
    import dissipwave.solver as solver
    flows, times = [], []

    class Counted(solver.LinearFlow):
        def __init__(self, start, with_v=True):
            flows.append((start, with_v))
            super().__init__(start, with_v)

        def at(self, t):
            times.append(t)
            return super().at(t)

    monkeypatch.setattr(solver, "LinearFlow", Counted)
    for reports, with_v in ((((math.inf, 0, 0),), False),
                            (((math.inf, 0, 0), (math.inf, 0, 1)), True)):
        flows.clear()
        times.clear()
        p = _tiny_linear(reports=reports,
                         snapshot_times=(0.25, 0.5, 0.75, 1.0))
        run_linear(p)
        (start, got_with_v), = flows
        assert got_with_v is with_v
        u0, u1 = p.initial_data()
        assert np.array_equal(start.u_hat, np.fft.rfftn(u0.values))
        assert np.array_equal(start.v_hat, np.fft.rfftn(u1.values))
        assert times == list(p.snapshot_times)


_TINY_2D_LINEAR = dict(n_dims=2, grid_points=32, half_width=8.0,
                       amplitude=0.8, u1_amplitude=-0.3, t_final=4.0,
                       snapshot_times=(0.5, 1.0, 2.0, 3.0, 4.0),
                       fit_window=(1.0, 4.0))


@pytest.mark.parametrize("reports", [
    ((math.inf, 0, 0),),
    ((math.inf, 0, 0), (math.inf, 1, 0), (math.inf, 0, 1)),
], ids=["u-row", "u-and-v-rows"])
def test_run_linear_matches_the_per_snapshot_reference_route(reports):
    # every series is what linear_solution, time_derivative and the heat
    # oracle give snapshot by snapshot, bit for bit
    p = _tiny_linear(**_TINY_2D_LINEAR, reports=reports)
    run = run_linear(p)
    grid = p.grid
    start = state_from_fields(*p.initial_data())
    heat_data = start.u_hat + start.v_hat
    want = {label: [] for label in run.series}
    for t in p.snapshot_times:
        state = linear_solution(start, t)
        for q, a, h in reports:
            f = time_derivative(state, h, None)
            if a:
                f = derivative_field(f, (a, 0))
            want[quantity_label(q, a, h)].append(lp_norm(f, q))
        gap = state.u - heat_reference(grid, heat_data, t).values
        want[HEAT_GAP_LABEL].append(float(np.max(np.abs(gap))))
    for label, (times, values) in run.series.items():
        assert times.tolist() == list(p.snapshot_times)
        assert values.tolist() == want[label], label


def test_run_linear_snapshots_alias_no_flow_array():
    # the flow reuses its spectra from one snapshot to the next; each
    # field handed to the sink must still be its own snapshot's u
    p = _tiny_linear(**_TINY_2D_LINEAR, reports=((math.inf, 0, 0),))
    kept = []
    run = run_linear(p, snapshot_sink=lambda t, u: kept.append((t, u)))
    start = state_from_fields(*p.initial_data())
    assert [t for t, _u in kept] == list(p.snapshot_times)
    for t, u in kept:
        assert np.array_equal(u.values, linear_solution(start, t).u), t
    assert len({id(u.values) for _t, u in kept}) == len(kept)
    assert run.series["linf:u"][1].tolist() == [
        float(np.max(np.abs(u.values))) for _t, u in kept]


def test_gaussian_bump_allocates_only_its_field():
    # the field is formed in place in the fresh |x|^2
    g = make_grid(2, 256, 16.0)
    g.coords
    field = np.empty(g.shape).nbytes
    assert traced_peak(lambda: gaussian_bump(g, 0.4, 1.5)) <= 1.5 * field


# with u1 = 0 the flow keeps u0's spectrum alone, and the run drops the
# start state once the flow is built, so its budget counts one start
# spectrum, not two
_ROWS_AND_U1 = pytest.mark.parametrize("reports, rows, u1", [
    (((math.inf, 0, 0),), 0, -0.3),
    (((math.inf, 0, 0), (math.inf, 0, 1)), 2, -0.3),
    (((math.inf, 0, 0),), 0, 0.0),
    (((math.inf, 0, 0), (math.inf, 0, 1)), 2, 0.0),
], ids=["u-row", "u-and-v-rows", "u-row-zero-u1", "u-and-v-rows-zero-u1"])


@_ROWS_AND_U1
def test_run_linear_peak_memory_is_its_design(reports, rows, u1):
    # the budget in complex half spectra C, from what the run must hold:
    # the start spectra (2, or 1 for u1 = 0); the flow's work spectrum
    # (1), in which the u row alone is formed and transformed, its rows
    # when a report reads u_t (1 each) and its scratch for a block of
    # lines; the level table's intp index (0.5); the levels and the level
    # values of one time (0.75: under 0.12 C each on this grid); and, per
    # snapshot, the physical u and, with the rows, u_t (a field each),
    # whose inverse transform copies its row (1).  The heat gap is formed
    # a block of lines at a time, so a heat field, a kept u0 + u1
    # spectrum, a second work spectrum or a cached |x|^2 or |xi|^2 breaks
    # it, and no array may pile up across snapshots.  e0 is read before
    # the flow is built, its weights formed and dropped in its call
    few = _tiny_linear(n_dims=2, grid_points=128, half_width=16.0,
                       amplitude=0.8, u1_amplitude=u1, t_final=8.0,
                       snapshot_times=(1.0, 2.0), fit_window=(1.0, 8.0),
                       reports=reports)
    many = replace(few, snapshot_times=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                                        8.0))
    spectrum = np.empty(few.grid.spectral_shape, dtype=complex).nbytes
    field = np.empty(few.grid.shape).nbytes
    flow = LinearFlow(state_from_fields(*few.initial_data()))
    scratch = flow._block.nbytes + flow._gather.nbytes
    peak_few = traced_peak(lambda: run_linear(few))
    peak_many = traced_peak(lambda: run_linear(many))
    copies, fields = (1, 2) if rows else (0, 1)
    starts = 2 if u1 else 1
    assert peak_few <= ((starts + 1 + rows + 0.5 + 0.75 + copies) * spectrum
                        + fields * field + scratch)
    assert peak_many <= peak_few + 0.05 * spectrum


@_ROWS_AND_U1
def test_run_linear_1d_peak_memory_is_its_design(reports, rows, u1):
    # in 1-d every stored mode is its own |xi|^2 level, so a level array
    # is 0.5 C and the line scratch is the whole line (1.5 C).  The run
    # holds the start spectra (2, or 1 for u1 = 0), the work spectrum
    # (1), the rows when a report reads u_t (1 each), the scratch (1.5),
    # the levels and their index (1), the grid's cached frequencies (0.5)
    # and sample positions (2 fields).  On top of that, one time's
    # tabulation: green_pair's working set, m, w, g, G_t, its masks and
    # the level arrays and temporaries of its last branch, under 6.5 C,
    # which also holds the entries of the rows and then the snapshot's u
    # and u_t
    p = _tiny_linear(n_dims=1, grid_points=4096, half_width=200.0,
                     amplitude=0.8, u1_amplitude=u1, t_final=8.0,
                     snapshot_times=(1.0, 2.0), fit_window=(1.0, 8.0),
                     reports=reports)
    spectrum = np.empty(p.grid.spectral_shape, dtype=complex).nbytes
    field = np.empty(p.grid.shape).nbytes
    peak = traced_peak(lambda: run_linear(p))
    starts = 2 if u1 else 1
    assert peak <= ((starts + 1 + rows + 1.5 + 1 + 0.5 + 6.5) * spectrum
                    + 2 * field)


def test_run_linear_leaves_no_traced_memory():
    # a run owns every array it makes, weights included, so once it
    # returns nothing of its grid, its data or its flow is left.  lin2d's
    # run on a box no other test uses, so nothing of it was cached before;
    # numpy's own caches leave a few hundred bytes
    p = replace(builtin_presets()["lin2d"], half_width=96.0)
    spectrum = np.empty(p.grid.spectral_shape, dtype=complex).nbytes
    left = []

    def run():
        run_linear(p)
        left.append(tracemalloc.get_traced_memory()[0])

    traced_peak(run)
    assert left[0] < 0.01 * spectrum


def test_linear_snapshot_allocates_no_complex_spectrum():
    # from one snapshot's sink call to the next the run evaluates the flow,
    # its u and the heat gap: u is formed and transformed in place in the
    # flow's work spectrum, and the heat gap is taken there a block of
    # lines at a time, so beyond the fresh u, which replaces the last
    # snapshot's, no spectrum-sized array is allocated
    p = _tiny_linear(n_dims=2, grid_points=128, half_width=16.0,
                     amplitude=0.8, u1_amplitude=-0.3, t_final=8.0,
                     snapshot_times=(1.0, 2.0, 4.0, 8.0),
                     fit_window=(1.0, 8.0), reports=((math.inf, 0, 0),))
    spectrum = np.empty(p.grid.spectral_shape, dtype=complex).nbytes
    marks = []

    def sink(t, u):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    traced_peak(lambda: run_linear(p, snapshot_sink=sink))
    growth = [peak - base for (base, _), (_, peak) in zip(marks, marks[1:])]
    assert len(growth) == 3
    assert max(growth) < 0.5 * spectrum


def test_two_u_t_reports_read_one_u_t(monkeypatch):
    # every h >= 1 report of one snapshot reads the same state and the
    # same u_t, the transform of its u_t row: a read leaves the row as it
    # was for the next
    read = []

    def spy(state, h, config):
        f = time_derivative(state, h, config)
        read.append((state, f.values))
        return f

    monkeypatch.setattr(solver, "time_derivative", spy)
    p = _tiny_linear(**_TINY_2D_LINEAR,
                     reports=((math.inf, 0, 1), (math.inf, 1, 1)))
    run_linear(p)
    start = state_from_fields(*p.initial_data())
    assert len(read) == 2 * len(p.snapshot_times)
    for k, t in enumerate(p.snapshot_times):
        (state, u_t), *others = read[2 * k:2 * k + 2]
        assert all(s is state and np.array_equal(v, u_t) for s, v in others)
        want = inverse_transform(p.grid, linear_solution(start, t).v_hat)
        assert np.array_equal(u_t, want.values)


def test_heat_gap_observation_forms_no_field_sized_array():
    # one observe call is traced alone, with u built beforehand: reading
    # the u norm and the heat gap, whose heat evolution is formed and
    # compared a block of lines at a time in the flow's arrays, forms no
    # field-sized array, only the heat factor on the levels (two level
    # arrays)
    p = _tiny_linear(n_dims=2, grid_points=128, half_width=16.0,
                     amplitude=0.8, u1_amplitude=-0.3, t_final=8.0,
                     snapshot_times=(1.0, 2.0), fit_window=(1.0, 8.0),
                     reports=((math.inf, 0, 0),))
    start = state_from_fields(*p.initial_data())
    flow = LinearFlow(start, with_v=False)
    state = flow.at(2.0)
    heat = heat_reference(p.grid, start.u_hat + start.v_hat, 2.0).values
    want = float(np.max(np.abs(state.u - heat)))
    series, observe = _observer(p, None, None, flow.heat_gap)
    levels = p.grid.freq_levels[0].nbytes
    peak = traced_peak(lambda: observe(2.0, state))
    assert peak < 2 * levels + 0.05 * state.u.nbytes
    assert series[HEAT_GAP_LABEL] == [want]
    assert series["linf:u"] == [float(np.max(np.abs(state.u)))]


def test_run_semilinear_snapshots_alias_no_run_array():
    # the steps rewrite the run's physical u in place; each field handed to
    # the sink must still be its own snapshot's u after the run
    p = _tiny(**_TINY_2D_LINEAR)
    kept = []
    run = run_semilinear(p, snapshot_sink=lambda t, u: kept.append(
        (t, u, u.values.copy())))
    assert [t for t, _u, _copy in kept] == list(p.snapshot_times)
    for t, u, copy in kept:
        assert np.array_equal(u.values, copy), t
    assert len({id(u.values) for _t, u, _copy in kept}) == len(kept)
    assert run.series["linf:u"][1].tolist() == [
        float(np.max(np.abs(u.values))) for _t, u, _copy in kept]


def test_run_semilinear_frees_the_start_state_after_the_first_step(
        monkeypatch):
    # the first step writes the run's own state pair, so from then on the
    # start state's spectra and u need not be held
    starts = []

    def start_state(u0, u1, make=solver.state_from_fields):
        state = make(u0, u1)
        starts.append(weakref.ref(state))
        return state

    monkeypatch.setattr(solver, "state_from_fields", start_state)
    p = _tiny(snapshot_times=(0.05, 1.0))  # after the first step, the last
    alive = []
    run = run_semilinear(p, snapshot_sink=lambda t, u: alive.append(
        (t, starts[0]() is not None)))
    assert len(starts) == 1
    assert alive == [(0.05, False), (1.0, False)]
    assert run.e0 == _e0_of_the_data(p)


def _e0_of_the_data(p):
    """|u0|_{H^{s+1}} + |u1|_{H^s} of the preset's data, each field
    transformed here."""
    grid, s = p.grid, p.sobolev_s
    return sum(math.sqrt(spectral_l2_sq(grid, forward_transform(f),
                                        sobolev_weight(grid, k)))
               for f, k in zip(p.initial_data(), (s + 1, s)))


def test_linear_run_e0_is_read_off_the_start_spectra():
    p = _tiny_linear(**_TINY_2D_LINEAR, reports=((math.inf, 0, 0),))
    assert p.u1_amplitude != 0
    assert run_linear(p).e0 == _e0_of_the_data(p)


def test_semilinear_run_e0_is_read_off_the_start_spectra():
    # the same route as a linear run's, and the ledger's first record, so
    # gate 9 compares like with like
    p = _tiny(**_TINY_2D_LINEAR)
    assert p.u1_amplitude != 0
    run = run_semilinear(p)
    assert run.e0 == _e0_of_the_data(p)
    assert run.e0 == run.ledger.u_sobolev[0] + run.ledger.ut_sobolev[0]


def test_linear_flow_second_time_derivative_has_no_source():
    # u_tt of the linear flow is Lap u - u_t: at amplitude 1 a theta 3
    # source would move the sup norm by order one
    p = _tiny_linear(amplitude=1.0, u1_amplitude=0.3,
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
def test_norm_of_matches_the_derivative_multiplier(config):
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
            d_hat = spectra[h] * derivative_multiplier(grid, (alpha, 0))
            for p in (1, 2, math.inf):
                want = lp_norm(inverse_transform(grid, d_hat), p)
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
    lin = _tiny_linear(reports=((math.inf, 0, 0),))
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
                         half_width=64.0,
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


def test_bands_run_forms_its_delta_spectrum_once(monkeypatch):
    # every kernel of the run is the transform of one delta spectrum
    # times its multiplier, so the run forms that spectrum once and hands
    # it to each green_band call
    made = []

    def delta_spectrum(grid, make=symbols._delta_spectrum):
        made.append(grid)
        return make(grid)

    p = ExperimentPreset(name="b", kind="bands", n_dims=1, grid_points=512,
                         half_width=64.0,
                         band1_times=(2.0, 4.0, 8.0, 12.0, 16.0),
                         band2_times=(1.0, 2.0, 3.0, 4.0, 5.0))
    want = run_bands(p).series
    monkeypatch.setattr(symbols, "_delta_spectrum", delta_spectrum)
    got = run_bands(p).series
    assert made == [p.grid]
    for label, (times, values) in want.items():
        assert got[label][1].tolist() == values.tolist()


def test_report_runs_on_tiny_series():
    # five snapshots, the least the fitter accepts; the window edges sit
    # clear of the snapshots because stepped times carry roundoff
    p = _tiny(snapshot_times=(0.2, 0.4, 0.6, 0.8, 1.0), fit_window=(0.1, 1.05))
    report = run_semilinear(p).report()
    assert len(report.rows) == 2  # one row per requested norm
    assert report.window == (0.1, 1.05)
    names = {row.quantity for row in report.rows}
    assert names == {"linf:u", "l2:u"}
