"""Experiment presets and runners.

A preset bundles a grid, Gaussian initial data, stepping parameters, the
snapshot schedule, and the decay quantities to record.  Each runner turns
a preset into one ExperimentRun whose series map every label to its own
(times, values) pair; the CLI and the acceptance suite both consume it.
Each kind reads the fields KIND_FIELDS lists; every other field keeps its
default.  What every run takes alike is not a field: the Sobolev index is
n + 1, the profile exponent PROFILE_R and the guard bound
solver.GUARD_BOUND, and the solver has one step.  Both flow runners
record a snapshot through one callback (_observer).  Presets round-trip
losslessly through the flat key=value config format, whose keys are the
kind's fields (n_dims as dimension, fit_window as fit_window_lo and
fit_window_hi), so a manifest relaunches as a config.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import analysis, oracle, solver, symbols
from .analysis import MIN_FIT_POINTS, EnergyLedger, quantity_label
from .grid import (Field, Grid, check_multi_index, derivative_field,
                   make_grid, read_snapshot)

# the fields each kind's run reads; a preset's config holds these alone
_GRID = ("name", "kind", "n_dims", "grid_points", "half_width")
_FLOW = _GRID + ("amplitude", "width", "u1_amplitude", "u0_file", "u1_file",
                 "t_final", "snapshot_times", "fit_window", "reports")
KIND_FIELDS = {"linear": _FLOW,
               "semilinear": _FLOW + ("theta", "dt", "dt_doubling_times"),
               "bands": _GRID + ("eps", "outer_radius", "band1_times",
                                 "band2_times")}

# Domain sizing heuristic: the box half width should cover the influence
# cone with margin, half_width >= 1.6 * t_final + data support radius.
DOMAIN_MARGIN = 1.6

HEAT_GAP_LABEL = "linf:heat_gap"

# envelope exponent of a semilinear run's weighted profile; it exceeds
# max(n/2, 1) in every dimension a Grid allows
PROFILE_R = 2.0
PROFILE_LABEL = f"profile_r{PROFILE_R:g}:u"


def _check_width(width: float) -> None:
    # the bump divides by width^2, so a square that underflows to 0 would
    # make it nan at the origin
    if not width > 0 or not width * width > 0:
        raise ValueError(f"width must be positive, with a positive square, "
                         f"got {width}")


def _check_times(name: str, times, positive: bool = False) -> None:
    """A ValueError unless times is strictly increasing and, when positive
    is set, starts above 0."""
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {times}")
    if positive and times and not times[0] > 0:
        raise ValueError(f"{name} must be positive, got {times}")


def gaussian_bump(grid: Grid, amplitude: float, width: float) -> Field:
    """Radial Gaussian amplitude * exp(-|x|^2 / (2 width^2)) centered at 0."""
    _check_width(width)
    return Field(grid, amplitude * np.exp(-0.5 * grid.radius_sq / (width * width)))


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    kind: str
    n_dims: int
    grid_points: int
    half_width: float
    amplitude: float = 1.0
    width: float = 1.0
    u1_amplitude: float = 0.0
    u0_file: str = ""
    u1_file: str = ""
    theta: int = 3
    dt: float = 0.02
    dt_doubling_times: tuple[float, ...] = ()
    t_final: float = 100.0
    snapshot_times: tuple[float, ...] = ()
    fit_window: tuple[float, float] = (20.0, 100.0)
    reports: tuple[tuple[float, int, int], ...] = ()
    eps: float = symbols.CutoffSpec.eps
    outer_radius: float = symbols.CutoffSpec.outer_radius
    band1_times: tuple[float, ...] = ()
    band2_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"kind must be one of {tuple(KIND_FIELDS)}, "
                             f"got {self.kind!r}")
        for f in fields(self):  # unread fields at their defaults, floats finite
            value = getattr(self, f.name)
            if f.name not in KIND_FIELDS[self.kind] and value != f.default:
                raise ValueError(f"{self.kind} presets do not read {f.name}; "
                                 f"leave it at its default")
            items = value if isinstance(value, tuple) else (value,)
            if (f.type.startswith(("float", "tuple[float"))
                    and not all(map(math.isfinite, items))):
                raise ValueError(f"{f.name} must be finite, got {value}")
        self.grid  # validates dimension, point count, half width
        if self.kind == "bands":
            for band in (1, 2):  # the run samples both transitions
                symbols._check_band_resolution(band, self.grid,
                                               self.cutoff_spec)
            # each band series is fit over its own times
            if min(len(self.band1_times), len(self.band2_times)) < MIN_FIT_POINTS:
                raise ValueError(f"bands presets need at least {MIN_FIT_POINTS} "
                                 f"band1_times and band2_times")
            _check_times("band1_times", self.band1_times, positive=True)
            _check_times("band2_times", self.band2_times, positive=True)
            return  # the checks below are the flow's, linear or semilinear
        _check_times("snapshot_times", self.snapshot_times)
        if self.t_final * DOMAIN_MARGIN > self.half_width + 1e-9:
            raise ValueError(
                f"domain too small: need half_width >= {DOMAIN_MARGIN} * "
                f"t_final = {DOMAIN_MARGIN * self.t_final}, "
                f"got {self.half_width}")
        for t in self.snapshot_times:
            if t < 0 or t > self.t_final + 1e-9:
                raise ValueError(f"snapshot times must lie in [0, t_final]: "
                                 f"{t} lies outside [0, {self.t_final}]")
        _check_times("fit_window", self.fit_window)  # lo below hi
        _check_width(self.width)
        for p, a, h in self.reports:  # the rules of the norm's users
            try:
                analysis.check_lp_exponent(p)
                check_multi_index((a,))
                solver.check_time_order(h)
                analysis.target_slope(self.kind, self.n_dims, p, a, h)
            except ValueError as exc:
                entry = _format_reports([(p, a, h)])
                raise ValueError(f"reports entry {entry}: {exc}") from None
        labels = [quantity_label(*entry) for entry in self.reports]
        for label in labels:  # a run keys its series by label
            if labels.count(label) > 1:
                raise ValueError(f"reports entries share the series {label}")
        if self.kind == "semilinear":
            min_theta = 2 + math.floor(1.0 / self.n_dims)
            if self.theta < min_theta:
                raise ValueError(
                    f"semilinear decay presets need theta >= {min_theta} "
                    f"in {self.n_dims}d, got {self.theta}")
            _check_times("dt_doubling_times", self.dt_doubling_times,
                         positive=True)
            solver.step_schedule(self.solver_config())  # validates the dt grid

    @property
    def grid(self) -> Grid:
        return make_grid(self.n_dims, self.grid_points, self.half_width)

    @property
    def sobolev_s(self) -> int:
        return self.n_dims + 1

    @property
    def cutoff_spec(self) -> symbols.CutoffSpec:
        return symbols.CutoffSpec(self.eps, self.outer_radius)

    def initial_data(self) -> tuple[Field, Field]:
        grid = self.grid
        files = self.data_files
        u0 = (files[self.u0_file] if self.u0_file
              else gaussian_bump(grid, self.amplitude, self.width))
        u1 = (files[self.u1_file] if self.u1_file
              else gaussian_bump(grid, self.u1_amplitude, self.width))
        return u0, u1

    @cached_property
    def data_files(self) -> dict[str, Field]:
        """The initial-data files by path, each read and grid-checked once."""
        files = {}
        for path in filter(None, (self.u0_file, self.u1_file)):
            field, _t = read_snapshot(path)
            if field.grid != self.grid:
                raise ValueError(
                    f"initial data file {path} was written on a different grid")
            if not np.isfinite(field.values).all():
                raise ValueError(
                    f"initial data file {path} holds a non-finite sample")
            files[path] = field
        return files

    def solver_config(self) -> solver.SolverConfig:
        return solver.SolverConfig(
            theta=self.theta, dt=self.dt, t_final=self.t_final,
            snapshot_times=self.snapshot_times,
            dt_doubling_times=self.dt_doubling_times)

    def report(self, series: dict) -> analysis.DecayReport:
        """Verdicts on a run's series, which map each label to its own
        (times, values) pair: the band rules for a bands preset, else the
        decay targets of the requested norms."""
        if self.kind == "bands":
            return analysis.band_report(series, self.n_dims)
        return analysis.decay_report(series, self.reports, self.kind,
                                     self.n_dims, self.fit_window)


@dataclass
class ExperimentRun:
    """The recorded series of one run, {label: (times, values)}; a
    semilinear run also keeps its energy ledger and every linear or
    semilinear run its initial data size e0."""

    preset: ExperimentPreset
    series: dict
    ledger: EnergyLedger | None = None
    e0: float = 0.0

    def report(self) -> analysis.DecayReport:
        return self.preset.report(self.series)


def _norm_of(state: solver.SolverState, config: solver.SolverConfig | None,
             p, alpha_order: int, h: int) -> float:
    """Requested norm of a derivative of the state (config None: linear).

    Spatial derivatives are taken along the first axis; mixed multi-index
    directions are not needed by the built-in presets.
    """
    f = solver.time_derivative(state, h, config)
    if alpha_order:
        f = derivative_field(f, (alpha_order,) + (0,) * (f.grid.n_dims - 1))
    return analysis.lp_norm(f, p)


def _observer(preset: ExperimentPreset, config: solver.SolverConfig | None,
              snapshot_sink=None, heat_data: np.ndarray | None = None):
    """The series of a linear or semilinear run, {label: []}, and the
    callback observe(t, state) that records one snapshot: it appends the
    requested norms, then the weighted profile (semilinear) or the sup
    distance to the heat evolution of the spectrum heat_data (linear), and
    hands u to the snapshot sink."""
    norms = {quantity_label(p, a, h): (p, a, h) for p, a, h in preset.reports}
    extra = PROFILE_LABEL if preset.kind == "semilinear" else HEAT_GAP_LABEL
    series: dict = {label: [] for label in (*norms, extra)}

    def observe(t: float, state: solver.SolverState) -> None:
        for label, (p, a, h) in norms.items():
            series[label].append(_norm_of(state, config, p, a, h))
        u = solver.u_field(state)
        if preset.kind == "semilinear":
            series[extra].append(analysis.weighted_profile(u, t, PROFILE_R))
        else:
            gap = u.values - oracle.heat_reference(u.grid, heat_data, t).values
            series[extra].append(float(np.max(np.abs(gap))))
        if snapshot_sink is not None:
            snapshot_sink(float(t), u)

    return series, observe


def _pairs(times, values: dict) -> dict:
    """{label: (times, values)} for value lists sampled at the same times."""
    times = np.asarray(times)
    return {label: (times, np.asarray(v)) for label, v in values.items()}


def run_linear(preset: ExperimentPreset, snapshot_sink=None) -> ExperimentRun:
    """Evaluate the exact linear flow at the snapshot times.

    One solver.LinearFlow from the start state gives every snapshot; it
    forms u_t only when a report reads a time derivative.  Also records
    the sup distance to the heat evolution of u0 + u1, the series behind
    the diffusion-phenomenon check.  The spectra of u0 + u1 and of the
    data size e0 are read off the start state, so each datum is
    transformed once.
    """
    if preset.kind != "linear":
        raise ValueError(f"preset {preset.name!r} is not linear")
    start = solver.state_from_fields(*preset.initial_data())
    series, observe = _observer(preset, None, snapshot_sink,
                                heat_data=start.u_hat + start.v_hat)
    flow = solver.LinearFlow(
        start, with_v=any(h >= 1 for _p, _a, h in preset.reports))
    for t in preset.snapshot_times:
        # the state holds the flow's arrays until the next at(); the
        # observer keeps norms and hands on a fresh physical u, so nothing
        # that leaves the run aliases them.  How long the state lives does
        # not matter: lin2d makes about 32 000 minor page faults either way
        observe(t, flow.at(t))
    e0 = analysis.e0_norm(start, preset.sobolev_s)
    return ExperimentRun(preset, _pairs(preset.snapshot_times, series), e0=e0)


def run_semilinear(preset: ExperimentPreset, snapshot_sink=None) -> ExperimentRun:
    """March the semilinear preset from its start state, recording norms
    at the snapshot times; the data size e0 is read off the start state."""
    if preset.kind != "semilinear":
        raise ValueError(f"preset {preset.name!r} is not semilinear")
    start = solver.state_from_fields(*preset.initial_data())
    config = preset.solver_config()
    ledger = EnergyLedger(sobolev_index=preset.sobolev_s)

    # the observed u is the run's own array, which the next step rewrites,
    # so the sink is handed a copy
    def sink_copy(t: float, u: Field) -> None:
        snapshot_sink(t, Field(u.grid, u.values.copy()))

    series, observe = _observer(preset, config,
                                None if snapshot_sink is None else sink_copy)
    # solve stamps each snapshot with its configured time, in order
    solver.solve(start, config, observer=observe, ledger=ledger)
    e0 = analysis.e0_norm(start, preset.sobolev_s)
    return ExperimentRun(preset, _pairs(preset.snapshot_times, series),
                         ledger=ledger, e0=e0)


def run_bands(preset: ExperimentPreset) -> ExperimentRun:
    """Sample sup norms of the band kernels over the preset's time lists."""
    if preset.kind != "bands":
        raise ValueError(f"preset {preset.name!r} is not a bands preset")
    grid = preset.grid
    spec = preset.cutoff_spec
    band1: dict = {"linf:band1": [], "linf:dx_band1": []}
    for t in preset.band1_times:
        kernel = symbols.green_band(1, grid, t, spec)
        band1["linf:band1"].append(float(np.max(np.abs(kernel.values))))
        grad = derivative_field(kernel, (1,) + (0,) * (grid.n_dims - 1))
        band1["linf:dx_band1"].append(float(np.max(np.abs(grad.values))))
    band2 = [float(np.max(np.abs(symbols.green_band(2, grid, t, spec).values)))
             for t in preset.band2_times]
    return ExperimentRun(preset, {
        **_pairs(preset.band1_times, band1),
        **_pairs(preset.band2_times, {"linf:band2": band2})})


def run_experiment(preset: ExperimentPreset, snapshot_sink=None):
    if preset.kind == "linear":
        return run_linear(preset, snapshot_sink)
    if preset.kind == "semilinear":
        return run_semilinear(preset, snapshot_sink)
    return run_bands(preset)


def _rounded_times(lo: float, hi: float, count: int,
                   preset: ExperimentPreset | None = None,
                   include: tuple[float, ...] = ()) -> tuple[float, ...]:
    """count geometric times in [lo, hi] and the included ones; given a
    semilinear preset, each is moved to the nearest state time of its run
    (solver.step_schedule)."""
    states = None if preset is None else np.array(
        [row[0] for row in solver.step_schedule(preset.solver_config())])
    ts = set()
    for t in map(float, list(np.geomspace(lo, hi, count)) + list(include)):
        if states is not None:
            t = float(states[np.argmin(np.abs(states - t))])
        ts.add(round(t, 9))
    return tuple(t for t in sorted(ts) if 0 < t <= hi + 1e-9)


def builtin_presets() -> dict[str, ExperimentPreset]:
    """The five standard experiments."""
    sup = math.inf
    lin1d = ExperimentPreset(
        name="lin1d", kind="linear", n_dims=1, grid_points=4096,
        half_width=200.0, amplitude=1.0, width=1.0, t_final=100.0,
        snapshot_times=_rounded_times(1.0, 100.0, 33, None),
        fit_window=(20.0, 100.0),
        reports=((sup, 0, 0), (sup, 1, 0), (sup, 0, 1)))
    lin2d = ExperimentPreset(
        name="lin2d", kind="linear", n_dims=2, grid_points=512,
        half_width=80.0, amplitude=1.0, width=1.0, t_final=50.0,
        snapshot_times=_rounded_times(1.0, 50.0, 25, None),
        fit_window=(10.0, 50.0),
        reports=((sup, 0, 0),))
    # semilinear amplitudes put the Sobolev data size near 0.1; the widths
    # and steps keep the energy-balance residual under 1e-6 E(0).  The step
    # doubles at the whole time nearest to where sup|u|^theta has fallen by
    # 2^3 since the epoch began (measured on the constant-step run): a
    # doubled step multiplies the AB3 step's dt^3 error per unit time by
    # 2^3, and the source's relative size |u|^theta falls by as much.  The
    # semi2d step divides 1.0, 1.5 and 2.0, the snapshot times of short
    # cuts, and keeps its first size through t = 2.  Each takes its
    # snapshot times from the state times of its own run
    semi1d = ExperimentPreset(
        name="semi1d-theta3", kind="semilinear", n_dims=1, grid_points=4096,
        half_width=200.0, amplitude=0.0485, width=2.0, theta=3, dt=0.1,
        dt_doubling_times=(6.0, 30.0), t_final=100.0,
        fit_window=(20.0, 100.0),
        reports=((sup, 0, 0), (2, 0, 0), (1, 0, 0), (sup, 0, 1)))
    semi1d = replace(semi1d, snapshot_times=_rounded_times(
        1.0, 100.0, 30, semi1d, include=(10.0,)))
    semi2d = ExperimentPreset(
        name="semi2d-theta2", kind="semilinear", n_dims=2, grid_points=256,
        half_width=80.0, amplitude=0.0226, width=2.0, theta=2, dt=0.025,
        dt_doubling_times=(3.0, 12.0, 39.0), t_final=50.0,
        fit_window=(10.0, 50.0),
        reports=((sup, 0, 0), (sup, 0, 1)))
    semi2d = replace(semi2d, snapshot_times=_rounded_times(
        1.0, 50.0, 25, semi2d, include=(10.0,)))
    bands1d = ExperimentPreset(
        name="bands1d", kind="bands", n_dims=1, grid_points=4096,
        half_width=200.0, eps=0.45, outer_radius=2.0,
        band1_times=tuple(round(float(t), 6) for t in np.geomspace(10.0, 80.0, 8)),
        band2_times=tuple(np.linspace(5.0, 40.0, 8)))
    return {p.name: p for p in (lin1d, lin2d, semi1d, semi2d, bands1d)}


# ---------------------------------------------------------------------------
# flat key=value config: the preset's fields are the schema


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(s.strip()) for s in text.split(",") if s.strip())


def _parse_reports(text: str) -> tuple[tuple[float, int, int], ...]:
    out = []
    for item in (s.strip() for s in text.split(",") if s.strip()):
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"report entry must look like p:alpha:h, got {item!r}")
        p = math.inf if parts[0] == "inf" else float(parts[0])
        out.append((p, int(parts[1]), int(parts[2])))
    return tuple(out)


def _format_reports(reports) -> str:
    return ",".join(f"{'inf' if p == math.inf else f'{p:g}'}:{a}:{h}"
                    for p, a, h in reports)


def _format_float_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# field type -> (parse, format); a scalar float keeps repr, so 16 stays 16
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "tuple[float, ...]": (_parse_float_list, _format_float_list),
    "tuple[tuple[float, int, int], ...]": (_parse_reports, _format_reports),
}


def _config_keys() -> dict:
    """Config key -> (field, end, (parse, format)) in field order.  Each
    field is written under its own name, except n_dims (dimension) and
    fit_window, whose ends 0 and 1 are fit_window_lo and fit_window_hi."""
    keys = {}
    for f in fields(ExperimentPreset):
        if f.name == "fit_window":
            for end, key in enumerate(("fit_window_lo", "fit_window_hi")):
                keys[key] = (f, end, (float, lambda v: repr(float(v))))
        else:
            key = "dimension" if f.name == "n_dims" else f.name
            keys[key] = (f, None, _CODECS[f.type])  # a new type needs a codec
    return keys


_KEYS = _config_keys()


def preset_to_config(preset: ExperimentPreset) -> dict[str, str]:
    """Flatten a preset's kind's fields to the key=value form (relaunchable)."""
    return {key: fmt(getattr(preset, f.name) if end is None
                     else getattr(preset, f.name)[end])
            for key, (f, end, (_parse, fmt)) in _KEYS.items()
            if f.name in KIND_FIELDS[preset.kind]}


def preset_from_config(cfg: dict[str, str]) -> ExperimentPreset:
    """Build a validated preset from flat config text values.

    Unknown keys are hard errors; missing optional keys, and a fit window
    end given alone, fall back to the dataclass defaults.
    """
    unknown = sorted(set(cfg) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(key for key, (f, _end, _codec) in _KEYS.items()
                     if f.default is MISSING and key not in cfg)
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")

    kwargs = {}
    for key, raw in cfg.items():
        f, end, (parse, _fmt) = _KEYS[key]
        try:
            value = parse(raw)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
        if end is not None:  # one end of a pair, the other as given or default
            pair = list(kwargs.get(f.name, f.default))
            pair[end] = value
            value = tuple(pair)
        kwargs[f.name] = value
    return ExperimentPreset(**kwargs)
