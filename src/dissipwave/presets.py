"""Experiment presets and runners.

A preset bundles a grid, Gaussian initial data, stepping parameters, the
snapshot schedule, and the decay quantities to record.  Each runner turns
a preset into one ExperimentRun whose series map every label to its own
(times, values) pair; the CLI and the acceptance suite both consume it.
Presets round-trip losslessly through the flat key=value config format,
whose keys are the preset's fields (n_dims as dimension, fit_window as
fit_window_lo and fit_window_hi), each checked whatever the kind, so a
run's manifest can be fed back in as a config file.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from . import analysis, oracle, solver, symbols
from .analysis import MIN_FIT_POINTS, EnergyLedger, quantity_label
from .grid import (Field, Grid, check_multi_index, derivative_field,
                   forward_transform, make_grid, read_snapshot)

KINDS = ("linear", "semilinear", "bands")

# Domain sizing heuristic: the box half width should cover the influence
# cone with margin, half_width >= 1.6 * t_final + data support radius.
DOMAIN_MARGIN = 1.6

HEAT_GAP_LABEL = "linf:heat_gap"


def _check_width(width: float) -> None:
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")


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


def profile_label(r: float) -> str:
    return f"profile_r{r:g}:u"


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
    t_final: float = 100.0
    integrator: str = "exponential_duhamel"
    dealias: bool | None = None
    delta_bar: float = 0.5
    snapshot_times: tuple[float, ...] = ()
    fit_window: tuple[float, float] = (20.0, 100.0)
    reports: tuple[tuple[float, int, int], ...] = ()
    profile_r: float = 2.0
    sobolev_index: int | None = None
    eps: float = 0.125
    outer_radius: float = 2.0
    band1_times: tuple[float, ...] = ()
    band2_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):  # every float field and float-list entry
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if (f.type.startswith(("float", "tuple[float"))
                    and not all(map(math.isfinite, items))):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        self.grid  # validates dimension, point count, half width
        _check_times("snapshot_times", self.snapshot_times)
        if self.kind == "semilinear":
            min_theta = 2 + math.floor(1.0 / self.n_dims)
            if self.theta < min_theta:
                raise ValueError(
                    f"semilinear decay presets need theta >= {min_theta} "
                    f"in {self.n_dims}d, got {self.theta}")
        if self.kind in ("linear", "semilinear"):
            if self.t_final * DOMAIN_MARGIN > self.half_width + 1e-9:
                raise ValueError(
                    f"domain too small: need half_width >= {DOMAIN_MARGIN} * "
                    f"t_final = {DOMAIN_MARGIN * self.t_final}, "
                    f"got {self.half_width}")
            if any(t < 0 or t > self.t_final + 1e-9 for t in self.snapshot_times):
                raise ValueError("snapshot times must lie in [0, t_final]")
        # every kind checks every key, so no manifest holds a rejected value
        _check_width(self.width)
        analysis.check_sobolev_index(self.sobolev_s)
        for p, a, h in self.reports:  # the rules of the norm's users
            try:
                analysis.check_lp_exponent(p)
                check_multi_index((a,))
                solver.check_time_order(h)
                analysis.target_slope(self.kind, self.n_dims, p, a, h)
            except ValueError as exc:
                entry = _format_reports([(p, a, h)])
                raise ValueError(f"reports entry {entry}: {exc}") from None
        config = self.solver_config()  # the stepping keys
        spec = self.cutoff_spec  # eps and outer_radius
        if self.kind == "semilinear":
            solver.step_schedule(config)  # validates the dt grid
            analysis.check_profile_r(self.profile_r, self.n_dims)
        if self.kind == "bands":
            for band in (1, 2):  # the run samples both transitions
                symbols._check_band_resolution(band, self.grid, spec)
            # each band series is fit over its own times
            if min(len(self.band1_times), len(self.band2_times)) < MIN_FIT_POINTS:
                raise ValueError(f"bands presets need at least {MIN_FIT_POINTS} "
                                 f"band1_times and band2_times")
            _check_times("band1_times", self.band1_times, positive=True)
            _check_times("band2_times", self.band2_times, positive=True)

    @property
    def grid(self) -> Grid:
        return make_grid(self.n_dims, self.grid_points, self.half_width)

    @property
    def sobolev_s(self) -> int:
        return self.n_dims + 1 if self.sobolev_index is None else self.sobolev_index

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
            files[path] = field
        return files

    def solver_config(self) -> solver.SolverConfig:
        return solver.SolverConfig(
            theta=self.theta, dt=self.dt, t_final=self.t_final,
            integrator=self.integrator, dealias=self.dealias,
            snapshot_times=self.snapshot_times, delta_bar=self.delta_bar)

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


def _record_state(preset: ExperimentPreset,
                  config: solver.SolverConfig | None, t: float,
                  state: solver.SolverState, values: dict) -> None:
    for p, a, h in preset.reports:
        values[quantity_label(p, a, h)].append(_norm_of(state, config, p, a, h))
    if preset.kind == "semilinear":
        values[profile_label(preset.profile_r)].append(
            analysis.weighted_profile(solver.u_field(state), t,
                                      preset.profile_r))


def _empty_series(preset: ExperimentPreset) -> dict:
    series: dict = {quantity_label(p, a, h): [] for p, a, h in preset.reports}
    if preset.kind == "semilinear":
        series[profile_label(preset.profile_r)] = []
    if preset.kind == "linear":
        series[HEAT_GAP_LABEL] = []
    return series


def _pairs(times, values: dict) -> dict:
    """{label: (times, values)} for value lists sampled at the same times."""
    times = np.asarray(times)
    return {label: (times, np.asarray(v)) for label, v in values.items()}


def run_linear(preset: ExperimentPreset, snapshot_sink=None) -> ExperimentRun:
    """Evaluate the exact linear flow at the snapshot times.

    Also records the sup distance to the heat evolution of u0 + u1, the
    series behind the diffusion-phenomenon check.
    """
    if preset.kind != "linear":
        raise ValueError(f"preset {preset.name!r} is not linear")
    grid = preset.grid
    u0, u1 = preset.initial_data()
    heat_data = forward_transform(Field(grid, u0.values + u1.values))
    start = solver.state_from_fields(u0, u1)
    values = _empty_series(preset)
    for t in preset.snapshot_times:
        state = solver.linear_step(start, symbols.build_symbol_table(grid, t))
        _record_state(preset, None, t, state, values)
        u = solver.u_field(state)
        gap = u.values - oracle.heat_reference(heat_data, t).values
        values[HEAT_GAP_LABEL].append(float(np.max(np.abs(gap))))
        if snapshot_sink is not None:
            snapshot_sink(float(t), u)
    return ExperimentRun(preset, _pairs(preset.snapshot_times, values),
                         e0=analysis.e0_norm(u0, u1, preset.sobolev_s))


def run_semilinear(preset: ExperimentPreset, snapshot_sink=None) -> ExperimentRun:
    """March the semilinear preset, recording norms at the snapshot times."""
    if preset.kind != "semilinear":
        raise ValueError(f"preset {preset.name!r} is not semilinear")
    u0, u1 = preset.initial_data()
    config = preset.solver_config()
    ledger = EnergyLedger(sobolev_index=preset.sobolev_s)
    times: list = []
    values = _empty_series(preset)

    def observer(t: float, state: solver.SolverState) -> None:
        times.append(t)
        _record_state(preset, config, t, state, values)
        if snapshot_sink is not None:
            snapshot_sink(t, solver.u_field(state))

    solver.solve(u0, u1, config, observers=(observer,), ledger=ledger)
    e0 = ledger.u_sobolev[0] + ledger.ut_sobolev[0]  # = e0_norm(u0, u1, s)
    return ExperimentRun(preset, _pairs(times, values), ledger=ledger, e0=e0)


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


def _rounded_times(lo: float, hi: float, count: int, dt: float | None,
                   include: tuple[float, ...] = ()) -> tuple[float, ...]:
    raw = list(np.geomspace(lo, hi, count)) + list(include)
    if dt is None:
        ts = sorted({round(float(t), 9) for t in raw})
    else:
        ts = sorted({round(round(float(t) / dt) * dt, 9) for t in raw})
    return tuple(t for t in ts if 0 < t <= hi + 1e-9)


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
    # and steps keep the energy-balance residual under 1e-6 E(0).  The
    # quadrature of the ledger's sixth-order dissipation integral, not the
    # solver, sets that residual: 2.7e-8 E(0) for semi1d at dt 0.1.  The
    # semi2d step divides 1.0, 1.5 and 2.0, the snapshot times of short cuts
    semi1d = ExperimentPreset(
        name="semi1d-theta3", kind="semilinear", n_dims=1, grid_points=4096,
        half_width=200.0, amplitude=0.0485, width=2.0, theta=3, dt=0.1,
        t_final=100.0,
        snapshot_times=_rounded_times(1.0, 100.0, 30, 0.1, include=(10.0,)),
        fit_window=(20.0, 100.0),
        reports=((sup, 0, 0), (2, 0, 0), (1, 0, 0), (sup, 0, 1)),
        profile_r=2.0)
    semi2d = ExperimentPreset(
        name="semi2d-theta2", kind="semilinear", n_dims=2, grid_points=256,
        half_width=80.0, amplitude=0.0226, width=2.0, theta=2, dt=0.025,
        t_final=50.0,
        snapshot_times=_rounded_times(1.0, 50.0, 25, 0.025, include=(10.0,)),
        fit_window=(10.0, 50.0),
        reports=((sup, 0, 0), (sup, 0, 1)),
        profile_r=2.0)
    bands1d = ExperimentPreset(
        name="bands1d", kind="bands", n_dims=1, grid_points=4096,
        half_width=200.0, t_final=80.0, eps=0.45, outer_radius=2.0,
        band1_times=tuple(round(float(t), 6) for t in np.geomspace(10.0, 80.0, 8)),
        band2_times=tuple(np.linspace(5.0, 40.0, 8)))
    return {p.name: p for p in (lin1d, lin2d, semi1d, semi2d, bands1d)}


# ---------------------------------------------------------------------------
# flat key=value config: the preset's fields are the schema


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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


def _or_auto(parse, fmt):
    """The (parse, format) pair of an `X | None` field: None is written
    auto and read from auto, none or blank text."""
    return ((lambda text: None if text.strip().lower() in ("auto", "none", "")
             else parse(text)),
            lambda value: "auto" if value is None else fmt(value))


# field type -> (parse, format); a scalar float keeps repr, so 16 stays 16
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "bool | None": _or_auto(_parse_bool, lambda v: str(v).lower()),
    "int | None": _or_auto(lambda text: int(text.strip().lower()), str),
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
    """Flatten a preset to the key=value form (complete, relaunchable)."""
    return {key: fmt(getattr(preset, f.name) if end is None
                     else getattr(preset, f.name)[end])
            for key, (f, end, (_parse, fmt)) in _KEYS.items()}


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
