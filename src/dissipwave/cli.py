"""Command line front end.

Subcommands:
  verify-symbols   cross-check closed-form mode symbols against an ODE solver
  green-bands      frequency-band kernel decay study
  simulate         run a preset or config file end to end
  decay-report     fit decay slopes, fresh run or from a prior series.csv
  energy-audit     check energy monotonicity and balance of a semilinear run

Configs are flat key=value text files ('#' starts a comment); --config also
accepts a built-in preset name.  A subcommand checks all its input before it
makes <out>/<name>/<timestamp>/; main closes that directory with a
manifest.txt whose comments open with the command line and end in the
verdict and that relaunches as a config file.  Exit codes: 0 all checks
passed, 1 a verdict failed, 2 bad config or --run input, 3 the run left the
stability trust region, 4 an internal error (an uncaught exception).
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, oracle, presets, solver, symbols
from .analysis import DecayReport
from .grid import write_snapshot
from .presets import (ExperimentPreset, builtin_presets, preset_from_config,
                      preset_to_config)

DEFAULT_OUT = "runs"
OUT_ENV = "DISSIPWAVE_OUT"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_ERROR = 4

# the manifest's closing verdict word for each exit code
VERDICT = {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_CONFIG: "error",
           EXIT_UNSTABLE: "unstable", EXIT_ERROR: "error"}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blank lines are skipped."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _apply_overrides(cfg: dict[str, str], sets: list[str]) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()


def resolve_preset(config_arg: str | None, sets: list[str],
                   default_name: str | None = None) -> ExperimentPreset:
    """Turn --config (file path or preset name) plus --set into a preset."""
    name = config_arg if config_arg is not None else default_name
    if name is None:
        raise ConfigError("a --config file or preset name is required")
    builtins = builtin_presets()
    if os.path.exists(name):
        try:
            text = Path(name).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {name}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{name} is not a text file: {exc.reason} at "
                              f"byte {exc.start}") from None
        cfg = parse_config_text(text, source=name)
    elif name in builtins:
        cfg = preset_to_config(builtins[name])
    else:
        raise ConfigError(
            f"config {name!r} is neither a file nor a built-in preset "
            f"(known: {', '.join(sorted(builtins))})")
    _apply_overrides(cfg, sets)
    try:
        preset = preset_from_config(cfg)
        preset.data_files  # read and grid-checked here, reused by the run
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return preset


def make_run_dir(out_root: str | None, name: str) -> Path:
    root = Path(out_root or os.environ.get(OUT_ENV) or DEFAULT_OUT)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%SZ")
    base = root / name / stamp
    path, k = base, 1
    while path.exists():
        path = base.with_name(f"{stamp}-{k}")
        k += 1
    try:
        path.mkdir(parents=True)
    except OSError as exc:
        raise ConfigError(f"cannot make a run directory under {root}: "
                          f"{exc.strerror}") from None
    return path


def write_manifest(run_dir: Path, argv_echo: str,
                   preset: ExperimentPreset | None,
                   comments: list[str]) -> None:
    comments = [f"dissipwave run: {argv_echo}",
                f"created: {datetime.now(timezone.utc).isoformat()}",
                *comments]
    # a newline in an argument or a message stays inside its comment
    lines = ["# " + c.replace("\n", "\n# ") for c in comments]
    if preset is not None:
        lines += [f"{k} = {v}" for k, v in preset_to_config(preset).items()]
    (run_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _print_report(report: DecayReport, bands: bool = False) -> None:
    if not bands:  # a band row is fit over the span of its own times
        print(f"fit window: t in [{report.window[0]:g}, "
              f"{report.window[1]:g}]")
    for row in report.rows:
        rel = "<=" if row.one_sided else "within"
        status = "PASS" if row.passed else "FAIL"
        print(f"{row.quantity}: slope {row.slope:+.4f} "
              f"(target {rel} {row.target:+.3f}, tol {row.tolerance:.2f}) "
              f"-> {status}")


# ---------------------------------------------------------------------------
# verify-symbols

def _symbol_check_points(preset: ExperimentPreset | None):
    if preset is None:
        xi_sq = np.linspace(0.0, 4.0, 33)
    else:
        vals = preset.grid.freq_levels[0]
        vals = vals[vals <= 16.0]
        take = max(1, len(vals) // 48)
        xi_sq = np.unique(np.concatenate([vals[::take], [0.0, 0.25, vals[-1]]]))
    times = np.linspace(0.0, 10.0, 33)[1:]
    return xi_sq, times


def cmd_verify_symbols(args, open_run):
    preset = (None if args.config is None
              else resolve_preset(args.config, args.set))
    xi_sq, times = _symbol_check_points(preset)
    tol = args.tol
    ode_tol = tol * 1e-2
    try:  # the oracle's own argument check, on no times
        oracle.mode_ode_series(0.0, (), tol=ode_tol)
    except ValueError as exc:
        raise ConfigError(f"--tol {tol:g} asks the ODE reference for "
                          f"{ode_tol:g}: {exc}") from exc
    run_dir = open_run("verify-symbols", preset)

    series = {}
    max_g = max_gt = 0.0
    for x in xi_sq:
        ref_g, ref_gt, _err = oracle.mode_ode_series(float(x), times,
                                                     tol=ode_tol)
        g, g_t = symbols.green_pair(float(x), times)
        eg, egt = np.abs(g - ref_g), np.abs(g_t - ref_gt)
        series[f"abs_err_g:xi_sq={float(x):.6g}"] = (times, eg)
        series[f"abs_err_gt:xi_sq={float(x):.6g}"] = (times, egt)
        max_g, max_gt = max(max_g, eg.max()), max(max_gt, egt.max())

    # continuity across the oscillatory/overdamped branch switch at |xi| = 1/2
    max_branch = 0.0
    for t in (0.1, 1.0, 10.0, 50.0):
        center = t * math.exp(-0.5 * t)
        for x in (0.25 - 1e-9, 0.25, 0.25 + 1e-9):
            max_branch = max(max_branch, abs(symbols.green_pair(x, t)[0] - center))

    ok = max_g <= tol and max_gt <= tol and max_branch <= tol
    analysis.write_series_csv(run_dir / "symbols.csv", series)
    print(f"mode symbol vs ODE reference over {len(xi_sq)} modes x "
          f"{len(times)} times:")
    print(f"  max |G - ode|   = {max_g:.3e}")
    print(f"  max |G_t - ode| = {max_gt:.3e}")
    print(f"  branch-point continuity gap = {max_branch:.3e}")
    print(f"  tolerance {tol:.1e} -> {'PASS' if ok else 'FAIL'}")
    return ok, [f"modes checked: {len(xi_sq)}, times per mode: {len(times)}",
                f"max |G - ode| = {max_g:.3e}",
                f"max |G_t - ode| = {max_gt:.3e}",
                f"max branch-point gap = {max_branch:.3e}",
                f"tolerance = {tol:.1e}"]


# ---------------------------------------------------------------------------
# green-bands

def cmd_green_bands(args, open_run):
    preset = resolve_preset(args.config, args.set, default_name="bands1d")
    if preset.kind != "bands":
        raise ConfigError(f"green-bands needs a bands preset, got kind="
                          f"{preset.kind!r}")
    return _run_experiment_cmd(preset, open_run, False)


# ---------------------------------------------------------------------------
# simulate / decay-report

def _snapshot_name(t: float) -> str:
    return f"u_t{t:.6f}.dwf"


def _check_snapshot_names(preset: ExperimentPreset) -> None:
    """A ConfigError if two snapshot times would write one file."""
    seen = {}
    for t in preset.snapshot_times:
        name = _snapshot_name(t)
        if name in seen:
            raise ConfigError(f"{preset.name}: snapshot times {seen[name]!r} "
                              f"and {t!r} share the snapshot file {name}")
        seen[name] = t


def _snapshot_sink(run_dir: Path):
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    def sink(t: float, u) -> None:
        write_snapshot(snap_dir / _snapshot_name(t), u, t)

    return sink


def _decay_report(preset: ExperimentPreset, series: dict) -> DecayReport:
    """The preset's decay report on (times, values) series, live or replayed.
    Data with nothing positive to fit (zero amplitude) gives an empty passing
    report; any other fit error, such as too few samples, is a config error."""
    try:
        return preset.report(series)
    except analysis.NothingToFit as exc:
        print(f"decay fit skipped: {exc}")
        return DecayReport(rows=(), window=preset.fit_window)
    except ValueError as exc:
        raise ConfigError(f"{preset.name}: decay fit: {exc}") from exc


def _run_experiment_cmd(preset: ExperimentPreset, open_run,
                        with_snapshots: bool):
    """Run a preset of any kind: the one writer of series.csv and report.csv."""
    bands = preset.kind == "bands"
    if preset.reports:  # count the samples the fits will get
        try:
            analysis.fit_window_mask(preset.snapshot_times, preset.fit_window)
        except ValueError as exc:
            raise ConfigError(f"{preset.name}: decay fit: {exc}") from exc
    if with_snapshots:  # a bands preset has no snapshot times
        _check_snapshot_names(preset)
    run_dir = open_run(preset.name, preset)

    sink = _snapshot_sink(run_dir) if with_snapshots and not bands else None
    run = presets.run_experiment(preset, snapshot_sink=sink)
    report = _decay_report(preset, run.series)
    analysis.write_series_csv(run_dir / "series.csv", run.series)
    analysis.write_report_csv(run_dir / "report.csv", report)
    _print_report(report, bands)
    if bands:
        r_sq = next(r.r_squared for r in report.rows
                    if r.quantity == "linf:band2")
        print(f"middle band exponential fit r^2 = {r_sq:.4f} "
              f"(need >= {analysis.BAND2_MIN_R_SQUARED:g})")
        return report.passed, [f"middle band log-linear fit r^2 = {r_sq:.6f}"]
    comments = [f"initial data size e0 = {run.e0!r}"]
    if run.ledger is not None:
        energy = run.ledger.series_pairs()
        analysis.write_series_csv(run_dir / "energy.csv", energy)
        comments.append(f"energy balance residual = "
                        f"{analysis.energy_audit(energy).residual!r}")
    return report.passed, comments


def cmd_simulate(args, open_run):
    preset = resolve_preset(args.config, args.set)
    return _run_experiment_cmd(preset, open_run, args.snapshots)


def _read_series(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """analysis.read_series_csv with its errors as config errors."""
    try:
        return analysis.read_series_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_decay_report(args, open_run):
    preset = resolve_preset(args.config, args.set)
    if preset.kind == "bands":
        raise ConfigError("decay-report works on linear/semilinear runs")
    if args.run is None:
        return _run_experiment_cmd(preset, open_run, False)

    series = _read_series(Path(args.run) / "series.csv")
    needed = [analysis.quantity_label(p, a, h) for p, a, h in preset.reports]
    missing = sorted(set(needed) - set(series))
    if missing:
        raise ConfigError(
            f"{args.run}/series.csv lacks series: {', '.join(missing)}")
    report = _decay_report(preset, series)  # a fit error here is bad input
    run_dir = open_run(preset.name, preset)
    analysis.write_report_csv(run_dir / "report.csv", report)
    _print_report(report)
    return report.passed, [f"series source: {args.run}"]


# ---------------------------------------------------------------------------
# energy-audit

def cmd_energy_audit(args, open_run):
    for flag, tol in (("--mono-tol", args.mono_tol),
                      ("--balance-tol", args.balance_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ConfigError(f"{flag} must be finite and >= 0, got {tol:g}")
    preset = resolve_preset(args.config, args.set)
    if preset.kind != "semilinear":
        raise ConfigError("energy-audit needs a semilinear preset")
    if args.run is not None:
        series = _read_series(Path(args.run) / "energy.csv")
        try:
            audit = analysis.energy_audit(series, args.mono_tol,
                                          args.balance_tol)
        except ValueError as exc:
            raise ConfigError(f"{args.run}/energy.csv: {exc}") from None
    run_dir = open_run(preset.name, preset)
    if args.run is None:
        series = presets.run_semilinear(preset).ledger.series_pairs()
        analysis.write_series_csv(run_dir / "energy.csv", series)
        audit = analysis.energy_audit(series, args.mono_tol, args.balance_tol)

    e0, worst_rise, residual, mono_ok, bal_ok = audit
    print(f"E(0) = {e0:.6e} over {len(series['energy'][1])} records")
    print(f"  worst per-step rise {worst_rise:.3e} vs "
          f"{args.mono_tol * e0:.3e} -> {'PASS' if mono_ok else 'FAIL'}")
    print(f"  balance residual {residual:.3e} vs "
          f"{args.balance_tol * e0:.3e} -> {'PASS' if bal_ok else 'FAIL'}")
    source = [] if args.run is None else [f"series source: {args.run}"]
    return mono_ok and bal_ok, source + [
        f"E(0) = {e0!r}",
        f"worst per-step energy rise = {worst_rise!r} "
        f"(allowed {args.mono_tol:g} * E0)",
        f"balance residual = {residual!r} (allowed {args.balance_tol:g} * E0)"]


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissipwave",
        description="pseudo-spectral toolkit for the damped semilinear wave "
                    "equation with absorbing power nonlinearity")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config_required=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=config_required, default=None,
                       help="config file path or built-in preset name")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
        p.add_argument("--out", default=None,
                       help=f"output root (default ${OUT_ENV} or ./{DEFAULT_OUT})")
        p.set_defaults(func=func)
        return p

    p = command("verify-symbols", cmd_verify_symbols,
                "cross-check mode symbols against an ODE solver")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="max allowed symbol error (default 1e-8)")
    command("green-bands", cmd_green_bands,
            "band kernel decay study (default preset bands1d)")
    p = command("simulate", cmd_simulate, "run a preset or config end to end",
                config_required=True)
    p.add_argument("--snapshots", action="store_true",
                   help="also write u snapshots as .dwf files")
    p = command("decay-report", cmd_decay_report,
                "fit decay slopes against theory targets", config_required=True)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="reuse series.csv from a previous run directory")
    p = command("energy-audit", cmd_energy_audit,
                "energy monotonicity and balance check", config_required=True)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="reuse energy.csv from a previous run directory")
    p.add_argument("--mono-tol", type=float, default=analysis.MONO_TOL,
                   help="allowed per-step rise relative to E(0)")
    p.add_argument("--balance-tol", type=float, default=analysis.BALANCE_TOL,
                   help="allowed balance residual relative to E(0)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: each returns (passed, manifest comments) or
    raises, and this is the one place that maps the outcome to an exit
    code, a stderr line and the manifest's closing verdict."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    opened = []  # the (run directory, preset) a subcommand opened

    def open_run(name: str, preset: ExperimentPreset | None) -> Path:
        opened.append((make_run_dir(args.out, name), preset))
        return opened[-1][0]

    try:
        passed, comments = args.func(args, open_run)
        code = EXIT_PASS if passed else EXIT_FAIL
    except ConfigError as exc:
        code, comments = EXIT_CONFIG, [f"config error: {exc}"]
    except solver.InstabilityError as exc:
        code, comments = EXIT_UNSTABLE, [f"run aborted: {exc}"]
    except Exception as exc:
        code = EXIT_ERROR
        comments = [f"internal error: {type(exc).__name__}: {exc}"]
    if code > EXIT_FAIL:  # no verdict: the one-line message goes to stderr
        print(comments[0], file=sys.stderr)
    for run_dir, preset in opened:
        write_manifest(run_dir, shlex.join(argv), preset,
                       comments + [f"verdict: {VERDICT[code]}"])
        print(f"wrote {run_dir}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
