"""Command line front end.

Subcommands:
  verify-symbols   cross-check closed-form mode symbols against an ODE solver
  green-bands      frequency-band kernel decay study
  simulate         run a preset or config file end to end
  decay-report     fit decay slopes, fresh run or from a prior series.csv
  energy-audit     check energy monotonicity and balance of a semilinear run

Configs are flat key=value text files ('#' starts a comment); --config also
accepts a built-in preset name.  Each invocation writes into
<out>/<name>/<timestamp>/ and leaves a manifest.txt that can be fed back in
as a config file.  Exit codes: 0 all checks passed, 1 a verdict failed,
2 bad config or --run input, 3 the run left the stability trust region,
4 an internal error (an uncaught exception).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, oracle, presets, solver, symbols
from .analysis import DecayReport, write_report_csv, write_series_csv
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
        cfg = parse_config_text(Path(name).read_text(), source=name)
    elif name in builtins:
        cfg = preset_to_config(builtins[name])
    else:
        raise ConfigError(
            f"config {name!r} is neither a file nor a built-in preset "
            f"(known: {', '.join(sorted(builtins))})")
    _apply_overrides(cfg, sets)
    try:
        return preset_from_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def make_run_dir(out_root: str | None, name: str) -> Path:
    root = Path(out_root or os.environ.get(OUT_ENV) or DEFAULT_OUT)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%SZ")
    base = root / name / stamp
    path, k = base, 1
    while path.exists():
        path = base.with_name(f"{stamp}-{k}")
        k += 1
    path.mkdir(parents=True)
    return path


def write_manifest(run_dir: Path, argv_echo: str,
                   preset: ExperimentPreset | None,
                   comments: list[str]) -> None:
    lines = [f"# dissipwave run: {argv_echo}",
             f"# created: {datetime.now(timezone.utc).isoformat()}"]
    lines += [f"# {c}" for c in comments]
    if preset is not None:
        lines += [f"{k} = {v}" for k, v in preset_to_config(preset).items()]
    (run_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _print_report(report: DecayReport) -> None:
    print(f"fit window: t in [{report.window[0]:g}, {report.window[1]:g}]")
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
        vals = np.unique(preset.grid.freq_sq)
        vals = vals[vals <= 16.0]
        take = max(1, len(vals) // 48)
        xi_sq = np.unique(np.concatenate([vals[::take], [0.0, 0.25, vals[-1]]]))
    times = np.linspace(0.0, 10.0, 33)[1:]
    return xi_sq, times


def cmd_verify_symbols(args) -> int:
    preset = None
    if args.config is not None:
        preset = resolve_preset(args.config, args.set)
    xi_sq, times = _symbol_check_points(preset)
    tol = args.tol

    rows = []
    max_g = max_gt = 0.0
    for x in xi_sq:
        ref_g, ref_gt, _err = oracle.mode_ode_series(float(x), times,
                                                     tol=tol * 1e-2)
        g = symbols.green_hat(float(x), times)
        gt = symbols.green_hat_dt(float(x), times)
        for i, t in enumerate(times):
            eg = abs(float(g[i] - ref_g[i]))
            egt = abs(float(gt[i] - ref_gt[i]))
            rows.append((float(t), f"abs_err_g:xi_sq={float(x):.6g}", eg))
            rows.append((float(t), f"abs_err_gt:xi_sq={float(x):.6g}", egt))
            max_g = max(max_g, eg)
            max_gt = max(max_gt, egt)

    # continuity across the oscillatory/overdamped branch switch at |xi| = 1/2
    branch_ts = (0.1, 1.0, 10.0, 50.0)
    max_branch = 0.0
    for t in branch_ts:
        center = t * math.exp(-0.5 * t)
        for x in (0.25 - 1e-9, 0.25, 0.25 + 1e-9):
            max_branch = max(max_branch, abs(float(symbols.green_hat(x, t)) - center))

    ok = max_g <= tol and max_gt <= tol and max_branch <= tol
    run_dir = make_run_dir(args.out, "verify-symbols")
    write_series_csv(run_dir / "symbols.csv", rows)
    write_manifest(run_dir, "verify-symbols", preset, [
        f"modes checked: {len(xi_sq)}, times per mode: {len(times)}",
        f"max |G - ode| = {max_g:.3e}",
        f"max |G_t - ode| = {max_gt:.3e}",
        f"max branch-point gap = {max_branch:.3e}",
        f"tolerance = {tol:.1e}",
        f"verdict: {'pass' if ok else 'fail'}",
    ])
    print(f"mode symbol vs ODE reference over {len(xi_sq)} modes x "
          f"{len(times)} times:")
    print(f"  max |G - ode|   = {max_g:.3e}")
    print(f"  max |G_t - ode| = {max_gt:.3e}")
    print(f"  branch-point continuity gap = {max_branch:.3e}")
    print(f"  tolerance {tol:.1e} -> {'PASS' if ok else 'FAIL'}")
    print(f"wrote {run_dir}")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# green-bands

def _run_bands_cmd(preset: ExperimentPreset, args, argv_echo: str) -> int:
    run = presets.run_bands(preset)
    report = run.report()
    fit2 = run.fits()["linf:band2"]
    run_dir = make_run_dir(args.out, preset.name)
    write_series_csv(run_dir / "series.csv", run.rows())
    write_report_csv(run_dir / "report.csv", report)
    write_manifest(run_dir, argv_echo, preset, [
        f"middle band log-linear fit r^2 = {fit2.r_squared:.6f}",
        f"verdict: {'pass' if report.passed else 'fail'}",
    ])
    _print_report(report)
    print(f"middle band exponential fit r^2 = {fit2.r_squared:.4f} "
          f"(need >= 0.99)")
    print(f"wrote {run_dir}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_green_bands(args) -> int:
    preset = resolve_preset(args.config, args.set, default_name="bands1d")
    if preset.kind != "bands":
        raise ConfigError(f"green-bands needs a bands preset, got kind="
                          f"{preset.kind!r}")
    return _run_bands_cmd(preset, args, "green-bands")


# ---------------------------------------------------------------------------
# simulate / decay-report

def _snapshot_sink(run_dir: Path):
    snap_dir = run_dir / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    def sink(t: float, u, v) -> None:
        write_snapshot(snap_dir / f"u_t{t:.6f}.dwf", u, t)

    return sink


def _aborted(run_dir: Path, argv_echo: str, preset: ExperimentPreset,
             exc: solver.InstabilityError) -> int:
    print(f"run aborted: {exc}", file=sys.stderr)
    write_manifest(run_dir, argv_echo, preset,
                   [f"aborted: {exc}", "verdict: unstable"])
    return EXIT_UNSTABLE


def _decay_report(preset: ExperimentPreset, series: dict) -> DecayReport:
    """The preset's decay report on (times, values) series, live or read
    back from series.csv.  Data with nothing positive to fit (zero
    amplitude) gives an empty passing report; any other fit error, such as
    a fit window with too few samples, is a config error."""
    try:
        return preset.report(series)
    except analysis.NothingToFit as exc:
        print(f"decay fit skipped: {exc}")
        return DecayReport(rows=(), window=preset.fit_window)
    except ValueError as exc:
        raise ConfigError(f"{preset.name}: decay fit: {exc}") from exc


def _run_experiment_cmd(preset: ExperimentPreset, args, argv_echo: str,
                        with_snapshots: bool) -> int:
    if preset.kind == "bands":
        return _run_bands_cmd(preset, args, argv_echo)
    run_dir = make_run_dir(args.out, preset.name)
    sink = _snapshot_sink(run_dir) if with_snapshots else None
    try:
        run = presets.run_experiment(preset, snapshot_sink=sink)
    except solver.InstabilityError as exc:
        return _aborted(run_dir, argv_echo, preset, exc)
    report = _decay_report(preset, run.series_pairs())
    write_series_csv(run_dir / "series.csv", run.rows())
    write_report_csv(run_dir / "report.csv", report)
    comments = [f"initial data size e0 = {run.e0!r}"]
    if run.ledger is not None:
        write_series_csv(run_dir / "energy.csv", run.ledger.rows())
        comments.append(
            f"energy balance residual = {run.ledger.balance_residual()!r}")
    comments.append(f"verdict: {'pass' if report.passed else 'fail'}")
    write_manifest(run_dir, argv_echo, preset, comments)
    _print_report(report)
    print(f"wrote {run_dir}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    preset = resolve_preset(args.config, args.set)
    return _run_experiment_cmd(preset, args, "simulate", args.snapshots)


def _read_series_csv(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each series of a t,quantity,value csv as a (times, values) pair."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if not lines or lines[0] != "t,quantity,value":
        raise ConfigError(f"{path}: not a series csv (bad header)")
    by_label: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected t,quantity,value")
        t, label, v = parts
        try:
            by_label.setdefault(label, []).append((float(t), float(v)))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected numbers, "
                              f"got {line!r}") from None
    series = {label: tuple(np.asarray(pairs).T)
              for label, pairs in by_label.items()}
    for label, pair in series.items():
        if not np.all(np.isfinite(pair)):
            raise ConfigError(f"{path}: series {label!r} holds a value "
                              f"that is not finite")
    return series


def cmd_decay_report(args) -> int:
    preset = resolve_preset(args.config, args.set)
    if preset.kind == "bands":
        raise ConfigError("decay-report works on linear/semilinear runs")
    if args.run is None:
        return _run_experiment_cmd(preset, args, "decay-report", False)

    series = _read_series_csv(Path(args.run) / "series.csv")
    needed = [analysis.quantity_label(p, a, h) for p, a, h in preset.reports]
    missing = sorted(set(needed) - set(series))
    if missing:
        raise ConfigError(
            f"{args.run}/series.csv lacks series: {', '.join(missing)}")
    report = _decay_report(preset, series)
    run_dir = make_run_dir(args.out, preset.name)
    write_report_csv(run_dir / "report.csv", report)
    write_manifest(run_dir, "decay-report", preset, [
        f"series source: {args.run}",
        f"verdict: {'pass' if report.passed else 'fail'}",
    ])
    _print_report(report)
    print(f"wrote {run_dir}")
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# energy-audit

def _read_energy_csv(run: str) -> tuple[np.ndarray, np.ndarray]:
    """Energy and dissipation integral columns of a prior energy.csv."""
    series = _read_series_csv(Path(run) / "energy.csv")
    for need in ("energy", "diss_integral"):
        if need not in series:
            raise ConfigError(f"{run}/energy.csv lacks the {need!r} series")
    (t_e, energy), (t_i, integral) = series["energy"], series["diss_integral"]
    if not np.array_equal(t_e, t_i):
        raise ConfigError(f"{run}/energy.csv: the energy and diss_integral "
                          f"series have different times")
    return energy, integral


def cmd_energy_audit(args) -> int:
    preset = resolve_preset(args.config, args.set)
    if preset.kind != "semilinear":
        raise ConfigError("energy-audit needs a semilinear preset")
    if args.run is not None:
        energy, integral = _read_energy_csv(args.run)
        run_dir = make_run_dir(args.out, preset.name)
    else:
        run_dir = make_run_dir(args.out, preset.name)
        try:
            ledger = presets.run_semilinear(preset).ledger
        except solver.InstabilityError as exc:
            return _aborted(run_dir, "energy-audit", preset, exc)
        energy, integral = ledger.energy, ledger.dissipation_integral
        write_series_csv(run_dir / "energy.csv", ledger.rows())

    e0, worst_rise, residual = analysis.energy_audit(energy, integral)
    mono_ok = worst_rise <= args.mono_tol * e0
    bal_ok = residual <= args.balance_tol * e0
    ok = mono_ok and bal_ok
    write_manifest(run_dir, "energy-audit", preset, [
        f"E(0) = {e0!r}",
        f"worst per-step energy rise = {worst_rise!r} "
        f"(allowed {args.mono_tol:g} * E0)",
        f"balance residual = {residual!r} (allowed {args.balance_tol:g} * E0)",
        f"verdict: {'pass' if ok else 'fail'}",
    ])
    print(f"E(0) = {e0:.6e} over {len(energy)} records")
    print(f"  worst per-step rise {worst_rise:.3e} vs "
          f"{args.mono_tol * e0:.3e} -> {'PASS' if mono_ok else 'FAIL'}")
    print(f"  balance residual {residual:.3e} vs "
          f"{args.balance_tol * e0:.3e} -> {'PASS' if bal_ok else 'FAIL'}")
    print(f"wrote {run_dir}")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissipwave",
        description="pseudo-spectral toolkit for the damped semilinear wave "
                    "equation with absorbing power nonlinearity")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required, default=None,
                       help="config file path or built-in preset name")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
        p.add_argument("--out", default=None,
                       help=f"output root (default ${OUT_ENV} or ./{DEFAULT_OUT})")

    p = sub.add_parser("verify-symbols",
                       help="cross-check mode symbols against an ODE solver")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="max allowed symbol error (default 1e-8)")
    p.set_defaults(func=cmd_verify_symbols)

    p = sub.add_parser("green-bands",
                       help="band kernel decay study (default preset bands1d)")
    common(p)
    p.set_defaults(func=cmd_green_bands)

    p = sub.add_parser("simulate", help="run a preset or config end to end")
    common(p, config_required=True)
    p.add_argument("--snapshots", action="store_true",
                   help="also write u snapshots as .dwf files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decay-report",
                       help="fit decay slopes against theory targets")
    common(p, config_required=True)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="reuse series.csv from a previous run directory")
    p.set_defaults(func=cmd_decay_report)

    p = sub.add_parser("energy-audit",
                       help="energy monotonicity and balance check")
    common(p, config_required=True)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="reuse energy.csv from a previous run directory")
    p.add_argument("--mono-tol", type=float, default=1e-8,
                   help="allowed per-step rise relative to E(0)")
    p.add_argument("--balance-tol", type=float, default=1e-6,
                   help="allowed balance residual relative to E(0)")
    p.set_defaults(func=cmd_energy_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
