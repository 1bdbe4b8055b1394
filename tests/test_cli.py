"""CLI plumbing: config parsing, run directories, exit codes, CSV outputs."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dissipwave import (ExperimentPreset, Field, builtin_presets,
                        preset_to_config, read_snapshot, write_snapshot)
from dissipwave.analysis import read_series_csv
from dissipwave.cli import (ConfigError, main, make_run_dir,
                            parse_config_text, resolve_preset, write_manifest)
from dissipwave.presets import preset_from_config


_TINY = dict(name="cli-tiny", kind="semilinear", n_dims=1, grid_points=64,
             half_width=16.0, amplitude=0.1, theta=3, dt=0.05, t_final=1.0,
             snapshot_times=(0.5, 1.0), fit_window=(0.4, 1.05), reports=())


def _tiny_preset(**over):
    return ExperimentPreset(**{**_TINY, **over})


def _tiny_linear(**over):
    """The tiny preset as a linear one, without the theta and dt it does
    not read."""
    base = {k: v for k, v in _TINY.items() if k not in ("theta", "dt")}
    return ExperimentPreset(**{**base, "kind": "linear", **over})


def _write_config(tmp_path, preset, name="run.cfg"):
    text = "\n".join(f"{k} = {v}" for k, v in preset_to_config(preset).items())
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


def _only_run_dir(out_root, name):
    dirs = sorted((out_root / name).iterdir())
    assert len(dirs) == 1
    return dirs[0]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_comments_and_blanks():
    cfg = parse_config_text(
        "# header\n\nname = x  # trailing note\n  kind =  linear\n")
    assert cfg == {"name": "x", "kind": "linear"}


def test_parse_config_text_duplicate_key_line_number():
    with pytest.raises(ConfigError, match=r"stuff:3: duplicate key 'a'"):
        parse_config_text("a = 1\nb = 2\na = 3\n", source="stuff")


def test_parse_config_text_missing_equals():
    with pytest.raises(ConfigError, match=r"config:2: expected key=value"):
        parse_config_text("a = 1\nbroken line\n")


def test_parse_config_text_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 5\n")


def test_resolve_preset_builtin_name():
    p = resolve_preset("lin1d", [])
    assert p.name == "lin1d" and p.kind == "linear"


def test_resolve_preset_unknown_name_lists_builtins():
    with pytest.raises(ConfigError, match="bands1d"):
        resolve_preset("no-such-preset", [])
    with pytest.raises(ConfigError, match="required"):
        resolve_preset(None, [])


def test_resolve_preset_file_and_overrides(tmp_path):
    path = _write_config(tmp_path, _tiny_preset())
    p = resolve_preset(path, ["amplitude=0.2", "name=renamed"])
    assert p.amplitude == 0.2
    assert p.name == "renamed"
    with pytest.raises(ConfigError, match="--set expects"):
        resolve_preset(path, ["amplitude"])


def test_resolve_preset_bad_value_becomes_config_error(tmp_path):
    path = _write_config(tmp_path, _tiny_preset())
    with pytest.raises(ConfigError, match="config key theta"):
        resolve_preset(path, ["theta=soft"])


def test_make_run_dir_env_and_collisions(tmp_path, monkeypatch):
    monkeypatch.setenv("DISSIPWAVE_OUT", str(tmp_path / "envroot"))
    d1 = make_run_dir(None, "demo")
    assert d1.parent.parent == tmp_path / "envroot" / "demo" or \
        d1.parent == tmp_path / "envroot" / "demo"
    # same second: the second call picks a -k suffix instead of failing
    d2 = make_run_dir(None, "demo")
    assert d2 != d1 and d2.exists()
    explicit = make_run_dir(str(tmp_path / "explicit"), "demo")
    assert str(explicit).startswith(str(tmp_path / "explicit"))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_vacuous_reports_pass(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 0
    run_dir = _only_run_dir(tmp_path / "o", "cli-tiny")
    assert (run_dir / "series.csv").exists()
    assert (run_dir / "report.csv").exists()
    assert (run_dir / "energy.csv").exists()
    assert "verdict: pass" in (run_dir / "manifest.txt").read_text()


def test_simulate_fits_a_large_p_norm(tmp_path, capsys):
    # |u|^400 of the preset's 0.05 bump underflows: the l400 series used
    # to read as zero data, and the skipped fit left an empty report
    code = main(["simulate", "--config", "semi1d-theta3", "--set",
                 "reports=400:0:0", "--out", str(tmp_path / "o")])
    assert code == 0
    assert "skipped" not in capsys.readouterr().out
    run_dir = _only_run_dir(tmp_path / "o", "semi1d-theta3")
    rows = (run_dir / "report.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("l400:u,-0.48") and rows[1].endswith(",pass")


def test_simulate_zero_amplitude_still_passes(tmp_path, capsys):
    # six samples in the fit window: the fit fails only for want of
    # positive data
    p = _tiny_preset(amplitude=0.0, reports=((math.inf, 0, 0),),
                     snapshot_times=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
    path = _write_config(tmp_path, p)
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "decay fit skipped" in capsys.readouterr().out


def test_simulate_too_few_window_samples_exits_2(tmp_path, capsys):
    p = _tiny_preset(reports=((math.inf, 0, 0),))  # 2 samples in the window
    path = _write_config(tmp_path, p)
    out = tmp_path / "o"
    out.mkdir()
    code = main(["simulate", "--config", path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and "2 samples" in err[0]
    assert list(out.iterdir()) == []  # counted before any run directory


# six snapshot times inside the tiny preset's fit window, so the sample
# count passes and only the reports entry is wrong
SIX_SNAPSHOTS = ["--set", "snapshot_times=0.5,0.6,0.7,0.8,0.9,1.0"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--set", "reports=inf:0:0"],
    # integrator, delta_bar, profile_r and sobolev_index are no longer
    # config keys, so setting one is an unknown-key error
    ["simulate", "--set", "integrator=euler"],
    ["simulate", "--set", "snapshot_times=0.5,0.73,1.0"],
    ["simulate", "--set", "dt=0.3"],
    ["simulate", "--set", "delta_bar=2"],
    ["verify-symbols", "--tol", "1e-11"],
    ["verify-symbols", "--tol", "nan"],
    ["verify-symbols", "--tol", "inf"],
    ["simulate", "--set", "width=-1"],
    ["simulate", "--set", "width=nan"],
    # width^2 underflows to 0, which would make the bump nan at the origin
    ["simulate", "--set", "width=1e-300"],
    ["simulate", "--config", "lin1d", "--set", "width=1e-300"],
    ["simulate", "--set", "profile_r=0.1"],
    ["simulate", "--set", "sobolev_index=-3"],
    ["simulate", "--set", "u0_file=/nonexistent.dwf"],
    ["simulate", "--set", "u1_file=CONFIG"],  # a text file, not DWF1
    ["simulate", "--set", "u0_file=NAN_DATA"],  # one nan sample
    ["simulate", "--set", "amplitude=nan"],
    ["simulate", "--config", "lin2d", "--set", "half_width=inf"],
    ["simulate", "--config", "lin2d", "--set", "amplitude=nan"],
    ["simulate", "--config", "lin2d", "--set", "snapshot_times=0.5,nan"],
    ["simulate", "--config", "lin2d", "--set", "t_final=nan"],
    ["energy-audit", "--mono-tol", "nan"],
    ["energy-audit", "--mono-tol", "-1"],
    ["energy-audit", "--mono-tol", "inf"],
    ["energy-audit", "--balance-tol", "nan"],
    ["simulate", "--set", "snapshot_times=0.5,0.5,0.6,0.7,0.8",
     "--set", "reports=inf:0:0"],
    ["simulate", "--set", "snapshot_times=0.5,0.5000000001,1.0"],
    ["simulate", "--set", "snapshot_times=1.0,0.5"],
    ["green-bands", "--set", "band1_times=80,10,20,40,60"],
    ["green-bands", "--set", "band2_times=0,5,10,20,40"],
    ["green-bands", "--set", "grid_points=16", "--set", "half_width=2"],
    ["simulate", *SIX_SNAPSHOTS, "--set", "reports=0.5:0:0"],
    ["simulate", *SIX_SNAPSHOTS, "--set", "reports=nan:0:0"],
    ["simulate", *SIX_SNAPSHOTS, "--set", "reports=inf:-1:0"],
    ["simulate", *SIX_SNAPSHOTS, "--set", "reports=inf:0:3"],
    ["simulate", "--config", "lin2d", "--set", "reports=2:0:0"],
    ["simulate", "--config", "lin2d", "--set", "integrator=euler"],
    ["simulate", "--config", "lin2d", "--set", "theta=0"],
    ["simulate", "--config", "lin2d", "--set", "delta_bar=7"],
    ["simulate", "--config", "lin1d", "--set", "eps=-1"],
    ["green-bands", "--set", "reports=0.5:-1:7"],
    ["energy-audit", "--set", "fit_window_lo=1.0", "--set", "fit_window_hi=0.5"],
    ["green-bands", "--set", "fit_window_lo=1e9"],
    ["green-bands", "--set", "snapshot_times=0,5"],
    ["simulate", "--config", "lin2d", "--set", "dt=0.05"],
    ["simulate", "--set", "band1_times=1,2,3,4,5"],
    ["simulate", "--set", "dt_doubling_times=0.6,0.2"],
    ["simulate", "--set", "dt_doubling_times=0.2,0.55"],
    # the last epoch steps 0.2 from 0.6, so 0.7 is off its grid
    ["simulate", "--set", "dt_doubling_times=0.2,0.6",
     "--set", "snapshot_times=0.5,0.7,1.0"],
    ["simulate", "--config", "lin2d", "--set", "dt_doubling_times=1.0"],
    # a run keys its series by label, so two entries may not share one
    ["simulate", "--config", "lin1d", "--set", "reports=inf:0:0,inf:0:0"],
    ["simulate", "--config", "lin1d", "--set", "reports=Inf:0:0,inf:0:0"],
    ["simulate", "--config", "semi1d-theta3",
     "--set", "reports=2:0:0,2.0000001:0:0"],
    # schedules of about 6e300 and 2.5e9 states, refused before any row
    ["simulate", "--config", "semi1d-theta3", "--set", "dt=1e-300"],
    ["simulate", "--config", "semi1d-theta3", "--set", "t_final=1e9",
     "--set", "half_width=2e9"],
    # 16384^2 points: 2^28, past grid.MAX_POINTS
    ["simulate", "--config", "lin2d", "--set", "grid_points=16384"],
    # past solver.MAX_THETA; the source's powers would take minutes a step
    ["simulate", "--config", "semi1d-theta3", "--set", "theta=1000000000"],
    # boxes whose |x|^2 overflows or underflows
    ["simulate", "--config", "lin1d", "--set", "half_width=1e300",
     "--set", "grid_points=16"],
    ["simulate", "--config", "lin2d", "--set", "half_width=1e-200",
     "--set", "grid_points=16", "--set", "t_final=1e-201",
     "--set", "snapshot_times=1e-206,2e-206,3e-206,4e-206,5e-206",
     "--set", "fit_window_lo=1e-206", "--set", "fit_window_hi=5e-206"],
], ids=["window-samples", "integrator", "off-grid-snapshot", "off-grid-dt",
        "delta-bar", "tol", "tol-nan", "tol-inf", "width", "width-nan",
        "width-square-underflow", "linear-width-square-underflow",
        "profile-r", "sobolev-index", "u0-file-missing", "u1-file-not-dwf1",
        "u0-file-nan",
        "amplitude-nan", "linear-half-width-inf", "linear-amplitude-nan",
        "linear-snapshot-nan", "linear-t-final-nan", "mono-tol-nan",
        "mono-tol-negative", "mono-tol-inf", "balance-tol-nan",
        "repeated-snapshot", "snapshots-on-one-step", "unsorted-snapshots",
        "band1-times-unsorted",
        "band2-times-zero", "band-grid-unresolved", "report-p-below-1",
        "report-p-nan", "report-alpha-negative", "report-h-3",
        "report-linear-l2", "linear-integrator", "linear-theta-0",
        "linear-delta-bar", "linear-eps", "bands-reports",
        "inverted-fit-window", "bands-fit-window", "bands-snapshot-times",
        "linear-dt", "semilinear-band1-times", "doubling-unsorted",
        "doubling-off-grid-end", "doubling-off-grid-snapshot",
        "linear-doubling", "reports-repeated", "reports-repeated-inf-case",
        "reports-one-label", "tiny-dt", "huge-t-final", "grid-points-cap",
        "theta-cap", "box-overflow", "box-underflow"])
def test_bad_input_exits_2_before_any_run_directory(tmp_path, capsys, argv):
    out = tmp_path / "o"
    out.mkdir()
    path = _write_config(tmp_path, _tiny_preset())
    grid = _tiny_preset().grid
    values = np.zeros(grid.shape)
    values[3] = np.nan
    nan_data = str(tmp_path / "nan.dwf")
    write_snapshot(nan_data, Field(grid, values), 0.0)
    argv = [a.replace("CONFIG", path).replace("NAN_DATA", nan_data)
            for a in argv]
    config = (["--config", path] if argv[0] in ("simulate", "energy-audit")
              and "--config" not in argv else [])
    code = main(argv[:1] + config + argv[1:] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", [
    "../../escaped", "ABSOLUTE", "", ".", "..", "a/b", "run#1", "two\nlines",
    "cr\rname"], ids=["parent-parent", "absolute", "empty", "dot", "dotdot",
                      "slash", "hash", "newline", "carriage-return"])
def test_a_name_that_leaves_the_run_layout_exits_2_writing_nothing(
        tmp_path, capsys, name):
    # a run directory is <out>/<name>/<timestamp>; no name may put it
    # elsewhere, under --out or beside it
    out = tmp_path / "a" / "b" / "runs"
    name = name.replace("ABSOLUTE", str(tmp_path / "abs"))
    code = main(["simulate", "--config", "lin1d", "--set", f"name={name}",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: lin1d: name")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset", [
    *builtin_presets().values(),
    replace(builtin_presets()["lin1d"], name="has space")],
    ids=[*builtin_presets(), "has-space"])
def test_manifest_lines_give_back_the_preset(tmp_path, preset):
    write_manifest(tmp_path, "simulate --config x", preset,
                   ["a comment", "two\nlines # with a hash"])
    text = (tmp_path / "manifest.txt").read_text()
    assert preset_from_config(parse_config_text(text)) == preset


@pytest.mark.parametrize("flag, path, reason", [
    ("--config", "dir", "cannot read {}: Is a directory"),
    ("--config", "binary.cfg", "{} is not a text file: invalid start byte "
                               "at byte 0"),
    ("--out", "file", "cannot make a run directory under {}: Not a "
                      "directory"),
    ("--out", "file/sub", "cannot make a run directory under {}: Not a "
                          "directory"),
], ids=["config-directory", "config-binary", "out-file", "out-under-file"])
def test_unusable_config_or_out_path_exits_2_naming_it(tmp_path, capsys,
                                                       flag, path, reason):
    (tmp_path / "dir").mkdir()
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00\x01name = x\n")
    (tmp_path / "file").write_text("not a directory\n")
    out = tmp_path / "o"
    args = {"--config": "lin1d", "--out": str(out),
            flag: str(tmp_path / path)}
    assert main(["simulate", *(a for kv in args.items() for a in kv)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: " + reason.format(tmp_path / path)]
    assert not out.exists()
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_snapshot_times_sharing_a_file_exit_2_before_any_run_directory(
        tmp_path, capsys):
    # both times print as u_t1.000000.dwf: the second file would overwrite
    # the first
    out = tmp_path / "o"
    code = main(["simulate", "--config", "lin1d", "--set",
                 "snapshot_times=1.0,1.0000001,2,3,4,5,6,7",
                 "--set", "fit_window_lo=1", "--set", "fit_window_hi=7",
                 "--snapshots", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: lin1d: snapshot times 1.0 and 1.0000001 share the "
        "snapshot file u_t1.000000.dwf"]
    assert not out.exists()


def test_crash_after_run_dir_leaves_error_manifest(tmp_path, capsys,
                                                   monkeypatch):
    import dissipwave.analysis as analysis

    def full_disk(path, report):
        raise OSError("disk full")

    monkeypatch.setattr(analysis, "write_report_csv", full_disk)
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "internal error: OSError: disk full"]
    run_dir = _only_run_dir(tmp_path / "o", "cli-tiny")
    comments = [line for line in
                (run_dir / "manifest.txt").read_text().splitlines()
                if line.startswith("#")]
    assert comments[-2:] == ["# internal error: OSError: disk full",
                             "# verdict: error"]


def test_uncaught_exception_exits_4(tmp_path, capsys, monkeypatch):
    import dissipwave.cli as cli

    def crash(args, open_run):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_simulate", crash)
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: RuntimeError: boom"]


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["simulate", "--config", path, "--set", "typo_key=1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_unknown_preset_name_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", "missing-preset",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_simulate_instability_exits_3(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    # the data alone exceed the guard bound 5
    code = main(["simulate", "--config", path, "--set", "amplitude=6",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "run aborted: instability at t = 0:" in capsys.readouterr().err
    run_dir = _only_run_dir(tmp_path / "o", "cli-tiny")
    assert "verdict: unstable" in (run_dir / "manifest.txt").read_text()


def test_simulate_writes_snapshots(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["simulate", "--config", path, "--snapshots",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    run_dir = _only_run_dir(tmp_path / "o", "cli-tiny")
    snaps = sorted((run_dir / "snapshots").glob("u_t*.dwf"))
    assert len(snaps) == 2
    field, t = read_snapshot(snaps[0])
    assert t == pytest.approx(0.5, abs=1e-9)
    assert field.grid.points_per_dim == 64


def test_series_times_are_the_configured_snapshot_times(tmp_path, capsys):
    # a running sum of 0.04 steps lands off each of these times (25 steps
    # sum to 1.0000000000000002); series.csv must hold the configured ones
    times = (0.0, 0.4, 0.8, 1.0, 1.2, 1.6, 2.0)
    p = _tiny_preset(dt=0.04, t_final=2.0, snapshot_times=times,
                     reports=((math.inf, 0, 0),), fit_window=(0.4, 2.0))
    path = _write_config(tmp_path, p)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) in (0, 1)
    run_dir = _only_run_dir(tmp_path / "o", "cli-tiny")
    series = read_series_csv(run_dir / "series.csv")
    assert set(series) == {"linf:u", "profile_r2:u"}
    for recorded, _values in series.values():
        assert [repr(float(t)) for t in recorded] == list(map(repr, times))


def test_window_edge_sample_counted_before_the_run_is_fit(tmp_path, capsys):
    # the pre-check counts the configured times in [1, 2]; the fit after
    # the solve must see the same samples, the edge at t = 2 included
    out = tmp_path / "o"
    code = main(["simulate", "--config", "semi1d-theta3",
                 "--set", "t_final=2.0",
                 "--set", "snapshot_times=1.0,1.2,1.4,1.6,2.0",
                 "--set", "fit_window_lo=1.0", "--set", "fit_window_hi=2.0",
                 "--out", str(out)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    manifest = (_only_run_dir(out, "semi1d-theta3") / "manifest.txt")
    assert "verdict: error" not in manifest.read_text()


def test_simulate_series_bytes_deterministic(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "b")]) == 0
    sa = _only_run_dir(tmp_path / "a", "cli-tiny") / "series.csv"
    sb = _only_run_dir(tmp_path / "b", "cli-tiny") / "series.csv"
    assert sa.read_bytes() == sb.read_bytes()


def test_manifest_with_doubling_times_relaunches_the_same_preset(tmp_path,
                                                                capsys):
    p = _tiny_preset(dt_doubling_times=(0.2, 0.6),
                     snapshot_times=(0.2, 0.5, 0.8, 1.0))
    path = _write_config(tmp_path, p)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    manifest = _only_run_dir(tmp_path / "o", "cli-tiny") / "manifest.txt"
    assert "dt_doubling_times = 0.2,0.6" in manifest.read_text()
    assert resolve_preset(str(manifest), []) == p


def test_manifest_records_the_command_line(tmp_path, capsys, monkeypatch):
    # the flags that are not config keys leave their trace in the header
    import dissipwave.cli as cli
    path = _write_config(tmp_path, _tiny_preset())
    out = tmp_path / "o"
    argv = ["simulate", "--config", path, "--snapshots", "--set",
            "name=has space", "--out", str(out)]
    assert main(argv) == 0
    manifest = _only_run_dir(out, "has space") / "manifest.txt"
    lines = manifest.read_text().splitlines()
    assert lines[0] == (f"# dissipwave run: simulate --config {path} "
                        f"--snapshots --set 'name=has space' --out {out}")
    assert resolve_preset(str(manifest), []).name == "has space"
    # main writes the header whatever the subcommand; a stub stands in for
    # the symbol check, which takes seconds
    monkeypatch.setattr(cli, "cmd_verify_symbols", lambda args, open_run: (
        open_run("verify-symbols", None), (True, []))[1])
    assert main(["verify-symbols", "--tol", "1e-6", "--out", str(out)]) == 0
    manifest = _only_run_dir(out, "verify-symbols") / "manifest.txt"
    assert manifest.read_text().splitlines()[0] == (
        f"# dissipwave run: verify-symbols --tol 1e-6 --out {out}")


def test_manifest_is_relaunchable(tmp_path, capsys):
    p = _tiny_preset(reports=((math.inf, 0, 0), (2.0, 1, 1)),
                     snapshot_times=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
    path = _write_config(tmp_path, p)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) in (0, 1)
    manifest = _only_run_dir(tmp_path / "o", "cli-tiny") / "manifest.txt"
    relaunched = resolve_preset(str(manifest), [])
    assert relaunched == p


def test_doubling_time_off_a_changed_dt_names_the_remedy(tmp_path, capsys):
    code = main(["simulate", "--config", "semi1d-theta3", "--set", "dt=0.07",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: semi1d-theta3: doubling time 6.0 is not on the grid "
        "of dt = 0.07 from t = 0.0" + _OFF_GRID_REMEDY]
    assert not (tmp_path / "o").exists()


_OFF_GRID_REMEDY = ("; the doubling times, the snapshot times and t_final "
                    "must all lie on the step's grid, as they do for a dt "
                    "that divides the one they were laid out for (such as "
                    "dt/2)")


@pytest.mark.parametrize("sets, message", [
    (["dt=0.07", "dt_doubling_times="],
     "t_final 100.0 is not on the grid of dt = 0.07 from t = 0.0"
     + _OFF_GRID_REMEDY),
    (["dt=0.07", "dt_doubling_times=", "t_final=99.96"],
     "snapshot times must lie in [0, t_final]: 100.0 lies outside "
     "[0, 99.96]"),
], ids=["constant-step", "cut-t-final"])
def test_off_grid_step_messages_name_what_must_move(tmp_path, capsys, sets,
                                                    message):
    argv = ["simulate", "--config", "semi1d-theta3", "--out",
            str(tmp_path / "o")]
    for kv in sets:
        argv += ["--set", kv]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: semi1d-theta3: " + message]
    assert not (tmp_path / "o").exists()


# a semilinear manifest as written while integrator, dealias, delta_bar,
# profile_r and sobolev_index were config keys, each at the one value
# every run now takes
_MANIFEST_WITH_REMOVED_KEYS = """\
# dissipwave run: simulate --config run.cfg
# verdict: pass
name = cli-tiny
kind = semilinear
dimension = 1
grid_points = 64
half_width = 16.0
amplitude = 0.1
width = 1.0
u1_amplitude = 0.0
u0_file =
u1_file =
theta = 3
dt = 0.05
dt_doubling_times =
t_final = 1.0
integrator = exponential_duhamel
dealias = auto
delta_bar = 0.5
snapshot_times = 0.5,1.0
fit_window_lo = 0.4
fit_window_hi = 1.05
reports =
profile_r = 2.0
sobolev_index = auto
"""
_REMOVED_KEYS = ("integrator", "dealias", "delta_bar", "profile_r",
                 "sobolev_index")

# bands1d's manifest as written while the band partition's eps and
# outer_radius were config keys, at the values the partition now fixes
_BANDS_MANIFEST_WITH_REMOVED_KEYS = """\
# dissipwave run: green-bands
# verdict: pass
name = bands1d
kind = bands
dimension = 1
grid_points = 4096
half_width = 200.0
eps = 0.45
outer_radius = 2.0
band1_times = 10.0,13.459002,18.114473,24.380273,32.813414,44.163581,\
59.439772,80.0
band2_times = 5.0,10.0,15.0,20.0,25.0,30.0,35.0,40.0
"""


def _relaunch_once_removed_keys_are_deleted(tmp_path, capsys, command, text,
                                            removed, preset, output):
    """The old manifest text exits 2 naming its removed keys; without
    those lines it relaunches, and its output file is the one a config
    of the preset writes."""
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(text)
    out = tmp_path / "o"
    out.mkdir()
    assert main([command, "--config", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {manifest}: unknown config keys: "
        f"{', '.join(sorted(removed))}"]
    assert list(out.iterdir()) == []

    manifest.write_text("".join(line for line in text.splitlines(True)
                                if line.split(" =")[0] not in removed))
    assert main([command, "--config", str(manifest),
                 "--out", str(out / "old")]) == 0
    assert main([command, "--config", _write_config(tmp_path, preset),
                 "--out", str(out / "new")]) == 0
    outputs = [(_only_run_dir(out / side, preset.name) / output).read_bytes()
               for side in ("old", "new")]
    assert outputs[0] == outputs[1]


def test_manifest_with_removed_keys_relaunches_once_they_are_deleted(
        tmp_path, capsys):
    _relaunch_once_removed_keys_are_deleted(
        tmp_path, capsys, "simulate", _MANIFEST_WITH_REMOVED_KEYS,
        _REMOVED_KEYS, _tiny_preset(), "series.csv")


def test_bands_manifest_with_eps_and_outer_radius_relaunches_without_them(
        tmp_path, capsys):
    _relaunch_once_removed_keys_are_deleted(
        tmp_path, capsys, "green-bands", _BANDS_MANIFEST_WITH_REMOVED_KEYS,
        ("eps", "outer_radius"), builtin_presets()["bands1d"], "report.csv")


# ---------------------------------------------------------------------------
# decay-report


def _write_series(path, times, series):
    lines = ["t,quantity,value"]
    for label, vals in series.items():
        lines += [f"{float(t)!r},{label},{float(v)!r}"
                  for t, v in zip(times, vals)]
    path.write_text("\n".join(lines) + "\n")


def test_decay_report_refit_passes_on_exact_law(tmp_path, capsys):
    p = _tiny_linear(name="lin-tiny", reports=((math.inf, 0, 0),),
                     fit_window=(1.0, 12.0))
    path = _write_config(tmp_path, p)
    t = np.arange(1.0, 13.0)
    run_dir = tmp_path / "prior"
    run_dir.mkdir()
    _write_series(run_dir / "series.csv", t, {"linf:u": (1 + t) ** -0.5})
    code = main(["decay-report", "--config", path, "--run", str(run_dir),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "slope -0.5000" in out


def test_decay_report_refit_fails_on_wrong_law(tmp_path, capsys):
    p = _tiny_linear(name="lin-tiny", reports=((math.inf, 0, 0),),
                     fit_window=(1.0, 12.0))
    path = _write_config(tmp_path, p)
    t = np.arange(1.0, 13.0)
    run_dir = tmp_path / "prior"
    run_dir.mkdir()
    _write_series(run_dir / "series.csv", t, {"linf:u": (1 + t) ** -2.0})
    code = main(["decay-report", "--config", path, "--run", str(run_dir),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_decay_report_missing_series_exits_2(tmp_path, capsys):
    p = _tiny_linear(name="lin-tiny", reports=((math.inf, 0, 0),),
                     fit_window=(1.0, 12.0))
    path = _write_config(tmp_path, p)
    run_dir = tmp_path / "prior"
    run_dir.mkdir()
    _write_series(run_dir / "series.csv", [1.0, 2.0], {"l2:u": [1.0, 0.5]})
    code = main(["decay-report", "--config", path, "--run", str(run_dir),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "lacks series" in capsys.readouterr().err


def _read_report(run_dir):
    lines = (run_dir / "report.csv").read_text().splitlines()[1:]
    return {q: (float(slope), verdict) for q, slope, *_, verdict
            in (line.split(",") for line in lines)}


def test_decay_report_reuses_simulate_output(tmp_path, capsys):
    # zero data has nothing positive to fit: both paths give an empty report
    for amplitude, n_rows in ((0.1, 1), (0.0, 0)):
        p = _tiny_preset(amplitude=amplitude, reports=((math.inf, 0, 0),),
                         snapshot_times=(0.2, 0.4, 0.6, 0.8, 1.0),
                         fit_window=(0.1, 1.05))
        case = tmp_path / f"amplitude{amplitude}"
        case.mkdir()
        path = _write_config(case, p)
        live_code = main(["simulate", "--config", path,
                          "--out", str(case / "o")])
        prior = _only_run_dir(case / "o", "cli-tiny")
        code = main(["decay-report", "--config", path, "--run", str(prior),
                     "--out", str(case / "r")])
        assert code == live_code
        live = _read_report(prior)
        replay = _read_report(_only_run_dir(case / "r", "cli-tiny"))
        assert len(live) == n_rows
        assert set(replay) == set(live)
        for q, (slope, verdict) in live.items():
            assert replay[q][0] == pytest.approx(slope, rel=1e-12)
            assert replay[q][1] == verdict


def test_fit_over_a_nonpositive_sample_is_a_failed_verdict(tmp_path,
                                                           capsys):
    # u1 = 0, so sup|u_t| is 0 at t = 0, inside the window: the run is
    # valid input and its series has no power law there, a failed row
    # with slope nan, live and replayed alike
    p = _tiny_linear(name="lin-tiny", fit_window=(0.0, 1.0),
                     snapshot_times=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                     reports=((math.inf, 0, 0), (math.inf, 0, 1)))
    path = _write_config(tmp_path, p)
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 1
    prior = _only_run_dir(tmp_path / "o", "lin-tiny")
    assert main(["decay-report", "--config", path, "--run", str(prior),
                 "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == ""
    replayed = _only_run_dir(tmp_path / "r", "lin-tiny")
    for run_dir in (prior, replayed):
        row = (run_dir / "report.csv").read_text().splitlines()[2]
        assert row == "linf:dt_u,nan,nan,-1.5,0.15,fail"
        assert "verdict: fail" in (run_dir / "manifest.txt").read_text()


@pytest.mark.parametrize("series_text", [
    None,
    "t,value\n1.0,0.5\n",
    "t,quantity,value\n1.0,linf:u\n",
    "t,quantity,value\n1.0,linf:u,abc\n",
    "t,quantity,value\n1.0,linf:u,nan\n",
    "t,quantity,value\n1.0,linf:u,0.5\n2.0,linf:u,0.4\n",
], ids=["missing", "header", "columns", "unparsable", "nonfinite",
        "window-samples"])
def test_decay_report_bad_run_input_exits_2(tmp_path, capsys, series_text):
    p = _tiny_linear(name="lin-tiny", reports=((math.inf, 0, 0),),
                     fit_window=(1.0, 12.0))
    path = _write_config(tmp_path, p)
    run_dir = tmp_path / "prior"
    run_dir.mkdir()
    if series_text is not None:
        (run_dir / "series.csv").write_text(series_text)
    code = main(["decay-report", "--config", path, "--run", str(run_dir),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_decay_report_rejects_bands(tmp_path, capsys):
    code = main(["decay-report", "--config", "bands1d",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "linear/semilinear" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# energy-audit


def test_energy_audit_fresh_then_reuse(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["energy-audit", "--config", path, "--out", str(tmp_path / "o"),
                 "--mono-tol", "1e-6", "--balance-tol", "1e-3"])
    assert code == 0
    fresh = _only_run_dir(tmp_path / "o", "cli-tiny")
    assert (fresh / "energy.csv").exists()
    out = capsys.readouterr().out
    assert "balance residual" in out and "PASS" in out

    code = main(["energy-audit", "--config", path, "--run", str(fresh),
                 "--out", str(tmp_path / "r"),
                 "--mono-tol", "1e-6", "--balance-tol", "1e-3"])
    assert code == 0
    assert (_only_run_dir(tmp_path / "r", "cli-tiny") / "manifest.txt").exists()


def test_replay_manifests_name_their_series_source(tmp_path, capsys):
    # each --run replay records the run directory whose csv it read; a
    # live run reads none and records no source
    path = _write_config(tmp_path, _tiny_preset(
        reports=((1, 0, 0), (2, 0, 0)),
        snapshot_times=(0.2, 0.4, 0.6, 0.8, 1.0), fit_window=(0.1, 1.05)))
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    prior = _only_run_dir(tmp_path / "o", "cli-tiny")
    tols = ["--mono-tol", "1e-6", "--balance-tol", "1e-3"]
    for command, flags in (("decay-report", []), ("energy-audit", tols)):
        for run_args, out in ((["--run", str(prior)], "replay"), ([], "live")):
            root = tmp_path / command / out
            assert main([command, "--config", path, "--out", str(root),
                         *run_args, *flags]) == 0
            lines = (_only_run_dir(root, "cli-tiny") / "manifest.txt"
                     ).read_text().splitlines()
            sources = [ln for ln in lines if ln.startswith("# series source")]
            assert sources == ([f"# series source: {prior}"] if run_args
                               else []), (command, out)


@pytest.mark.parametrize("energy_text", [
    None,
    "t,quantity,value\n0.0,energy,1.0\n0.0,diss_integral,x\n",
    "t,quantity,value\n0.0,energy,1.0\n",
    "t,quantity,value\n0.0,energy,1.0\n0.1,energy,0.9\n0.0,diss_integral,0.0\n",
], ids=["missing", "unparsable", "no-integral", "unaligned"])
def test_energy_audit_bad_run_input_exits_2(tmp_path, capsys, energy_text):
    path = _write_config(tmp_path, _tiny_preset())
    run_dir = tmp_path / "prior"
    run_dir.mkdir()
    if energy_text is not None:
        (run_dir / "energy.csv").write_text(energy_text)
    out = tmp_path / "o"
    out.mkdir()
    code = main(["energy-audit", "--config", path, "--run", str(run_dir),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert list(out.iterdir()) == []  # validated before any run directory


def test_energy_audit_passes_small_semi1d_data(tmp_path, capsys):
    # small data (E(0) near 2e-3) whose balance residual a fourth-order
    # ledger quadrature put over its bound: 1.931e-9 against 1.911e-9
    code = main(["energy-audit", "--config", "semi1d-theta3",
                 "--set", "width=3.0", "--set", "u1_amplitude=-0.02425",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "balance residual" in capsys.readouterr().out


def test_energy_audit_requires_semilinear(tmp_path, capsys):
    code = main(["energy-audit", "--config", "lin1d",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "semilinear" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-symbols / green-bands


def test_verify_symbols_check_points_match_full_lattice():
    # the check points come from the grid's level table, the distinct
    # freq_sq values of the stored half spectrum; those must be exactly
    # the |xi|^2 values of the full lattice
    for preset in builtin_presets().values():
        g = preset.grid
        f = 2.0 * np.pi * np.fft.fftfreq(g.points_per_dim, d=g.dx)
        full = np.zeros(g.shape)
        for axis in np.meshgrid(*(f,) * g.n_dims, indexing="ij", sparse=True):
            full = full + axis * axis
        assert np.array_equal(g.freq_levels[0], np.unique(full))


def test_verify_symbols_passes(tmp_path, capsys):
    code = main(["verify-symbols", "--out", str(tmp_path / "o")])
    assert code == 0
    run_dir = _only_run_dir(tmp_path / "o", "verify-symbols")
    text = (run_dir / "symbols.csv").read_text()
    assert text.startswith("t,quantity,value\n")
    assert "abs_err_g:xi_sq=" in text and "abs_err_gt:xi_sq=" in text


def test_green_bands_small_grid(tmp_path, capsys):
    p = ExperimentPreset(name="bands-tiny", kind="bands", n_dims=1,
                         grid_points=512, half_width=64.0,
                         band1_times=(2.0, 4.0, 8.0, 12.0, 16.0),
                         band2_times=(1.0, 2.0, 3.0, 4.0, 5.0))
    path = _write_config(tmp_path, p)
    code = main(["green-bands", "--config", path, "--out", str(tmp_path / "o")])
    assert code in (0, 1)  # plumbing test; slope quality needs the full preset
    run_dir = _only_run_dir(tmp_path / "o", "bands-tiny")
    assert (run_dir / "series.csv").exists()
    assert (run_dir / "report.csv").exists()
    assert "linf:band2" in (run_dir / "series.csv").read_text()


def test_green_bands_too_few_band_times_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    code = main(["green-bands", "--set", "band1_times=10,20,40",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "band1_times" in err[0]
    assert list(out.iterdir()) == []


def test_band_fit_over_a_nonpositive_sample_is_a_failed_verdict(tmp_path,
                                                                capsys):
    # by t = 1000 band 2's sup has reached the roundoff floor, some samples
    # 0 and others roundoff: valid input whose middle band fails with
    # slope nan, as a decay report's row does
    code = main(["green-bands", "--set", "band2_times=1000,1500,2000,2500,3000",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" not in capsys.readouterr().err
    run_dir = _only_run_dir(tmp_path / "o", "bands1d")
    rows = (run_dir / "report.csv").read_text().splitlines()
    assert rows[3] == "linf:band2,nan,nan,-0.05,0.0,fail"
    assert "verdict: fail" in (run_dir / "manifest.txt").read_text()


def test_band_kernel_that_reads_zero_is_a_failed_verdict(tmp_path, capsys):
    # at t = 1e300 band 1 is its constant zero mode, so its x-derivative's
    # sup reads 0 at every time: a kernel is never zero data, so that row
    # fails with slope nan, as a roundoff floor does, instead of skipping
    # the report; and green_pair's t^2 overflows there without a warning
    code = main(["green-bands", "--set",
                 "band1_times=1e300,2e300,3e300,4e300,5e300",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "fit window" not in out and "skipped" not in out
    run_dir = _only_run_dir(tmp_path / "o", "bands1d")
    rows = (run_dir / "report.csv").read_text().splitlines()
    assert rows[1:3] == ["linf:band1,0.0,nan,-0.5,0.1,fail",
                         "linf:dx_band1,nan,nan,-1.0,0.1,fail"]
    assert rows[3].startswith("linf:band2,") and rows[3].endswith(",pass")
    assert "verdict: fail" in (run_dir / "manifest.txt").read_text()


def test_green_bands_rejects_non_bands_config(tmp_path, capsys):
    path = _write_config(tmp_path, _tiny_preset())
    code = main(["green-bands", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bands preset" in capsys.readouterr().err


def _load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module; launch.py imports its layers.py
    and checks.py's dataclasses look their module up in sys.modules."""
    import importlib.util

    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  perfbench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _untraceable(launch) -> list[str]:
    """The names perfbench/launch.py looks up with getattr in a traced
    run (TRACED, RUN_CALLS and EnergyLedger.record) that are not callable."""
    import dissipwave

    names = [f"{module}.{name}" for module, names in launch.TRACED.items()
             for name in names]
    names += [f"presets.{name}" for name in launch.RUN_CALLS]
    names.append("analysis.EnergyLedger.record")
    missing = []
    for dotted in names:
        value = dissipwave
        for part in dotted.split("."):
            value = getattr(value, part, None)
        if not callable(value):
            missing.append(dotted)
    return missing


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    assert _untraceable(_load_perfbench(monkeypatch, "launch")) == []


def test_a_traced_name_that_is_gone_is_caught(monkeypatch):
    launch = _load_perfbench(monkeypatch, "launch")
    monkeypatch.delattr("dissipwave.solver.linear_solution")
    assert _untraceable(launch) == ["solver.linear_solution"]


def test_each_kind_calls_its_runner_once_through_the_module(tmp_path, capsys,
                                                           monkeypatch):
    # the benchmark times a run by rebinding the presets runners on every
    # dissipwave module and wraps the TRACED functions by name, so the CLI
    # must reach each runner through the module, once per run, and every
    # traced name must exist
    import dissipwave
    import dissipwave.presets as presets
    launch = _load_perfbench(monkeypatch, "launch")
    for module, names in launch.TRACED.items():
        for name in names:
            assert callable(getattr(getattr(dissipwave, module), name, None)), \
                f"{module}.{name}"

    calls = dict.fromkeys(launch.RUN_CALLS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(presets, name) for name in launch.RUN_CALLS}
    wrappers = {name: counted(name, fn) for name, fn in originals.items()}
    for name, fn in originals.items():
        launch._rebind(fn, wrappers[name])
    bands = ExperimentPreset(name="cli-bands", kind="bands", n_dims=1,
                             grid_points=512, half_width=64.0,
                             band1_times=(2.0, 4.0, 8.0, 12.0, 16.0),
                             band2_times=(1.0, 2.0, 3.0, 4.0, 5.0))
    runs = [("simulate", _tiny_linear(name="cli-lin")),
            ("simulate", _tiny_preset()), ("green-bands", bands)]
    try:
        for command, preset in runs:
            path = _write_config(tmp_path, preset, name=f"{preset.name}.cfg")
            code = main([command, "--config", path,
                         "--out", str(tmp_path / "o")])
            assert code in (0, 1)
            assert (_only_run_dir(tmp_path / "o", preset.name)
                    / "series.csv").exists()
    finally:
        for name, fn in originals.items():
            launch._rebind(wrappers[name], fn)
    assert calls == {"run_linear": 1, "run_semilinear": 1, "run_bands": 1}


def test_benchmark_checker_reads_what_simulate_writes(tmp_path, capsys,
                                                     monkeypatch):
    # the benchmark judges a run from its files with its own parsers, so
    # the energy.csv and report.csv simulate writes must pass them cleanly
    checks = _load_perfbench(monkeypatch, "checks")
    path = _write_config(tmp_path, _tiny_preset(
        reports=((math.inf, 0, 0),), snapshot_times=(0.5, 0.6, 0.7, 0.8,
                                                     0.9, 1.0)))
    # the slope verdict over half a time unit is beside the point here
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) in (0, 1)
    proc = checks.Proc(label="simulate", preset="cli-tiny",
                       out=tmp_path / "o", code=0)
    margins = {}
    checks.check_energy(checks.read_energy(proc.run_dir / "energy.csv"),
                        proc, margins)
    rows = checks.read_report(proc.run_dir / "report.csv")
    assert proc.errors == []
    assert [row["quantity"] for row in rows] == ["linf:u"]
    assert set(margins) == {"analysis.margin.energy.cli-tiny.monotone",
                            "analysis.margin.energy.cli-tiny.balance"}


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_subprocess(tmp_path):
    cfg = _write_config(tmp_path, _tiny_preset())
    proc = subprocess.run(
        [sys.executable, "-m", "dissipwave", "simulate", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout


_NO_SCIPY_RUN = textwrap.dedent("""
    import sys
    from pathlib import Path

    import dissipwave.cli as cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    def polynomial_modules():
        return sorted(m for m in sys.modules
                      if m.split(".")[:2] == ["numpy", "polynomial"])

    cfg, out = sys.argv[1], Path(sys.argv[2])
    assert not scipy_modules(), scipy_modules()[:5]
    assert not polynomial_modules(), polynomial_modules()[:5]
    assert cli.main(["simulate", "--config", cfg, "--out", str(out / "o")]) == 0
    (run_dir,) = (out / "o" / "cli-tiny").iterdir()
    assert len((run_dir / "report.csv").read_text().splitlines()) == 3
    replays = {"decay-report": [],
               "energy-audit": ["--mono-tol", "1e-6", "--balance-tol", "1e-3"]}
    for command, tols in replays.items():
        assert cli.main([command, "--config", cfg, "--run", str(run_dir),
                         "--out", str(out / command), *tols]) == 0, command
    assert not scipy_modules(), scipy_modules()[:5]
    assert not polynomial_modules(), polynomial_modules()[:5]
""")


def test_cli_path_loads_no_scipy(tmp_path):
    # the fits and the energy ledger run on numpy alone: simulate fits two
    # decay rates (both pass on this data) and integrates the dissipation,
    # and the replays refit and re-audit its outputs; the step's quadrature
    # rule is a constant, so numpy.polynomial is not loaded either
    cfg = _write_config(tmp_path, _tiny_preset(
        reports=((1, 0, 0), (2, 0, 0)),
        snapshot_times=(0.2, 0.4, 0.6, 0.8, 1.0), fit_window=(0.1, 1.05)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, cfg, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
