"""Benchmark of the dissipwave CLI presets.

    python3 perfbench/run.py [--workload semi1d|semi2d|linear|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload iteration is a fixed chain of
CLI processes (see WORKLOADS), run one at a time by this process through
perfbench/launch.py, which does what `python -m dissipwave` does and
records when the phases start and end.  Iterations repeat until the run
reaches the iteration boundary nearest to --seconds (at least one runs);
every process's outputs are checked after each iteration.

--trace 0 reports the end-to-end metrics, each the median over the
iterations (the sample count is printed):
  wall_s       first launch to last exit of an iteration
  setup_s      launch until the presets run call is entered (cli.main for
               the --run replays, which make none), summed over processes
  solve_s      time inside the presets run call, summed over processes
  peak_rss_mb  highest resident set size among the processes
Failed or refused processes are the result's `failed` out of `attempted`.

--trace 1 alternates traced and untraced iterations (at least traced,
untraced, traced) and reports the per-module metrics of the traced ones,
the CLI phase split of the untraced ones, the verdict margins, and
trace.overhead_frac = traced wall / untraced wall - 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed,
1 when one failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from checks import Proc  # noqa: E402

LAUNCHER = HERE / "launch.py"
REFERENCE = HERE / "semi2d_reference.json"
WORK_DIR = ".perfbench_work"

# The whole run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0

# Seed k runs variant k mod 9: scale factors of the preset's initial-data
# amplitude and width.  Variant 0 (seed 0) runs the presets exactly.  The
# band keeps every check passing: wider and smaller data only lower the
# energy-balance residual that bounds semi1d's step size.
VARIANTS = ((1.0, 1.0), (1.0, 1.05), (1.0, 1.1), (0.975, 1.0), (0.975, 1.05),
            (0.975, 1.1), (0.95, 1.0), (0.95, 1.05), (0.95, 1.1))
BASE_DATA = {"semi1d-theta3": (0.0485, 2.0), "semi2d-theta2": (0.0226, 2.0),
             "lin1d": (1.0, 1.0), "lin2d": (1.0, 1.0)}

# semi2d keeps the preset's 256^2 grid, data and dt and stops at t = 2
# (500 steps at dt 0.004) instead of t = 50, which takes minutes.
SEMI2D_HORIZON = ("--set", "t_final=2.0", "--set",
                  "snapshot_times=1.0,1.5,2.0")

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB"}

# Per-module metrics and the end-to-end metric each should move:
#   grid.*      solve_s on semi2d most, linear next, semi1d least;
#               peak_rss_mb on semi2d and linear
#   symbols.*   solve_s on linear; step-cache set-up inside solve_s on the
#               semilinear workloads
#   solver.*    solve_s on semi1d and semi2d (linear_solution on linear)
#   analysis.*  ledger: solve_s on semi1d and semi2d; CSV: wall_s on semi1d
#   oracle.*    solve_s on linear only
#   cli.*       setup_s on every workload, wall_s on semi1d
# Per-step values are per solver step (FFT work inside the step) plus per
# ledger record (FFT work inside EnergyLedger.record).
PER_LAYER = {
    "grid.fft_calls_per_step": "count",
    "grid.fft_ms_per_step": "ms",
    "grid.fft_mb_per_step": "MB_computed",
    "grid.inverse_transform_ms": "ms",
    "grid.snapshot_write_ms": "ms",
    "symbols.green_hat_calls": "count",
    "symbols.green_hat_ms": "ms",
    "solver.steps": "count",
    "solver.step_ms.p50": "ms",
    "solver.step_ms.p99": "ms",
    "solver.nonlinearity_ms_per_step": "ms",
    "solver.linear_step_ms_per_step": "ms",
    "solver.step_self_ms": "ms",
    "solver.linear_solution_ms": "ms",
    "analysis.ledger_ms_per_step": "ms",
    "analysis.observer_ms": "ms",
    "analysis.fit_ms": "ms",
    "analysis.csv_write_ms": "ms",
    "analysis.csv_mb": "MB",
    "oracle.heat_reference_ms": "ms",
    "cli.import_ms": "ms",
    "cli.output_ms": "ms",
    "cli.replay_ms": "ms",
    "trace.overhead_frac": "frac",
}
# Slope margins are in tolerance units and energy and reference margins are
# fractions of their bound; each passes at <= 1.  A margin reads 0 on a
# workload that does not produce it.
MARGINS = {
    **{f"analysis.margin.slope.semi1d-theta3.{q}": "tol_units"
       for q in ("linf-u", "l2-u", "l1-u", "linf-dt_u")},
    **{f"analysis.margin.slope.lin1d.{q}": "tol_units"
       for q in ("linf-u", "linf-dx_u", "linf-dt_u")},
    "analysis.margin.slope.lin2d.linf-u": "tol_units",
    **{f"analysis.margin.slope.bands1d.{q}": "tol_units"
       for q in ("linf-band1", "linf-dx_band1", "linf-band2")},
    **{f"analysis.margin.energy.{p}.{c}": "of_bound"
       for p in ("semi1d-theta3", "semi2d-theta2")
       for c in ("monotone", "balance")},
    **{f"analysis.margin.reference.semi2d-theta2.{q}": "of_bound"
       for q in ("energy", "linf-u")},
}
PER_LAYER.update(MARGINS)

# Exact counts: identical in every traced iteration of a run (and the CSV
# bytes in every iteration).
EXACT = ("grid.fft_calls_per_step", "solver.steps", "symbols.green_hat_calls")


class Runner:
    """Launches CLI processes under one work directory, one at a time."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.count = 0

    def launch(self, proc: Proc, cli_args: list[str], trace: bool) -> Proc:
        self.count += 1
        times_path = self.work / f"times-{self.count}.json"
        log_path = self.work / f"log-{self.count}.txt"
        argv = [sys.executable, str(LAUNCHER), str(times_path),
                "1" if trace else "0", "--", *cli_args, "--out", str(proc.out)]
        with open(log_path, "w") as log:
            proc.launch = time.monotonic()
            child = subprocess.Popen(argv, cwd=self.root, stdout=log,
                                     stderr=subprocess.STDOUT)
            limit = max(1.0, self.deadline - proc.launch)
            timer = threading.Timer(limit, child.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            proc.end = time.monotonic()
        child.returncode = proc.code = os.waitstatus_to_exitcode(status)
        proc.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        if proc.code != 0:
            tail = log_path.read_text().strip().splitlines()[-3:]
            print(f"perfbench: {' '.join(cli_args)} exited {proc.code}: "
                  + " | ".join(tail), file=sys.stderr)
        if times_path.is_file():
            proc.times = json.loads(times_path.read_text())
            times_path.unlink()
        spans_path = times_path.with_name(times_path.name + ".spans")
        if spans_path.is_file():
            proc.times["spans"] = layers.read_spans(
                spans_path, proc.times["span_count"])
            spans_path.unlink()
        return proc


def data_sets(preset: str, variant: int) -> list[str]:
    if variant == 0:
        return []
    amp, width = BASE_DATA[preset]
    amp_scale, width_scale = VARIANTS[variant]
    return ["--set", f"amplitude={round(amp * amp_scale, 12)!r}",
            "--set", f"width={round(width * width_scale, 12)!r}"]


def iterate_semi1d(runner: Runner, it_dir: Path, variant: int,
                   trace: bool) -> list[Proc]:
    """simulate --snapshots, then the decay-report and energy-audit replays
    of its run directory."""
    preset = "semi1d-theta3"
    common = ["--config", preset, *data_sets(preset, variant)]
    sim = Proc("simulate", preset, it_dir / "simulate")
    replay = Proc("decay-report", preset, it_dir / "decay-report")
    audit = Proc("energy-audit", preset, it_dir / "energy-audit")
    runner.launch(sim, ["simulate", *common, "--snapshots"], trace)
    if sim.code == 0:
        try:
            run_dir = str(sim.run_dir)
        except checks.CheckError as exc:
            sim.errors.append(str(exc))
        else:
            runner.launch(replay, ["decay-report", *common, "--run", run_dir],
                          trace)
            runner.launch(audit, ["energy-audit", *common, "--run", run_dir],
                          trace)
    return [sim, replay, audit]


def iterate_semi2d(runner: Runner, it_dir: Path, variant: int,
                   trace: bool) -> list[Proc]:
    preset = "semi2d-theta2"
    audit = Proc("energy-audit", preset, it_dir / "energy-audit")
    runner.launch(audit, ["energy-audit", "--config", preset,
                          *data_sets(preset, variant), *SEMI2D_HORIZON], trace)
    return [audit]


def iterate_linear(runner: Runner, it_dir: Path, variant: int,
                   trace: bool) -> list[Proc]:
    """simulate lin2d, simulate lin1d, green-bands (no time stepping)."""
    procs = []
    for preset in ("lin2d", "lin1d"):
        proc = Proc(f"simulate-{preset}", preset, it_dir / preset)
        runner.launch(proc, ["simulate", "--config", preset,
                             *data_sets(preset, variant)], trace)
        procs.append(proc)
    bands = Proc("green-bands", "bands1d", it_dir / "bands1d")
    procs.append(runner.launch(bands, ["green-bands"], trace))
    return procs


def _semi2d_check(variant: int):
    table = json.loads(REFERENCE.read_text())
    return checks.check_semi2d(table["variants"][str(variant)])


# workload -> (one iteration's process chain, the output check for a data
# variant)
WORKLOADS = {
    "semi1d": (iterate_semi1d, lambda v: checks.check_semi1d),
    "semi2d": (iterate_semi2d, _semi2d_check),
    "linear": (iterate_linear, lambda v: checks.check_linear),
}


class Iteration:
    """One pass of a workload's process chain; a traced pass keeps only
    its span totals, not the spans."""

    def __init__(self, procs: list[Proc], traced: bool, margins: dict,
                 csv_bytes: int) -> None:
        self.procs = procs
        self.traced = traced
        self.margins = margins
        self.csv_bytes = csv_bytes
        self.totals = None
        if traced:
            self.totals = layers.span_totals(
                [p.times for p in procs if "spans" in p.times])
            for p in procs:
                p.times.pop("spans", None)
        launched = [p for p in procs if p.code is not None]
        self.wall = max(p.end for p in launched) - min(p.launch
                                                       for p in launched)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.procs)

    def end_to_end(self) -> dict:
        setup = solve = 0.0
        for p in self.procs:
            t = p.times
            ready = t.get("run_enter") or t.get("main_enter", p.end)
            setup += ready - p.launch
            if t.get("run_enter") is not None:
                solve += t["run_exit"] - t["run_enter"]
        return {"wall_s": self.wall, "setup_s": setup, "solve_s": solve,
                "peak_rss_mb": max(p.rss_mb for p in self.procs)}

    def cli_phases(self) -> dict:
        output = replay = 0.0
        for p in self.procs:
            t = p.times
            if t.get("run_exit") is not None:
                output += t["main_exit"] - t["run_exit"]
            elif "main_exit" in t:
                replay += t["main_exit"] - t["main_enter"]
        return {"cli.output_ms": 1e3 * output, "cli.replay_ms": 1e3 * replay}


def csv_bytes(it_dir: Path) -> int:
    return sum(p.stat().st_size for p in it_dir.rglob("*.csv"))


def run_workload(name: str, runner: Runner, variant: int, seconds: float,
                 trace: bool) -> list[Iteration]:
    iterate, make_check = WORKLOADS[name]
    check = make_check(variant)
    iterations: list[Iteration] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 0
        t0 = time.monotonic()
        it_dir = runner.work / f"{name}-{len(iterations)}"
        procs = iterate(runner, it_dir, variant, traced)
        margins = checks.run_checks(procs, check)
        it = Iteration(procs, traced, margins, csv_bytes(it_dir))
        shutil.rmtree(it_dir, ignore_errors=True)
        iterations.append(it)
        durations.append(time.monotonic() - t0)
        if it.failed:
            break
        elapsed = time.monotonic() - start
        enough = len(iterations) >= (3 if trace else 1)
        # stop at the iteration boundary nearest to --seconds
        if enough and elapsed + statistics.median(durations) / 2 > seconds:
            break
        if time.monotonic() + max(durations) > runner.deadline:
            break
    return iterations


def end_to_end_metrics(iterations: list[Iteration]) -> tuple[dict, int]:
    rows = [it.end_to_end() for it in iterations if not it.traced]
    return ({k: statistics.median(r[k] for r in rows) for k in END_TO_END},
            len(rows))


def per_layer_metrics(iterations: list[Iteration]) -> tuple[dict, list[str]]:
    """Median per-module metrics of the traced iterations; the CLI phase
    split comes from the untraced ones.  Returns the metrics and the
    exact counts that did not repeat."""
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    rows, step_ms = [], []
    for it in traced:
        row = layers.layer_metrics(it.totals)
        row["analysis.csv_mb"] = 1e-6 * it.csv_bytes
        rows.append(row)
        step_ms += it.totals["step_ms"]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    unsteady = [k for k in EXACT if len({r[k] for r in rows}) != 1]
    if len({it.csv_bytes for it in iterations}) != 1:
        unsteady.append("analysis.csv_mb")
    out["solver.step_ms.p50"] = layers.percentile(step_ms, 50)
    out["solver.step_ms.p99"] = layers.percentile(step_ms, 99)

    imports = [1e3 * (p.times["import_end"] - p.times["import_start"])
               for it in iterations for p in it.procs if p.times]
    out["cli.import_ms"] = statistics.median(imports)
    phases = [it.cli_phases() for it in plain]
    for k in ("cli.output_ms", "cli.replay_ms"):
        out[k] = statistics.median(ph[k] for ph in phases)
    out["trace.overhead_frac"] = (
        statistics.median(it.wall for it in traced)
        / statistics.median(it.wall for it in plain) - 1.0)
    for k in MARGINS:
        out[k] = iterations[-1].margins.get(k, 0.0)
    return {k: out[k] for k in PER_LAYER}, unsteady


def machine_facts(runner: Runner) -> dict:
    """Machine and library facts; importing the package here also compiles
    its bytecode and warms the file cache before anything is timed."""
    done = subprocess.run([sys.executable, str(LAUNCHER), "--facts"],
                          cwd=runner.root, capture_output=True, text=True,
                          timeout=max(1.0, runner.deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip() or "launcher failed")
    facts = {"nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    facts.update(json.loads(done.stdout.strip().splitlines()[-1]))
    return facts


def report(name: str, iterations: list[Iteration], metrics: dict,
           units: dict, samples: str, problems: list[str]) -> None:
    print(f"== {name}: {len(iterations)} iterations, {samples}")
    walls = " ".join(f"{it.wall:.3f}{'T' if it.traced else ''}"
                     for it in iterations)
    print(f"   iteration walls (s, T = traced): {walls}")
    for k, v in metrics.items():
        print(f"   {k:52s} {v:14.6g} {units[k]}")
    for it in iterations:
        for p in it.procs:
            for err in p.errors:
                print(f"   FAILED {p.label} ({p.preset}): {err}")
    for problem in problems:
        print(f"   FAILED {problem}")


def measure(name: str, runner: Runner, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict, int, int, bool]:
    iterations = run_workload(name, runner, seed % len(VARIANTS), seconds,
                              trace)
    attempted = sum(len(it.procs) for it in iterations)
    failed = sum(it.failed for it in iterations)
    problems: list[str] = []
    if trace and len({it.traced for it in iterations}) < 2:
        problems.append("no traced and untraced iteration pair")
    metrics: dict = {}
    units: dict = {}
    samples = "checks failed"
    if not failed and not problems:
        if trace:
            metrics, unsteady = per_layer_metrics(iterations)
            units = PER_LAYER
            problems += [f"exact count {k} differs between iterations"
                         for k in unsteady]
            n_traced = sum(it.traced for it in iterations)
            samples = (f"{n_traced} traced, {len(iterations) - n_traced} "
                       f"untraced; step percentiles over all traced steps")
        else:
            metrics, n = end_to_end_metrics(iterations)
            units = END_TO_END
            samples = f"medians of n={n}"
    report(name, iterations, metrics, units, samples, problems)
    return metrics, units, attempted, failed, not failed and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "dissipwave" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no "
              "src/dissipwave here)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, started + DEADLINE_S)
    try:
        try:
            facts = machine_facts(runner)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"perfbench: cannot import dissipwave: {exc}",
                  file=sys.stderr)
            return 2
        print("machine: " + json.dumps(facts))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        all_metrics: dict = {}
        attempted = failed = 0
        correct = True
        for name in names:
            metrics, units, n_att, n_fail, ok = measure(
                name, runner, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            for k, v in metrics.items():
                all_metrics[prefix + k] = {"value": v, "unit": units[k]}
            attempted += n_att
            failed += n_fail
            correct = correct and ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
