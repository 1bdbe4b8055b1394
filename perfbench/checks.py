"""Output checks and verdict margins, read from dissipwave run directories.

Every CLI process of a workload is a Proc.  A process fails when it exits
nonzero, is never launched because an earlier one failed, or when a check
on what it wrote fails; the checks attach their messages to the process
that wrote the output.  The checks recompute from the files instead of
trusting the CLI's exit code, so a crash or a flipped verdict can never
read as a fast, passing run.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# energy-audit's default bounds, relative to E(0)
MONO_TOL = 1e-8
BALANCE_TOL = 1e-6

# decay-report --run refits the repr-written series.csv; its slopes must
# equal the live fit up to rounding in the regression
REPLAY_RTOL = 1e-12

# Final energy and sup norm of the semi2d horizon run must match the
# values recorded in semi2d_reference.json to this relative tolerance.
# Measured on that run: the nonlinearity (theta 2 against 4) moves the
# final energy by 3e-5 and the sup norm by 5e-4 of themselves, halving dt
# moves them by 3e-10 and 9e-11.  So reordered arithmetic and larger steps
# pass, a wrong source term does not.
REFERENCE_RTOL = 1e-7


@dataclass
class Proc:
    """One CLI process of a workload iteration."""

    label: str
    preset: str
    out: Path                 # the --out root given to the process
    code: int | None = None   # exit code; None if never launched
    errors: list = field(default_factory=list)
    launch: float = 0.0       # time.monotonic() just before the spawn
    end: float = 0.0          # time.monotonic() just after it was reaped
    rss_mb: float = 0.0
    times: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.errors)

    @property
    def run_dir(self) -> Path:
        """The <out>/<preset>/<timestamp> directory the process wrote."""
        found = sorted(p for p in self.out.glob("*/*") if p.is_dir())
        if len(found) != 1:
            raise CheckError(f"{self.label}: expected one run directory "
                             f"under {self.out}, found {len(found)}")
        return found[0]


class CheckError(Exception):
    pass


def metric_token(text: str) -> str:
    """Quantity or preset name as a metric name part (linf:dt_u ->
    linf-dt_u)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", text)


def read_report(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckError(f"{path.name} has no rows")
    for row in rows:
        for key in ("slope", "target", "tolerance"):
            row[key] = float(row[key])
    return rows


def slope_margin(row: dict, one_sided: bool) -> float:
    """Slope minus target in tolerance units; a row passes at <= 1.

    Two-sided rows give |slope - target| / tol, one-sided rows (slope <=
    target + tol) the signed value.  A zero-tolerance row gives the raw
    difference slope - target, passing at <= 0.
    """
    diff = row["slope"] - row["target"]
    if row["tolerance"] == 0.0:
        return diff
    return (diff if one_sided else abs(diff)) / row["tolerance"]


def check_report(proc: Proc, margins: dict,
                 semilinear: bool = False) -> list[dict]:
    """Every row of the process's report.csv must pass; records margins.

    Semilinear time-derivative rows are one-sided, as in
    analysis.decay_report.
    """
    rows = read_report(proc.run_dir / "report.csv")
    for row in rows:
        if row["verdict"] != "pass":
            proc.errors.append(f"{row['quantity']}: verdict {row['verdict']}")
        name = (f"analysis.margin.slope.{metric_token(proc.preset)}."
                f"{metric_token(row['quantity'])}")
        one_sided = semilinear and ":dt" in row["quantity"]
        margins[name] = slope_margin(row, one_sided)
    return rows


def check_replay(live_rows: list[dict], replay: Proc) -> None:
    rows = read_report(replay.run_dir / "report.csv")
    live = {r["quantity"]: r for r in live_rows}
    if set(live) != {r["quantity"] for r in rows}:
        replay.errors.append("replayed report lists other quantities")
        return
    for row in rows:
        ref = live[row["quantity"]]
        if row["verdict"] != ref["verdict"]:
            replay.errors.append(f"{row['quantity']}: replay verdict "
                                 f"{row['verdict']} != live {ref['verdict']}")
        if not math.isclose(row["slope"], ref["slope"], rel_tol=REPLAY_RTOL,
                            abs_tol=REPLAY_RTOL):
            replay.errors.append(f"{row['quantity']}: replay slope "
                                 f"{row['slope']!r} != live {ref['slope']!r}")


def read_energy(path: Path) -> dict[str, list[float]]:
    """energy.csv columns by quantity, in file (time) order."""
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    cols: dict[str, list[float]] = {}
    with open(path) as fh:
        if fh.readline().strip() != "t,quantity,value":
            raise CheckError(f"{path.name}: bad header")
        for line in fh:
            _t, name, value = line.rstrip("\n").split(",")
            cols.setdefault(name, []).append(float(value))
    for need in ("energy", "diss_integral", "linf:u"):
        if not cols.get(need):
            raise CheckError(f"{path.name} lacks the {need!r} series")
    return cols


def check_energy(cols: dict, proc: Proc, margins: dict) -> None:
    """Monotonicity and balance of the ledger, as ratios to their bounds."""
    energy, integral = cols["energy"], cols["diss_integral"]
    e0 = energy[0]
    rise = max((b - a for a, b in zip(energy, energy[1:])), default=0.0)
    residual = max(abs(e - e0 + i) for e, i in zip(energy, integral))
    key = f"analysis.margin.energy.{metric_token(proc.preset)}"
    margins[f"{key}.monotone"] = rise / (MONO_TOL * e0)
    margins[f"{key}.balance"] = residual / (BALANCE_TOL * e0)
    if not rise <= MONO_TOL * e0:
        proc.errors.append(f"energy rises by {rise!r} > {MONO_TOL} E0")
    if not residual <= BALANCE_TOL * e0:
        proc.errors.append(f"balance residual {residual!r} > "
                           f"{BALANCE_TOL} E0")


def check_reference(cols: dict, reference: dict, proc: Proc,
                    margins: dict) -> None:
    """Final energy and sup norm against the recorded values."""
    key = f"analysis.margin.reference.{metric_token(proc.preset)}"
    for name, column in (("energy", "energy"), ("linf-u", "linf:u")):
        got, want = cols[column][-1], reference[column]
        rel = abs(got - want) / abs(want)
        margins[f"{key}.{name}"] = rel / REFERENCE_RTOL
        if not rel <= REFERENCE_RTOL:
            proc.errors.append(f"final {column} {got!r} differs from the "
                               f"reference {want!r} by {rel:.3e} relative")


def run_checks(procs: list[Proc], check) -> dict:
    """Apply a workload's check to its processes; returns the margins.

    A nonzero exit fails its process and skips the output checks.  An
    output the check cannot read (CheckError and the like) fails the
    iteration's last process.
    """
    margins: dict = {}
    for proc in procs:
        if proc.code is None:
            proc.errors.append("not launched: an earlier process failed")
        elif proc.code != 0:
            proc.errors.append(f"exit code {proc.code}")
    if any(p.failed for p in procs):
        return margins
    try:
        check(procs, margins)
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        procs[-1].errors.append(f"unreadable output: {exc}")
    return margins


def check_semi1d(procs: list[Proc], margins: dict) -> None:
    sim, replay, audit = procs
    live_rows = check_report(sim, margins, semilinear=True)
    check_replay(live_rows, replay)
    check_energy(read_energy(sim.run_dir / "energy.csv"), audit, margins)


def check_semi2d(reference: dict):
    def check(procs: list[Proc], margins: dict) -> None:
        (audit,) = procs
        cols = read_energy(audit.run_dir / "energy.csv")
        check_energy(cols, audit, margins)
        check_reference(cols, reference, audit, margins)
    return check


def check_linear(procs: list[Proc], margins: dict) -> None:
    for proc in procs:
        check_report(proc, margins)
