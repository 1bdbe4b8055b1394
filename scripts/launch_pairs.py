#!/usr/bin/env python3
"""Launch one CLI command from two source trees, alternating, and compare
the processes' peak memory and run-call time.

Usage: python3 scripts/launch_pairs.py OLD NEW [--pairs N] -- <cli args>

OLD and NEW are repository trees (a checkout, or a `git archive` of one):
each needs src/dissipwave and perfbench/launch.py, through which every
process runs, as the benchmark's do; each tree's launcher imports that
tree's package.  Pair k launches OLD first when k is even and NEW first
when it is odd, one process at a time, each in a fresh working directory
that is deleted after it (so default outputs land there; an --out or
$DISSIPWAVE_OUT in the command is the caller's).

Printed per side: the median and quartiles (statistics.quantiles, n=4)
of ru_maxrss (MB) and of the presets run call's time (s), and how many
pairs NEW reads lower; first, whether bytecode writing is on, since it
moves both: with writing off, a tree with no __pycache__ compiles the
package at every launch.  Exit code 0 when every launch exits 0, 1 when one does not,
2 when a tree lacks src/dissipwave or perfbench/launch.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LAUNCHER = Path("perfbench") / "launch.py"
PACKAGE = Path("src") / "dissipwave"


def launch(tree: Path, cli_args: list[str]) -> tuple[int, float, float]:
    """(exit code, ru_maxrss in MB, run-call seconds) of one process."""
    with tempfile.TemporaryDirectory(prefix="launch_pairs-") as work:
        times = Path(work) / "times.json"
        child = subprocess.Popen(
            [sys.executable, str(tree / LAUNCHER), str(times), "0", "--",
             *cli_args], cwd=work, stdout=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(times.read_text()) if times.is_file() else {}
    run_s = (record["run_exit"] - record["run_enter"]
             if record.get("run_enter") is not None else float("nan"))
    return child.returncode, usage.ru_maxrss / 1024.0, run_s


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f}  quartiles {q1:.4f} {q3:.4f}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: launch_pairs.py OLD NEW [--pairs N] -- <cli args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the first tree")
    parser.add_argument("new", type=Path, help="the second tree")
    parser.add_argument("--pairs", type=int, default=8,
                        help="alternating pairs to launch (default 8)")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    for tree in (args.old, args.new):
        missing = [p for p in (PACKAGE, LAUNCHER) if not (tree / p).exists()]
        if missing:
            print(f"launch_pairs: {tree} has no "
                  f"{' or '.join(map(str, missing))}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("launch_pairs: --pairs must be at least 1", file=sys.stderr)
        return 2

    off = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    print(f"bytecode writing: {'off' if off else 'on'}"
          + (" (PYTHONDONTWRITEBYTECODE is set)" if off else ""))
    print(f"command: {' '.join(cli_args)}; {args.pairs} pairs")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    rss = {side: [] for side in sides}
    run = {side: [] for side in sides}
    failed = 0
    for k in range(args.pairs):
        for side in (("old", "new") if k % 2 == 0 else ("new", "old")):
            code, mb, seconds = launch(sides[side], cli_args)
            failed += code != 0
            rss[side].append(mb)
            run[side].append(seconds)
        print(f"pair {k}: ru_maxrss old {rss['old'][-1]:.3f} "
              f"new {rss['new'][-1]:.3f} MB; run call old "
              f"{run['old'][-1]:.4f} new {run['new'][-1]:.4f} s", flush=True)
    for name, values in (("ru_maxrss_mb", rss), ("run_call_s", run)):
        for side in sides:
            print(f"{name} {side}: {summary(values[side])}")
        lower = sum(n < o for o, n in zip(values["old"], values["new"]))
        print(f"{name} new lower in {lower}/{args.pairs} pairs")
    if failed:
        print(f"launch_pairs: {failed} launch(es) exited nonzero",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
