#!/usr/bin/env python3
"""Run every built-in preset through `simulate`, then `verify-symbols`, and
summarize the verdicts.

Usage: python3 scripts/run_all.py [--out DIR] [--snapshots]
Exit code is the worst exit code among the individual runs.
"""

import argparse
import sys

from dissipwave import builtin_presets
from dissipwave.cli import VERDICT, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="output root directory")
    parser.add_argument("--snapshots", action="store_true",
                        help="write .dwf snapshots of the linear and semilinear runs")
    args = parser.parse_args()

    results = {}
    for name, preset in builtin_presets().items():
        argv = ["simulate", "--config", name]
        if args.out:
            argv += ["--out", args.out]
        if args.snapshots:
            argv.append("--snapshots")
        print(f"\n=== {name} ({preset.kind}) ===", flush=True)
        results[name] = cli_main(argv)

    argv = ["verify-symbols"] + (["--out", args.out] if args.out else [])
    print("\n=== verify-symbols ===", flush=True)
    results["verify-symbols"] = cli_main(argv)

    print("\nsummary:")
    for name, code in results.items():
        print(f"  {name:16s} exit {code} ({VERDICT[code]})")
    return max(results.values())


if __name__ == "__main__":
    sys.exit(main())
