#!/usr/bin/env python3
"""Compare two output roots of the CLI byte for byte.

Usage: python3 scripts/compare_runs.py OLD NEW

A run directory is <root>/<name>/<timestamp>/ (it holds a manifest.txt).
The run directories of one preset name are paired in timestamp order, and
their files by name; any other file is paired by its path under the root.
Each pair is compared byte for byte, except that the two manifest lines
that name the command and the creation time (`# dissipwave run:` and
`# created:`) are set aside, for they differ between any two launches.
Every differing file, and every file or run directory only one root
holds, is printed.  Exit code 0 when the roots match, 1 when they do not,
2 when a root is not a directory.
"""

import argparse
import sys
from pathlib import Path

MANIFEST = "manifest.txt"
# the manifest lines that differ between two launches of one command
LAUNCH_LINES = (b"# dissipwave run:", b"# created:")


def output_files(root: Path) -> dict[str, Path]:
    """The files under root, keyed so that two roots pair them: a run
    directory's files as <name>/run<k>/<file>, k its place among its
    name's run directories in timestamp order; any other file by its
    path under root."""
    runs: dict[Path, list[Path]] = {}
    for manifest in root.rglob(MANIFEST):
        run_dir = manifest.parent
        runs.setdefault(run_dir.parent, []).append(run_dir)
    keys = {}
    for parent, run_dirs in runs.items():
        for k, run_dir in enumerate(sorted(run_dirs)):
            keys[run_dir] = parent.relative_to(root) / f"run{k}"
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        run_dir = next((d for d in path.parents if d in keys), None)
        key = (path.relative_to(root) if run_dir is None
               else keys[run_dir] / path.relative_to(run_dir))
        files[key.as_posix()] = path
    return files


def comparable_bytes(path: Path) -> bytes:
    """The file's bytes, a manifest's launch lines left out."""
    data = path.read_bytes()
    if path.name != MANIFEST:
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(LAUNCH_LINES))


def compare(old: Path, new: Path) -> list[str]:
    """One line per difference between the two roots."""
    old_files, new_files = output_files(old), output_files(new)
    lines = []
    for key in sorted(old_files.keys() | new_files.keys()):
        if key not in new_files:
            lines.append(f"only in {old}: {key}")
        elif key not in old_files:
            lines.append(f"only in {new}: {key}")
        elif (comparable_bytes(old_files[key])
              != comparable_bytes(new_files[key])):
            lines.append(f"differs: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the first output root")
    parser.add_argument("new", type=Path, help="the second output root")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            print(f"compare_runs: {root} is not a directory", file=sys.stderr)
            return 2
    differences = compare(args.old, args.new)
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} difference(s)")
        return 1
    print(f"{len(output_files(args.old))} files match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
