"""scripts/compare_runs.py: two output roots match byte for byte, bar the
manifest lines that name the launch."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

MANIFEST = """# dissipwave run: simulate --config lin1d --out {root}
# created: {stamp}
# verdict: pass
name = lin1d
"""


def _tree(root: Path, stamp: str) -> Path:
    """An output root as the CLI writes it: two runs of one preset, one of
    another, and a file beside the run directories."""
    for name, runs in (("lin1d", ("a", "b")), ("semi2d-theta2", ("a",))):
        for k in runs:
            run_dir = root / name / f"20260101-00000{int(k == 'b')}Z"
            if stamp != "old":  # the second root's runs are later
                run_dir = run_dir.with_name(run_dir.name + "-1")
            run_dir.mkdir(parents=True)
            (run_dir / "manifest.txt").write_text(
                MANIFEST.format(root=root, stamp=f"{stamp}-{k}"))
            (run_dir / "series.csv").write_bytes(f"t,{name},{k}\n".encode())
            snaps = run_dir / "snapshots"
            snaps.mkdir()
            (snaps / "u_t1.dwf").write_bytes(bytes(range(256)) + k.encode())
    (root / "all.stdout").write_text("summary\n")
    return root


def _run(capsys, old: Path, new: Path) -> tuple[int, list[str]]:
    code = compare_runs.main([str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_match(tmp_path, capsys):
    old = _tree(tmp_path / "old", "old")
    new = _tree(tmp_path / "new", "new")
    code, out = _run(capsys, old, new)
    assert code == 0
    # three runs of three files each, and the file beside them
    assert out == ["10 files match"]


def test_one_changed_byte_is_reported(tmp_path, capsys):
    old = _tree(tmp_path / "old", "old")
    new = _tree(tmp_path / "new", "new")
    snap = next((new / "lin1d").glob("*/snapshots/u_t1.dwf"))
    data = bytearray(snap.read_bytes())
    data[17] ^= 1
    snap.write_bytes(bytes(data))
    code, out = _run(capsys, old, new)
    assert code == 1
    assert out == ["differs: lin1d/run0/snapshots/u_t1.dwf", "1 difference(s)"]


def test_a_changed_manifest_line_other_than_the_launch_is_reported(
        tmp_path, capsys):
    old = _tree(tmp_path / "old", "old")
    new = _tree(tmp_path / "new", "new")
    manifest = next((new / "semi2d-theta2").glob("*/manifest.txt"))
    manifest.write_text(manifest.read_text().replace("pass", "fail"))
    code, out = _run(capsys, old, new)
    assert code == 1
    assert out == ["differs: semi2d-theta2/run0/manifest.txt",
                   "1 difference(s)"]


def test_a_missing_file_is_reported(tmp_path, capsys):
    old = _tree(tmp_path / "old", "old")
    new = _tree(tmp_path / "new", "new")
    missing = sorted((new / "lin1d").glob("*/series.csv"))[1]
    missing.unlink()
    code, out = _run(capsys, old, new)
    assert code == 1
    assert out == [f"only in {old}: lin1d/run1/series.csv",
                   "1 difference(s)"]
    code, out = _run(capsys, new, old)
    assert out[0] == f"only in {old}: lin1d/run1/series.csv"


@pytest.mark.parametrize("which", [0, 1])
def test_a_root_that_is_not_a_directory_exits_2(tmp_path, which):
    roots = [_tree(tmp_path / "old", "old"), tmp_path / "absent"]
    if which:
        roots.reverse()
    assert compare_runs.main([str(r) for r in roots]) == 2
