"""scripts/launch_pairs.py: alternating launches of one CLI command from
two trees, through each tree's perfbench/launch.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "launch_pairs.py"
_spec = importlib.util.spec_from_file_location("launch_pairs", SCRIPT)
launch_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(launch_pairs)


@pytest.mark.parametrize("which", [0, 1])
def test_a_tree_without_the_package_exits_2(tmp_path, capsys, which):
    # a tree with the launcher but no src/dissipwave is refused before
    # anything is launched
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "perfbench" / "launch.py").write_text("")
    trees = [ROOT, bare]
    if which:
        trees.reverse()
    code = launch_pairs.main([str(t) for t in trees]
                             + ["--", "simulate", "--config", "lin1d"])
    assert code == 2
    assert "src/dissipwave" in capsys.readouterr().err


def test_a_command_needs_its_separator():
    assert launch_pairs.main([str(ROOT), str(ROOT), "simulate"]) == 2


def test_one_pair_of_one_tree_reports_both_sides(capsys):
    code = launch_pairs.main([str(ROOT), str(ROOT), "--pairs", "1", "--",
                              "simulate", "--config", "lin1d"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("bytecode writing: ")
    assert out[1] == "command: simulate --config lin1d; 1 pairs"
    assert out[2].startswith("pair 0: ru_maxrss old ")
    heads = ("ru_maxrss_mb old: median ", "ru_maxrss_mb new: median ",
             "ru_maxrss_mb new lower in ", "run_call_s old: median ",
             "run_call_s new: median ", "run_call_s new lower in ")
    assert len(out) == 3 + len(heads)
    assert all(line.startswith(head) for line, head in zip(out[3:], heads))
