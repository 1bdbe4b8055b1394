"""The output checker must mark tampered runs as failed.

    python3 -m pytest perfbench/test_checks.py

Run directories are written by hand in the CLI's formats, so no solver
runs here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from checks import Proc  # noqa: E402

REPORT = """quantity,slope,stderr,target,tolerance,verdict
linf:u,-0.48,0.001,-0.5,0.1,pass
linf:dt_u,-1.45,0.002,-0.5,0.1,pass
"""


def write_run(out: Path, preset: str, files: dict[str, str]) -> None:
    run_dir = out / preset / "20260101-000000Z"
    run_dir.mkdir(parents=True)
    for name, text in files.items():
        (run_dir / name).write_text(text)


def energy_csv(energy, integral, sup) -> str:
    lines = ["t,quantity,value"]
    for name, col in (("energy", energy), ("diss_integral", integral),
                      ("linf:u", sup)):
        lines += [f"{0.1 * i!r},{name},{v!r}" for i, v in enumerate(col)]
    return "\n".join(lines) + "\n"


GOOD_ENERGY = energy_csv([1.0, 0.9, 0.8], [0.0, 0.1, 0.2], [0.3, 0.2, 0.1])


def semi1d_procs(tmp_path: Path, live: str = REPORT,
                 codes=(0, 0, 0)) -> list[Proc]:
    preset = "semi1d-theta3"
    procs = [Proc(label, preset, tmp_path / label, code=code)
             for label, code in zip(("simulate", "decay-report",
                                     "energy-audit"), codes)]
    write_run(procs[0].out, preset, {"report.csv": live,
                                     "energy.csv": GOOD_ENERGY})
    write_run(procs[1].out, preset, {"report.csv": REPORT})
    write_run(procs[2].out, preset, {"manifest.txt": ""})
    return procs


def failures(procs: list[Proc], check) -> list[str]:
    checks.run_checks(procs, check)
    return [p.label for p in procs if p.failed]


def test_clean_semi1d_run_passes_with_margins(tmp_path):
    procs = semi1d_procs(tmp_path)
    margins = checks.run_checks(procs, checks.check_semi1d)
    assert not any(p.failed for p in procs)
    key = "analysis.margin.slope.semi1d-theta3"
    assert margins[f"{key}.linf-u"] == pytest.approx(0.2)
    # one-sided row: signed, far below the bound
    assert margins[f"{key}.linf-dt_u"] == pytest.approx(-9.5)
    assert margins["analysis.margin.energy.semi1d-theta3.balance"] \
        == pytest.approx(0.0, abs=1e-9)
    assert set(margins) <= set(run.MARGINS)


def test_flipped_verdict_fails_the_run(tmp_path):
    procs = semi1d_procs(tmp_path, live=REPORT.replace(
        "-0.48,0.001,-0.5,0.1,pass", "-0.48,0.001,-0.5,0.1,fail"))
    assert failures(procs, checks.check_semi1d) == ["simulate",
                                                    "decay-report"]


@pytest.mark.parametrize("codes", [(1, None, None), (0, 0, 3)])
def test_nonzero_exit_fails_the_run(tmp_path, codes):
    procs = semi1d_procs(tmp_path, codes=codes)
    failed = failures(procs, checks.check_semi1d)
    assert failed == [p.label for p, c in zip(procs, codes) if c != 0]


def test_replay_slope_mismatch_fails(tmp_path):
    procs = semi1d_procs(tmp_path, live=REPORT.replace("-0.48,", "-0.47,"))
    assert failures(procs, checks.check_semi1d) == ["decay-report"]


def test_missing_output_fails(tmp_path):
    procs = semi1d_procs(tmp_path)
    next(procs[0].out.glob("*/*/energy.csv")).unlink()
    assert failures(procs, checks.check_semi1d) == ["energy-audit"]


def semi2d_proc(tmp_path: Path, energy: str) -> Proc:
    proc = Proc("energy-audit", "semi2d-theta2", tmp_path / "audit", code=0)
    write_run(proc.out, proc.preset, {"energy.csv": energy})
    return proc


def test_semi2d_reference_and_energy_checks(tmp_path):
    reference = {"energy": 0.8, "linf:u": 0.1}
    check = checks.check_semi2d(reference)
    assert failures([semi2d_proc(tmp_path / "a", GOOD_ENERGY)], check) == []
    drifted = energy_csv([1.0, 0.9, 0.8], [0.0, 0.1, 0.2], [0.3, 0.2, 0.11])
    assert failures([semi2d_proc(tmp_path / "b", drifted)], check) \
        == ["energy-audit"]
    rising = energy_csv([1.0, 0.9, 0.9 + 1e-6], [0.0, 0.1, 0.2],
                        [0.3, 0.2, 0.1])
    proc = semi2d_proc(tmp_path / "c", rising)
    assert failures([proc], checks.check_semi2d(
        {"energy": 0.9 + 1e-6, "linf:u": 0.1})) == ["energy-audit"]
    assert any("rises" in e for e in proc.errors)


def test_linear_flipped_verdict_fails(tmp_path):
    procs = []
    for preset in ("lin2d", "lin1d"):
        proc = Proc(preset, preset, tmp_path / preset, code=0)
        verdict = "fail" if preset == "lin1d" else "pass"
        write_run(proc.out, preset, {"report.csv": REPORT.replace(
            "-1.45,0.002,-0.5,0.1,pass", f"-0.45,0.002,-0.5,0.1,{verdict}")})
        procs.append(proc)
    assert failures(procs, checks.check_linear) == ["lin1d"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
