"""Smoke test of the benchmark at tiny sizes, through the same code path as a full run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = run.measure(workload, seconds=0, trace=trace, size="tiny")
        assert res["attempted"] > 0 and res["failed"] == 0, res["reps"]
        assert res["units"] == _units(section)
    layers = res["metrics"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert not res["traced_rep"]["untraced_sites"]
    if workload == "sweep":  # the CLI's own word_pair calls count as encoder time
        assert res["traced_rep"]["stats"]["encoder.word_pair"][0] > 0


def test_reference_time_rescales_by_the_probe_blocks_around_it():
    ref, power = speed.REF_PROBE_S, speed.SENSITIVITY
    assert speed.at_reference(2.0, ref, ref) == pytest.approx(2.0)
    assert speed.at_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(2.0 * 0.5**power)
    assert speed.at_reference(2.0, ref, 3 * ref) == pytest.approx(2.0 * 0.5**power)
    assert 0 < speed.block_s() < 1


def test_wrong_output_is_counted_not_fatal():
    jobs = workloads.jobs("chain", "tiny")
    wrong = next(e for e in jobs[1]["expect"] if e["label"] == "S_5 of 4231")
    wrong["want"] = 104  # A061552 has 103
    jobs[0]["argv"] = ["count", "--n", "99", "--format", "json"]  # exits 2: over the cap
    res = run.measure("chain", seconds=0, trace=False, size="tiny", jobs=jobs)
    per_rep = len(jobs[0]["expect"]) + 1
    assert res["failed"] == per_rep * len(res["reps"])
    assert res["attempted"] == sum(len(j["expect"]) for j in jobs) * len(res["reps"])
    problems = res["reps"][0]["problems"]
    assert any("S_5 of 4231: got 103, want 104" in p for p in problems)
    assert any("exit code 2" in p for p in problems)


def test_command_prints_the_result_line_last(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "sweep", "--seed", "7", "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
