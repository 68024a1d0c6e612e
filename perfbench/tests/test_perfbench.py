"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(capsys, workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def metric_line(lines: list[str], name: str) -> list[str]:
    found = [line.split() for line in lines if line.split()[:1] == [name]]
    assert len(found) == 1, name
    return found[0]


def digest(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith("verdict digest:")][0].split()[2:]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_prints_with_unit(capsys, workload, trace, kind):
    lines, result = bench(capsys, workload, trace)
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        fields = metric_line(lines, name)
        assert fields[2] == unit and fields[3].startswith("n="), fields
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert any(line.startswith("meta ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_agree(capsys, workload):
    plain_lines, _ = bench(capsys, workload, 0)
    traced_lines, traced = bench(capsys, workload, 1)
    assert len(digest(traced_lines)) == 1
    assert digest(plain_lines) == digest(traced_lines)
    assert traced["correct"] is True


def test_defect_quadratic_calls_repeat_exactly(capsys):
    counts = []
    for _ in range(2):
        _, result = bench(capsys, "ladder", 1)
        counts.append(result["metrics"]["operators.defect_quadratic.calls"]["value"])
    assert counts[0] == counts[1] > 0


def test_missing_wrap_target_is_reported_absent(capsys, monkeypatch):
    targets = [
        ("operators", "no_such_function", name) if name == spans.PDF else (mod, path, name)
        for mod, path, name in spans.SPAN_TARGETS
    ]
    monkeypatch.setattr(spans, "SPAN_TARGETS", targets)
    lines, result = bench(capsys, "ladder", 1)
    assert "missing targets: operators.no_such_function" in lines
    for name in ("operators.polarized_defect_form.calls", "analysis.oracle.ms"):
        assert metric_line(lines, name)[1] == "absent"
    assert metric_line(lines, "operators.defect_quadratic.calls")[1] != "absent"
    assert result["correct"] is True


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
