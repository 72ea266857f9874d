"""Smoke test of the benchmark harness: every workload at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import (AXIS_LOAD_VERTICES, DEFAULT_SEED,  # noqa: E402
                       WORKLOADS, load_location)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_at_smoke_size(name, trace):
    line, report = run.execute(name, 3, 0.0, trace, size="smoke")
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(line["metrics"])
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert line["metrics"]["solvers.pcg_calls"]["value"] > 0
        assert (ROOT / report["spans_file"]).is_file()
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_seed_selects_load_vertex():
    assert load_location(DEFAULT_SEED) == (0.0, 0.0)
    chosen = {load_location(seed) for seed in range(1, 200)}
    assert chosen == set(AXIS_LOAD_VERTICES)
    assert load_location(7) == load_location(7)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "power11_chain", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
