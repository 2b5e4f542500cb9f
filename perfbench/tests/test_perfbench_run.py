"""End-to-end behaviour of ``perfbench/run.py`` as a command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "figs_warm", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.slow
def test_seed_changes_the_inputs_but_not_the_metric_names():
    outputs = []
    for seed in ("11", "12"):
        proc = run_bench(ROOT, "--workload", "serve_fleet", "--seed", seed, "--seconds", "0.1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        diagnostics = json.loads(next(x for x in lines if x.startswith("diagnostics "))[12:])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        outputs.append((result, diagnostics))
    (first, diag1), (second, diag2) = outputs
    assert list(first["metrics"]) == list(second["metrics"])
    assert diag1["results_digest"] != diag2["results_digest"]
