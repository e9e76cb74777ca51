"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs of each workload take about a minute and a half in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_full_epoch", "train_nfb_batch", "tooling")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def _traced(workload: str, seed: int) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 0), _traced(workload, 0)
    counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes")}
    assert {"trainer.adam_steps", "nfb.em_fit_calls", "nfb.em_iters",
            "nfb.fallback_fits", "autodiff.tape_nodes", "wcb.rows",
            "storage.bytes_written", "storage.bytes_read"} <= counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}
    if workload == "train_full_epoch":
        assert first["nfb.em_fit_calls"]["value"] == 34
        assert first["trainer.nograd_forward_calls"]["value"] == 1856
    if workload == "train_nfb_batch":
        assert first["wcb.compensate_batch_calls"]["value"] == 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "tooling", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_negative_seed_gives_fixed_inputs():
    proc = _run(ROOT, "--workload", "tooling", "--seed", "-1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[0])
    assert report["environment"]["program_seed"] == 2 ** 32 - 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
