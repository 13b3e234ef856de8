"""End-to-end: the command the benchmark is run with, on tiny inputs."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_spec_is_consistent_with_the_workloads():
    from bench import serve, train
    from bench.child import WORKLOADS

    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(train.LAYERS) | set(serve.LAYERS) == per_layer


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(trace):
    t0 = time.perf_counter()
    proc = run_bench(ROOT, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = result_lines(proc.stdout)
    assert len(lines) == len(SPEC["workloads"])
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] >= 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in want
        }
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values())
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == lines[-1]
    assert time.perf_counter() - t0 < 60


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        tmp_path, "--workload", "train-paper", "--seed", "0",
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    )
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)
