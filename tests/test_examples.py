"""Example scripts: each must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "AdaptiveSVC" in out
        assert "test acc" in out

    def test_dnn_tuning_modelled(self):
        out = run_example("dnn_tuning.py")
        assert "Tune mu on DGX station" in out
        assert "--measured" in out  # the hint line


@pytest.mark.slow
class TestSlowExamples:
    def test_adaptive_svm_tour(self):
        out = run_example("adaptive_svm_tour.py")
        assert "trefethen" in out

    def test_format_explorer(self):
        out = run_example("format_explorer.py")
        assert "COO wins" in out and "CSR wins" in out

    def test_calibrate_cost_model(self):
        out = run_example("calibrate_cost_model.py")
        assert "fitted calibration" in out
