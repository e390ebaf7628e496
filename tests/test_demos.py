"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adafuse as af

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, cwd):
    src = str(Path(af.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["01_autodiff_engine.py", "02_stitched_encoders.py",
                                  "03_parameter_budgets.py", "04_synthetic_scenes.py"])
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


@pytest.mark.slow
def test_fusion_benefit_demo_runs(tmp_path):
    run_demo("05_fusion_benefit.py", tmp_path)
