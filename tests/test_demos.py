"""The demos and README's python examples run to completion against the
current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("demo", ["fit_and_score.py", "budget_targeting.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text()
    examples = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert examples
    for code in examples:
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_env(),
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


def test_cli_walkthrough_runs(tmp_path):
    # the walkthrough calls the pbpolicy console command; a shim on PATH
    # runs this package's CLI in place of an installed script
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "pbpolicy"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m pbpolicy.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    out = tmp_path / "out"
    proc = subprocess.run(["sh", str(ROOT / "demos" / "cli_walkthrough.sh"),
                           str(out)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "== oracle frontier at the same budget ==" in proc.stdout
    assert '"eta_B": 1.0013196115531686' in proc.stdout
    assert (out / "scored" / "assignments.csv").exists()
