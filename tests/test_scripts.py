"""The study script runs to completion at its smallest settings, with
RuntimeWarnings as errors."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


@pytest.mark.parametrize("name, args, first_line", [
    ("convergence_study.py", ["--levels", "1"],
     "omega0 study (scalar 1D, V = 2):"),
])
def test_script_runs(name, args, first_line, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first_line)
    assert "Traceback" not in proc.stderr
