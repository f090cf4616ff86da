"""The study scripts run to completion at their smallest settings, with
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
    ("kernel_profile.py", ["--t", "0.01", "--out", "profile.csv"],
     "checked 1013 nodes, min margin "),
    ("run_gallery.py", ["--only", "g1,g6-flat"],
     f"{'scenario':28s} {'mode':11s} "),
])
def test_script_runs(name, args, first_line, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first_line)
    assert "Traceback" not in proc.stderr
