"""The demo scripts run and print their documented results."""

import os
import subprocess
import sys

import hexframe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hexframe.__file__)))


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, env=env, timeout=60, check=True)


def test_frame_algebra_demo():
    out = run_demo("01_frame_algebra.py").stdout
    assert "max deviation over the 24 symmetries" in out
    assert "recovered alignment |c_proj . c| = 0.967059824\n" in out
    assert "closest frame axis to [0.9 0.1 0.2]: [ 0.7291  0.5718 -0.3762]\n" in out
