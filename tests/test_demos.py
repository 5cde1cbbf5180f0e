"""The demo scripts run and print their documented results."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import hexframe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hexframe.__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


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


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    # only demo 01 runs in the suite; this catches the others calling a
    # renamed or deleted name
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "hexframe"]
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), "%s:%d: %s.%s" % (
                os.path.basename(path), node.lineno, node.module, alias.name)
