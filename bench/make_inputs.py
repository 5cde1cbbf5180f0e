"""Regenerate bench/data/fields.npz, the solved input fields of `correct`.

The `correct` workload starts from the fields that `hexframe solve` gives
notch and arc_box at the default SolverConfig, as a user running
`hexframe correct --field` would.  Solving them takes ~25 s, too long to
repeat inside every benchmark run, so they are stored with the SHA-256 of
the fixture they were solved from; run.py refuses a stale file.

    python3 bench/make_inputs.py
"""

import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIELDS = os.path.join(HERE, "data", "fields.npz")
NAMES = ("notch", "arc_box")


def fixture_path(root, name):
    return os.path.join(root, "fixtures", name + ".mesh")


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hexframe.meshio import read_medit
    from hexframe.solver import compute_field

    arrays = {}
    for name in NAMES:
        path = fixture_path(ROOT, name)
        arrays[name] = compute_field(read_medit(path)).coeffs
        arrays[name + ".sha256"] = np.array(file_sha256(path))
        print("%s: %d vertices" % (name, len(arrays[name])))
    np.savez_compressed(FIELDS, **arrays)


if __name__ == "__main__":
    main()
