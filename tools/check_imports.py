"""Check that hexframe loads no scipy module beyond those of scipy.sparse.

Imports the given modules (by default ``hexframe.cli``,
``hexframe.correction`` and ``hexframe.tracing``) in a fresh interpreter,
and a bare ``numpy, scipy.sparse`` in another, and prints each ``scipy.*``
module the first loads and the second does not.  Exits 1 if there is
any.  The baseline is measured, not listed, so the check holds for any
scipy version, whatever its ``scipy.sparse`` loads on its own.  Loading
``scipy.sparse.csgraph`` (which brings ``scipy.sparse.linalg``,
``scipy.linalg`` and scipy's OpenBLAS) adds about 11 MB of resident
memory, ``scipy.spatial`` about 6 MB.

Run with hexframe importable, as installed or with PYTHONPATH=src:

    python tools/check_imports.py [module ...]
"""

import subprocess
import sys

DEFAULT_MODULES = ("hexframe.cli", "hexframe.correction", "hexframe.tracing")
BASELINE_MODULES = ("numpy", "scipy.sparse")


def scipy_modules(modules):
    """The ``scipy`` modules loaded by a fresh interpreter importing
    ``modules``."""
    code = ("import sys, %s; print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))" % ", ".join(modules))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def main(argv):
    extra = scipy_modules(argv or DEFAULT_MODULES) - scipy_modules(BASELINE_MODULES)
    for name in sorted(extra):
        print(name)
    return 1 if extra else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
