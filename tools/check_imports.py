"""Check that hexframe loads no scipy module at all.

Imports the given modules (by default ``hexframe.cli``,
``hexframe.correction`` and ``hexframe.tracing``) in a fresh interpreter
and prints each ``scipy.*`` module it loads.  Exits 1 if there is any.
hexframe calls scipy's compiled sparse kernels, one extension file that
it loads without importing a scipy package, so the set must be empty
whatever the scipy version.  ``import scipy.sparse`` adds about 22 MB of
resident memory to the 27 MB of ``import numpy``; the kernel file alone
adds 0.15 MB.

Run with hexframe importable, as installed or with PYTHONPATH=src:

    python tools/check_imports.py [module ...]
"""

import subprocess
import sys

DEFAULT_MODULES = ("hexframe.cli", "hexframe.correction", "hexframe.tracing")


def scipy_modules(modules):
    """The ``scipy`` modules loaded by a fresh interpreter importing
    ``modules``."""
    code = ("import sys, %s; print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))" % ", ".join(modules))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def main(argv):
    loaded = scipy_modules(argv or DEFAULT_MODULES)
    for name in sorted(loaded):
        print(name)
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
