"""Check that hexframe loads no scipy module and no ``numpy.random``.

Imports the given modules (by default ``hexframe.cli``,
``hexframe.correction`` and ``hexframe.tracing``) in a fresh interpreter
and prints each ``scipy.*`` module and each ``numpy.random*`` module it
loads.  Exits 1 if there is any.  hexframe calls scipy's compiled sparse
kernels, one extension file that it loads without importing a scipy
package, so no scipy module may appear whatever the scipy version.
``import scipy.sparse`` adds about 22 MB of resident memory to the 27 MB
of ``import numpy``; the kernel file alone adds 0.15 MB.  ``numpy.random``
adds about 6 MB; hexframe reads its seed rotations from a fixed table.  A
numpy whose bare ``import numpy`` loads ``numpy.random`` itself (numpy 1.x)
is not hexframe's doing, so those modules are not reported.

Run with hexframe importable, as installed or with PYTHONPATH=src:

    python tools/check_imports.py [module ...]
"""

import subprocess
import sys

DEFAULT_MODULES = ("hexframe.cli", "hexframe.correction", "hexframe.tracing")


def loaded_modules(modules):
    """The modules loaded by a fresh interpreter importing ``modules``."""
    code = ("import sys, %s; print('\\n'.join(sys.modules))"
            % ", ".join(modules))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def guarded_modules(modules):
    """The ``scipy`` modules, and the ``numpy.random`` modules a bare
    ``import numpy`` does not load, that importing ``modules`` loads."""
    loaded = loaded_modules(modules)
    numpy_alone = loaded_modules(["numpy"])
    return ({m for m in loaded if m.split(".")[0] == "scipy"}
            | {m for m in loaded - numpy_alone
               if m.split(".")[:2] == ["numpy", "random"]})


def main(argv):
    loaded = guarded_modules(argv or DEFAULT_MODULES)
    for name in sorted(loaded):
        print(name)
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
