"""Print the versions the benchmark ran against, as one JSON object.

Python, numpy, scipy, the BLAS numpy was built with, and the number of
threads that BLAS uses (read from OpenBLAS when it is the one loaded).
"""

import ctypes
import glob
import json
import os
import platform
from importlib.metadata import version

import numpy


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": version("scipy"),
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": blas_threads(),
}))
