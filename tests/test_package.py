import os
import subprocess
import sys

import pytest

import sparsevolve

# Reads the thread count through numpy's bundled OpenBLAS itself.
PROBE = """
import ctypes, glob, os
import numpy
import sparsevolve
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
    lib = ctypes.CDLL(path)
    for suffix in ("64_", ""):
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
        if get is not None:
            get.restype = ctypes.c_int
            print(get())
            raise SystemExit(0)
print("none")
"""


def test_blas_pinned_when_numpy_is_imported_first():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")  # numpy loads OpenBLAS with two threads
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sparsevolve.__file__))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True)
    threads = out.stdout.strip()
    if threads == "none":
        pytest.skip("numpy has no bundled OpenBLAS with thread entry points")
    assert threads == "1"
