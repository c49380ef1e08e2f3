"""What a benchmark record needs to be comparable: BLAS threading and the host."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def blas_info() -> dict:
    """Effective thread count and build string of numpy's bundled OpenBLAS.

    Reads them through the library itself (ctypes), because the environment
    variables say nothing once numpy is loaded. ``threads`` is None when no
    bundled OpenBLAS with these entry points is found.
    """
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            return {"threads": int(get_threads()), "config": get_config().decode(errors="replace").strip()}
    return {"threads": None, "config": None}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
