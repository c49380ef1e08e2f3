"""Sparse-delta fine-tuning of pruned language models.

Post-training pruning (magnitude or activation-aware scoring), a learnable
sparse delta whose support evolves by drop/grow, sensitivity-driven sparsity
adaptation that holds the merged model at an exact sparsity budget, and
LoRA-family baselines, all at desk scale on a minimal autodiff engine.
"""

import ctypes as _ctypes
import os as _os

# Single-threaded BLAS: reductions keep one fixed order (reproducible runs)
# and the thread pool cannot oversubscribe small containers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")


def _openblas_fn(name: str, argtypes: list, restype):
    """``scipy_openblas_<name>`` of numpy's bundled OpenBLAS, typed; None when there is none.

    Called through the library itself because the environment variables are
    read only when it loads, which is too late in a process that imported
    numpy first.
    """
    import glob

    import numpy

    libdir = _os.path.join(_os.path.dirname(numpy.__file__), _os.pardir, "numpy.libs")
    for path in sorted(glob.glob(_os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = _ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            fn = getattr(lib, f"scipy_openblas_{name}{suffix}", None)
            if fn is not None:
                fn.argtypes = argtypes
                fn.restype = restype
                return fn
    return None


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports now; None without such a library."""
    get = _openblas_fn("get_num_threads", [], _ctypes.c_int)
    return None if get is None else int(get())


_set_threads = _openblas_fn("set_num_threads", [_ctypes.c_int], None)
if _set_threads is not None:
    _set_threads(1)
else:
    try:  # other BLAS builds: fix up at runtime when threadpoolctl is available
        import threadpoolctl as _threadpoolctl

        _threadpoolctl.threadpool_limits(limits=1, user_api="blas")
    except ImportError:  # pragma: no cover
        pass

__version__ = "0.1.0"
