"""Sparse-delta fine-tuning of pruned language models.

Post-training pruning (magnitude or activation-aware scoring), a learnable
sparse delta whose support evolves by drop/grow, sensitivity-driven sparsity
adaptation that holds the merged model at an exact sparsity budget, and
LoRA-family baselines, all at desk scale on a minimal autodiff engine.
"""

import os as _os

# Single-threaded BLAS: reductions keep one fixed order (reproducible runs)
# and the thread pool cannot oversubscribe small containers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")


def _pin_bundled_openblas() -> bool:
    """Set numpy's bundled OpenBLAS to one thread through its own setter.

    The environment variables are read only when that library loads, so they
    are too late in a process that imported numpy first. Returns False when
    no bundled OpenBLAS with the setter is found.
    """
    import ctypes
    import glob

    import numpy

    libdir = _os.path.join(_os.path.dirname(numpy.__file__), _os.pardir, "numpy.libs")
    for path in sorted(glob.glob(_os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return True
    return False


if not _pin_bundled_openblas():
    try:  # other BLAS builds: fix up at runtime when threadpoolctl is available
        import threadpoolctl as _threadpoolctl

        _threadpoolctl.threadpool_limits(limits=1, user_api="blas")
    except ImportError:  # pragma: no cover
        pass

__version__ = "0.1.0"
