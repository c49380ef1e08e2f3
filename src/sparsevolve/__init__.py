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

# glibc malloc: one arena, blocks below 32 MiB from the heap, no trimming
# below 64 MiB. A step allocates and frees tens of MB of activations; with the
# defaults glibc hands them back to the kernel (munmap, heap trim), in one
# arena per micro-batch thread, and the next micro-batch faults them in again
# as zeroed pages. This stops that page churn; it changes no number a run
# computes. The three settings only help together: a fixed threshold turns off
# glibc's adaptive mmap threshold, and without the arena cap each thread's
# arena keeps its own freed memory. Not glibc (no mallopt): nothing is set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOPTS = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _tune_malloc() -> bool:
    try:
        mallopt = _ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [_ctypes.c_int, _ctypes.c_int]
    mallopt.restype = _ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _MALLOPTS])


_malloc_tuned = _tune_malloc()


def malloc_tuned() -> bool:
    """True when all three glibc malloc settings above took effect at import."""
    return _malloc_tuned


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
