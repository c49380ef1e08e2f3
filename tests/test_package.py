import ctypes
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


def test_blas_still_pinned_after_threaded_step(monkeypatch):
    import numpy as np

    from sparsevolve import train as train_mod
    from sparsevolve.data import make_task
    from sparsevolve.models import build_transformer

    if sparsevolve.blas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread entry points")
    cfg = train_mod.TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=2)
    tree, forward = build_transformer(cfg.model_config())
    tree.set_requires_grad(True, names=tree.prunable_names())
    task = make_task("copy", cfg.context, cfg.batch_size, seed=0)
    monkeypatch.setattr(train_mod, "micro_batch_workers", lambda grad_accum: 2)
    train_mod._backward_pass(cfg, tree, forward, task, np.random.default_rng(0), cfg.vocab)
    assert sparsevolve.blas_threads() == 1


# glibc's mallinfo2() fields, all size_t.
MALLINFO = """
import ctypes
class Mallinfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in
                ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
"""

# A live 4 MiB array comes from the heap, not from its own mmap; freed, it stays in the heap.
HEAP_PROBE = """
import numpy as np
before = libc.mallinfo2()
a = np.ones(1 << 19)
live = libc.mallinfo2()
del a
freed = libc.mallinfo2()
print(live.hblks - before.hblks, live.arena - freed.arena, sparsevolve.malloc_tuned())
"""

# Arenas malloc_info lists after a step's micro-batches ran on two threads.
ARENA_PROBE = """
import sys
import numpy as np
from sparsevolve import train as train_mod
from sparsevolve.data import make_task
from sparsevolve.models import build_transformer
cfg = train_mod.TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=4)
tree, forward = build_transformer(cfg.model_config())
tree.set_requires_grad(True, names=tree.prunable_names())
task = make_task("copy", cfg.context, cfg.batch_size, seed=0)
train_mod.micro_batch_workers = lambda grad_accum: 2
train_mod._backward_pass(cfg, tree, forward, task, np.random.default_rng(0), cfg.vocab)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
f = libc.fopen(sys.argv[1].encode(), b"w")
libc.malloc_info(0, f)
libc.fclose(f)
print(open(sys.argv[1]).read().count("<heap nr="))
"""

IMPORT_ORDERS = {"sparsevolve_first": "import sparsevolve\nimport numpy\n", "numpy_first": "import numpy\nimport sparsevolve\n"}


def _glibc_probe(imports: str, probe: str, *args: str) -> list[str]:
    libc = ctypes.CDLL(None)
    if not all(hasattr(libc, fn) for fn in ("mallopt", "mallinfo2", "malloc_info")):
        pytest.skip("libc has no glibc malloc introspection (mallopt/mallinfo2/malloc_info)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsevolve.__file__)))
    code = imports + MALLINFO + probe
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_malloc_keeps_large_arrays_in_the_heap(order):
    new_mmaps, trimmed, tuned = _glibc_probe(IMPORT_ORDERS[order], HEAP_PROBE)
    assert tuned == "True"
    assert new_mmaps == "0"  # M_MMAP_THRESHOLD: no per-array mmap
    assert trimmed == "0"  # M_TRIM_THRESHOLD: the freed top of the heap is not returned


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_micro_batch_threads_share_one_malloc_arena(order, tmp_path):
    (heaps,) = _glibc_probe(IMPORT_ORDERS[order], ARENA_PROBE, str(tmp_path / "malloc_info.xml"))
    assert heaps == "1"  # M_ARENA_MAX: no arena per thread
