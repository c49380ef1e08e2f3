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
