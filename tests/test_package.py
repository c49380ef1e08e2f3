import ast
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

    from sparsevolve import parallel
    from sparsevolve import train as train_mod
    from sparsevolve.data import make_task
    from sparsevolve.models import build_transformer

    if sparsevolve.blas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread entry points")
    cfg = train_mod.TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=2)
    tree, forward = build_transformer(cfg.model_config())
    tree.set_requires_grad(True, names=tree.prunable_names())
    task = make_task("copy", cfg.context, cfg.batch_size, seed=0)
    monkeypatch.setattr(parallel, "workers", lambda n_items, elements: 2)
    train_mod._backward_pass(cfg, tree, forward, task, np.random.default_rng(0), cfg.vocab)
    assert sparsevolve.blas_threads() == 1


# glibc's mallinfo2() fields, all size_t.
MALLINFO = """
import ast
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
from sparsevolve import parallel
from sparsevolve import train as train_mod
from sparsevolve.data import make_task
from sparsevolve.models import build_transformer
cfg = train_mod.TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=4)
tree, forward = build_transformer(cfg.model_config())
tree.set_requires_grad(True, names=tree.prunable_names())
task = make_task("copy", cfg.context, cfg.batch_size, seed=0)
parallel.workers = lambda n_items, elements: 2
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


# Functions and public methods under src/sparsevolve/ that nothing in src/ or
# bench/ calls, each with the reason it stays.
UNREFERENCED_ALLOWED: dict[str, str] = {}

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_files(*dirs: str) -> list[str]:
    out = []
    for d in dirs:
        for root, _, files in os.walk(os.path.join(REPO, d)):
            out.extend(os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef, bool]]:
    """(name, node, is_method) of every module-level function and public method."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs.append((item.name, item, True))
    return defs


def _references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, as_attribute_of_a_non_module) of every use of a name.

    A use is a loaded name, an attribute, or a string constant (``getattr``
    and the bench's patch tables name functions by string). An attribute of an
    imported name (``ckpt.load_into``) counts as a plain use; one of anything
    else (``report.global_sparsity``) only reaches methods.
    """
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            of_module = isinstance(node.value, ast.Name) and node.value.id in imported
            refs.append((node.attr, node.lineno, not of_module))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.append((node.value, node.lineno, False))
    return refs


def test_every_function_has_a_caller_or_a_reason():
    refs = []
    for path in _python_files("src", "bench"):
        refs.extend((path, *ref) for ref in _references(ast.parse(open(path, encoding="utf-8").read())))
    unused = []
    for path in _python_files(os.path.join("src", "sparsevolve")):
        for name, node, is_method in _definitions(ast.parse(open(path, encoding="utf-8").read())):
            used = any(
                ref == name
                and (is_method or not attr_only)
                and not (ref_path == path and node.lineno <= line <= node.end_lineno)
                for ref_path, ref, line, attr_only in refs
            )
            if not used and name not in UNREFERENCED_ALLOWED:
                unused.append(f"{os.path.relpath(path, REPO)}:{node.lineno} {name}")
    assert not unused, "defined but never used in src/ or bench/ (delete, or allowlist with a reason): " + ", ".join(unused)


def test_dead_code_allowlist_names_live_definitions():
    names = set()
    for path in _python_files(os.path.join("src", "sparsevolve")):
        names.update(name for name, _, _ in _definitions(ast.parse(open(path, encoding="utf-8").read())))
    assert set(UNREFERENCED_ALLOWED) <= names


# Default-valued parameters of module-level functions under src/sparsevolve/
# that no call in src/ or bench/ passes, each with the reason it stays. A key
# is "function" (every such parameter of it) or "function.parameter".
UNSET_DEFAULTS_ALLOWED = {
    "init_support.dtype": "float64 deltas for the finite-difference and bitwise-threading tests; training runs float32",
    "build_adapters.dtype": "float64 adapters for the bitwise-threading tests; training runs float32",
    "insert_entries.optim": "a one-edit wrapper that only bench/tracing.py's patch table names; the reference tests pass moments",
    "remove_entries.optim": "a one-edit wrapper that only bench/tracing.py's patch table names; the reference tests pass moments",
}


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _calls(tree: ast.Module) -> list[tuple[str | None, int, list, list]]:
    """(called name, line, positional args, keywords) of every call; ``partial(f, ...)`` counts as a call of ``f``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name, args = _name(node.func), node.args
            if name == "partial" and args:
                name, args = _name(args[0]), args[1:]
            out.append((name, node.lineno, args, node.keywords))
    return out


def _defaulted(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position or None for keyword-only) of every parameter with a default."""
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    out = [(p, i) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def test_every_default_is_passed_somewhere_or_has_a_reason():
    calls = []
    for path in _python_files("src", "bench"):
        calls.extend((path, *call) for call in _calls(ast.parse(open(path, encoding="utf-8").read())))
    unset = []
    for path in _python_files(os.path.join("src", "sparsevolve")):
        for node in ast.parse(open(path, encoding="utf-8").read()).body:
            if not isinstance(node, ast.FunctionDef) or node.name in UNSET_DEFAULTS_ALLOWED:
                continue
            for param, pos in _defaulted(node):
                passed = any(
                    name == node.name
                    and not (call_path == path and node.lineno <= line <= node.end_lineno)
                    and (
                        any(k.arg in (param, None) for k in keywords)  # by keyword, or through **kwargs
                        or any(isinstance(a, ast.Starred) for a in args)
                        or (pos is not None and len(args) > pos)
                    )
                    for call_path, name, line, args, keywords in calls
                )
                if not passed and f"{node.name}.{param}" not in UNSET_DEFAULTS_ALLOWED:
                    unset.append(f"{os.path.relpath(path, REPO)}:{node.lineno} {node.name}({param}=)")
    assert not unset, "defaults no call in src/ or bench/ sets (make them constants, or allowlist with a reason): " + ", ".join(unset)


def test_unset_defaults_allowlist_names_live_parameters():
    params = set()
    for path in _python_files(os.path.join("src", "sparsevolve")):
        for node in ast.parse(open(path, encoding="utf-8").read()).body:
            if isinstance(node, ast.FunctionDef):
                params.add(node.name)
                params.update(f"{node.name}.{p}" for p, _ in _defaulted(node))
    assert set(UNSET_DEFAULTS_ALLOWED) <= params
