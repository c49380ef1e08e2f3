"""Golden output digests: short runs whose bytes a refactor must keep.

For a fixed config and seed, a run's checkpoint, metrics CSV, merged
checkpoint and ``eval`` output are bitwise reproducible on one machine, so
their SHA-256 digests pin the behaviour of the whole program. Digests differ
between numpy builds, BLAS kernels and CPUs, so ``golden.json`` keys them by
an environment fingerprint. To record the entry of the current machine, run
from the repository root:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

# The copy-evolve shape, 60 steps: evolve and adapt events every 5 steps.
COPY = dict(
    task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=1, rank=8,
    every=5, drop_rate=0.3, sparsity=0.6, steps=60, eval_every=30, calib_batches=2, seed=0,
)
# Above the flat-GEMM bound and on the micro-batch threads (8 * 64 * 128 activation elements per micro-batch).
CHAR_LM = dict(task="char-lm", dim=128, context=64, grad_accum=2, steps=4, calib_batches=2, seed=0)
CORPUS_BYTES = 32 * 1024

# run name -> TrainConfig fields; "base-checkpoint" fine-tunes from the merged "seft" run
RUNS = {
    "seft": COPY,
    "adapt-merged": dict(COPY, adapt_source="merged"),
    "adapt-magnitude": dict(COPY, adapt_criterion="magnitude"),
    "nm-2-4": dict(COPY, sparsity=0.5, nm="2:4"),
    "seft-constrained": dict(COPY, method="seft-constrained"),
    "grad-accum-2": dict(COPY, grad_accum=2),
    "no-adapt": dict(COPY, adapt=False),
    "lora": dict(COPY, method="lora"),
    "lora-star": dict(COPY, method="lora-star"),
    "char-lm": CHAR_LM,
    "char-lm-lora-star": dict(CHAR_LM, method="lora-star"),
    "base-checkpoint": dict(COPY, steps=20),
    "prune": dict(COPY, method="frozen", steps=0),
}


def _envinfo():
    spec = importlib.util.spec_from_file_location("bench_envinfo", os.path.join(os.path.dirname(HERE), "bench", "envinfo.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint() -> str:
    """numpy version, OpenBLAS build string and CPU model, as the benchmark reads them."""
    import numpy

    env = _envinfo()
    return f"numpy {numpy.__version__} | {env.blas_info()['config']} | {env.cpu_model()}"


def _corpus(path: str) -> str:
    """Words of 1-8 letters from a pure-Python PRNG: the bytes do not depend on numpy."""
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 8))) for _ in range(64)]
    text = bytearray()
    while len(text) < CORPUS_BYTES:
        text += (" ".join(rng.choices(words, k=rng.randint(3, 10))) + ". ").encode("ascii")
    with open(path, "wb") as f:
        f.write(text[:CORPUS_BYTES])
    return path


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _cli(argv: list[str]) -> str:
    from sparsevolve.cli import EXIT_OK, main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"sparsevolve {' '.join(argv)} exited {code}")
    return out.getvalue()


def digests(out_dir: str) -> dict[str, dict[str, str]]:
    """Run every config into ``out_dir``; per run, the SHA-256 of its four outputs."""
    from sparsevolve.train import TrainConfig, train

    corpus = _corpus(os.path.join(out_dir, "corpus.txt"))
    result = {}
    for name, fields in RUNS.items():
        extra = dict(out_dir=out_dir, run_name=name)
        if fields["task"] == "char-lm":
            extra["corpus"] = corpus
        if name == "base-checkpoint":
            extra["base_checkpoint"] = os.path.join(out_dir, "seft.merged.ckpt")
        run = train(TrainConfig.from_dict(dict(fields, **extra)))
        merged = os.path.join(out_dir, f"{name}.merged.ckpt")
        _cli(["merge", run.checkpoint, "--out", merged])
        result[name] = {
            "ckpt": _sha(run.checkpoint),
            "metrics": _sha(run.metrics),
            "merge": _sha(merged),
            "eval": hashlib.sha256(_cli(["eval", run.checkpoint]).encode()).hexdigest(),
        }
    return result


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def record() -> str:
    """Write the current machine's entry into ``golden.json``; returns its fingerprint."""
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        entry = digests(out)
    table = load() if os.path.exists(GOLDEN) else {}
    key = fingerprint()
    table[key] = entry
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return key


if __name__ == "__main__":
    print(f"recorded {record()!r} in {GOLDEN}", file=sys.stderr)
