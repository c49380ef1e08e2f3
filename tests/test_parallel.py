"""The ordered map behind every per-batch forward pass, and its worker rule."""

import contextlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sparsevolve
from sparsevolve import autodiff as ad
from sparsevolve import parallel
from sparsevolve.data import IGNORE
from sparsevolve.delta import allocate_budget, init_support, materialize
from sparsevolve.lora import build_adapters
from sparsevolve.models import ModelConfig, build_transformer
from sparsevolve.pruning import collect_activation_norms, masked_base, prune_model
from sparsevolve.train import evaluate_ppl

CFG = ModelConfig(vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=16)


def test_batch_elements_put_the_workloads_on_both_sides():
    lm_tree, _ = build_transformer(ModelConfig(dim=128, context=64))
    copy_tree, _ = build_transformer(ModelConfig(vocab=32, dim=64, context=12, ff_mult=2))
    lm = parallel.batch_elements(lm_tree, np.zeros((8, 64), dtype=np.int64))
    copy = parallel.batch_elements(copy_tree, np.zeros((2, 12), dtype=np.int64))
    assert (lm, copy) == (65536, 1536)
    assert parallel.workers(25, lm) == min(25, len(os.sched_getaffinity(0)))
    assert parallel.workers(16, copy) == 1
    assert parallel.batch_elements(copy_tree, np.zeros((5, 6))) == 30  # float rows are the activations


@contextlib.contextmanager
def forced_workers(n: int):
    """Force ``n`` workers through the rule, interleaving threads as finely as the interpreter allows."""
    switch = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "workers", lambda n_items, elements: n)
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(switch)


def test_ordered_map_keeps_item_order_on_threads():
    delays = [0.02, 0.0, 0.01, 0.0, 0.0]  # the first item finishes last

    def fn(i):
        time.sleep(delays[i])
        return i

    with forced_workers(4):
        assert list(parallel.ordered_map(fn, list(range(5)), 0)) == [0, 1, 2, 3, 4]


def _val_batches():
    """Uneven batches, the first largest, so threads finish them out of order."""
    rng = np.random.default_rng(3)
    sizes = [(12, 16)] + [(int(rng.integers(1, 6)), int(rng.integers(2, 17))) for _ in range(23)]
    batches = []
    for b, t in sizes:
        x = rng.integers(0, CFG.vocab, size=(b, t))
        y = rng.integers(0, CFG.vocab, size=(b, t))
        y[:, : t // 3] = IGNORE
        batches.append((x, y))
    return batches


def _reference_ppl(forward, tree, batches, adapters=None) -> float:
    """One batch after another, the loss of each folded as it comes."""
    total, count = 0.0, 0
    for x, y in batches:
        logits = forward(tree, x, adapters=adapters)
        loss = ad.cross_entropy(ad.reshape(logits, (-1, CFG.vocab)), y.reshape(-1), ignore_index=IGNORE)
        n = int((y != IGNORE).sum())
        total += loss.item() * n
        count += n
    return float(np.exp(total / count))


# float64 models: a float32 loss times an integer count is exact in float64, so
# a float32 model's perplexity would not show a change in the order of the fold
def _sparse_delta_model():
    tree, forward = build_transformer(CFG, dtype=np.float64)
    calib = [x for x, _ in _val_batches()[:3]]
    masks, theta = prune_model(tree, forward, calib, 0.5)
    delta = init_support(theta, masks, allocate_budget(tree, 4), dtype=np.float64)
    rng = np.random.default_rng(4)
    for td in delta.slices.values():
        td.values = rng.normal(0.0, 0.05, size=td.values.shape)
    materialize(tree, masked_base(theta, masks), delta)
    return tree, forward, None


def _lora_model():
    tree, forward = build_transformer(CFG, dtype=np.float64)
    adapters = build_adapters(tree, 4, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    for a in adapters.values():  # a live B, so the adapter path changes the logits
        a.b.data = rng.normal(0.0, 0.05, size=a.b.data.shape)
    return tree, forward, adapters


@pytest.mark.parametrize("build", [_sparse_delta_model, _lora_model], ids=["sparse-delta", "lora"])
def test_threaded_evaluate_ppl_bitwise_equals_inline(build):
    tree, forward, adapters = build()
    batches = _val_batches()
    want = _reference_ppl(forward, tree, batches, adapters)
    with forced_workers(1):
        inline = evaluate_ppl(forward, tree, batches, CFG.vocab, adapters=adapters)
    with forced_workers(4):
        threaded = [evaluate_ppl(forward, tree, batches, CFG.vocab, adapters=adapters) for _ in range(3)]
    assert inline.hex() == want.hex()
    assert [p.hex() for p in threaded] == [want.hex()] * 3


def test_threaded_activation_norms_bitwise_equal_inline():
    tree, forward = build_transformer(CFG)
    calib = [x for x, _ in _val_batches()]
    # one batch after another, each tap's sum of squares folded as it comes
    want_sumsq: dict[str, np.ndarray] = {}
    for x in calib:
        taps = {n: [] for n in tree.prunable_names()}
        forward(tree, x, taps=taps)
        for name, arrs in taps.items():
            for arr in arrs:
                a64 = arr.astype(np.float64)
                want_sumsq[name] = want_sumsq.get(name, np.zeros(arr.shape[1])) + (a64 * a64).sum(axis=0)
    with forced_workers(1):
        inline = collect_activation_norms(forward, tree, calib)
    with forced_workers(4):
        runs = [collect_activation_norms(forward, tree, calib) for _ in range(3)]
    for acts in [inline, *runs]:
        assert list(acts) == tree.prunable_names()
        for name, a in acts.items():
            assert a.dtype == np.float64
            assert a.tobytes() == np.sqrt(want_sumsq[name]).tobytes()


def test_bad_id_in_third_val_batch_raises_the_same_error():
    tree, forward = build_transformer(CFG)
    batches = _val_batches()
    x, y = batches[2]
    x = x.copy()
    x[0, 1] = CFG.vocab  # one past the embedding table
    batches[2] = (x, y)
    with forced_workers(1), pytest.raises(ValueError) as inline:
        evaluate_ppl(forward, tree, batches, CFG.vocab)
    with forced_workers(4), pytest.raises(ValueError) as threaded:
        evaluate_ppl(forward, tree, batches, CFG.vocab)
    assert str(threaded.value) == str(inline.value) == f"embedding: id out of range [0, {CFG.vocab})"


def test_empty_sets_still_raise_on_threads():
    tree, forward = build_transformer(CFG)
    with forced_workers(4), pytest.raises(ValueError, match="no scored tokens"):
        evaluate_ppl(forward, tree, [], CFG.vocab)
    with forced_workers(4), pytest.raises(ValueError, match="empty calibration set"):
        collect_activation_norms(forward, tree, [])


# A copy-shaped fine-tune (prune, step, eval) stays below the size gate: no thread pool is imported.
NO_POOL_PROBE = """
import sys
from sparsevolve.train import TrainConfig, train
cfg = TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=4,
                  steps=2, every=1, rank=4, eval_every=0, calib_batches=4, out_dir=sys.argv[1])
train(cfg)
print("concurrent.futures" in sys.modules)
"""


def test_small_runs_import_no_thread_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsevolve.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", NO_POOL_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.split() == ["False"]

