import numpy as np
import pytest

from sparsevolve import autodiff as ad
from sparsevolve.adaptation import merged_support_sparsity
from sparsevolve.autodiff import Tensor
from sparsevolve.delta import allocate_budget
from sparsevolve.evolution import EvolutionSchedule
from sparsevolve.lora import LoraAdapter, adapter_records, build_adapters, merge_and_reprune
from sparsevolve.models import ModelConfig, _linear, build_transformer
from sparsevolve.pruning import prune_model


def test_zero_b_gives_base_output():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    a = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    b = Tensor(np.zeros((5, 2), dtype=np.float32))
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    out = _linear(x, w, None, LoraAdapter(a, b))
    np.testing.assert_array_equal(out.data, ad.matmul(x, ad.transpose(w, (1, 0))).data)


def test_full_rank_identity_recovers_dense_update():
    rng = np.random.default_rng(1)
    d = 4
    w = Tensor(rng.normal(size=(d, d)))
    dw = rng.normal(size=(d, d))
    a = Tensor(np.eye(d))  # [r=d, in]
    b = Tensor(dw)  # [out, r]
    x = Tensor(rng.normal(size=(6, d)))
    out = _linear(x, w, None, LoraAdapter(a, b))
    np.testing.assert_allclose(out.data, x.data @ (w.data + dw).T, rtol=1e-12)


def test_random_adapter_matches_dense_merge_oracle_f32():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(8, 6)).astype(np.float32))
    a = Tensor(rng.normal(size=(3, 6)).astype(np.float32))
    b = Tensor(rng.normal(size=(8, 3)).astype(np.float32))
    x = Tensor(rng.normal(size=(10, 6)).astype(np.float32))
    out = _linear(x, w, None, LoraAdapter(a, b))
    merged = w.data + b.data @ a.data
    np.testing.assert_allclose(out.data, x.data @ merged.T, atol=1e-6)


def test_trainable_count_matches_delta_budget_exactly():
    cfg = ModelConfig(vocab=256, dim=128, heads=4, blocks=2, context=16, seed=0)
    tree, _ = build_transformer(cfg)
    for rank in (8, 16, 32, 64):
        adapters = build_adapters(tree, rank)
        budgets = allocate_budget(tree, rank)
        assert sum(w.size for w in adapter_records(adapters).values()) == sum(budgets.values())


def test_adapter_shapes_and_init():
    cfg = ModelConfig(vocab=32, dim=64, heads=4, blocks=1, context=8, seed=4)
    tree, _ = build_transformer(cfg)
    adapters = build_adapters(tree, rank=3, seed=5)
    for name, t in tree.named_prunable():
        out_dim, in_dim = t.data.shape
        assert adapters[name].a.data.shape == (3, in_dim)
        assert adapters[name].b.data.shape == (out_dim, 3)
        np.testing.assert_array_equal(adapters[name].b.data, 0.0)


def test_merge_and_reprune_zero_adapter_is_identity():
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=6)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(7).integers(0, 16, size=(2, 4))
    masks, theta = prune_model(tree, forward, [ids], 0.5)
    before = {n: t.data.copy() for n, t in tree.named_prunable()}
    adapters = build_adapters(tree, rank=2, seed=8)  # B=0 so the merge adds nothing
    new_masks, merged = merge_and_reprune(tree, forward, masks, adapters, [ids], 0.5)
    for name in masks:
        np.testing.assert_array_equal(masks[name].bits, new_masks[name].bits)
        np.testing.assert_array_equal(tree[name].data, before[name])


def test_merge_and_reprune_restores_sparsity_popcount():
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=9)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(10).integers(0, 16, size=(2, 4))
    masks, theta = prune_model(tree, forward, [ids], 0.5)
    adapters = build_adapters(tree, rank=2, seed=11)
    for a in adapters.values():  # make the merge genuinely dense
        a.b.data = np.random.default_rng(12).normal(0, 0.05, size=a.b.data.shape).astype(np.float32)
    new_masks, merged = merge_and_reprune(tree, forward, masks, adapters, [ids], 0.5)
    for name, m in new_masks.items():
        numel = m.bits.size
        cols = m.bits.shape[1]
        keep = cols - int(np.floor(0.5 * cols))
        assert m.bits.sum() == keep * m.bits.shape[0]
        assert np.count_nonzero(merged[name]) > m.bits.sum()  # merge was dense before reprune
        assert np.count_nonzero(tree[name].data) == m.bits.sum()
    assert merged_support_sparsity(new_masks, None)[0] == pytest.approx(0.5, abs=1e-6)


def test_constrained_mode_toggle():
    assert not EvolutionSchedule().restrict_growth
    assert EvolutionSchedule(restrict_growth=True).restrict_growth
