import numpy as np
import pytest

from sparsevolve.models import ModelConfig, build_transformer

from oracles import build_mlp


def total_params(tree) -> int:
    return sum(t.data.size for _, t in tree.items())


def prunable_params(tree) -> int:
    return sum(t.data.size for _, t in tree.named_prunable())


def transformer_param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count matching ``build_transformer``."""
    ff = cfg.ff_mult * cfg.dim
    per_block = 4 * cfg.dim  # two layer norms, gain and bias each
    per_block += 4 * (cfg.dim * cfg.dim + cfg.dim)  # attention projections
    per_block += ff * cfg.dim + ff + cfg.dim * ff + cfg.dim  # feed-forward
    total = cfg.vocab * cfg.dim + cfg.context * cfg.dim  # embeddings
    total += cfg.blocks * per_block
    total += 2 * cfg.dim  # final norm
    total += cfg.vocab * cfg.dim + cfg.vocab  # head
    return total


def test_forward_output_shape():
    cfg = ModelConfig(vocab=256, dim=64, heads=4, blocks=2, context=16, seed=0)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(0).integers(0, 256, size=(3, 10))
    assert forward(tree, ids).shape == (3, 10, 256)


def test_fixed_seed_bitwise_identical_init():
    cfg = ModelConfig(vocab=64, dim=64, heads=2, blocks=2, context=8, seed=42)
    t1, _ = build_transformer(cfg)
    t2, _ = build_transformer(cfg)
    assert [n for n, _ in t1.items()] == [n for n, _ in t2.items()]
    for name, tensor in t1.items():
        np.testing.assert_array_equal(tensor.data, t2[name].data)


def test_param_count_closed_form_vs_walk():
    for cfg in [
        ModelConfig(vocab=256, dim=64, heads=4, blocks=2, context=16),
        ModelConfig(vocab=128, dim=96, heads=3, blocks=3, ff_mult=2, context=32),
    ]:
        tree, _ = build_transformer(cfg)
        assert total_params(tree) == transformer_param_count(cfg)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ModelConfig(dim=65, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(context=1)
    with pytest.raises(ValueError):
        ModelConfig(blocks=0)


def test_named_prunable_count_by_walk():
    cfg = ModelConfig(vocab=256, dim=64, heads=4, blocks=2, context=16)
    tree, _ = build_transformer(cfg)
    prunable = tree.named_prunable()
    # per block: 4 attention + 2 feed-forward, plus the LM head
    assert len(prunable) == 2 * (4 + 2) + 1
    for name, t in prunable:
        assert t.data.ndim == 2
    names = [n for n, _ in prunable]
    assert "tok_emb" not in names and "pos_emb" not in names


def test_embeddings_never_prunable():
    cfg = ModelConfig(vocab=64, dim=64, heads=2, blocks=1, context=8)
    tree, _ = build_transformer(cfg)
    assert not tree.is_prunable("tok_emb")
    assert not tree.is_prunable("pos_emb")
    assert tree.is_prunable("head.w")


def test_prunable_fraction_above_80_percent_default():
    tree, _ = build_transformer(ModelConfig())
    assert prunable_params(tree) / total_params(tree) > 0.80


def test_forward_pure():
    cfg = ModelConfig(vocab=32, dim=64, heads=4, blocks=2, context=8, seed=7)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(2).integers(0, 32, size=(2, 8))
    np.testing.assert_array_equal(forward(tree, ids).data, forward(tree, ids).data)


def test_mlp_identity_init_is_identity():
    tree, forward = build_mlp([4, 4], seed=0)
    tree["layer0.w"].data = np.eye(4)
    x = np.random.default_rng(3).normal(size=(5, 4))
    np.testing.assert_allclose(forward(tree, x).data, x)


def test_mlp_output_shape():
    tree, forward = build_mlp([8, 16, 2], seed=1)
    out = forward(tree, np.zeros((6, 8)))
    assert out.shape == (6, 2)


def test_mlp_rejects_single_dim():
    with pytest.raises(ValueError):
        build_mlp([4])


def test_mlp_single_prunable_entry():
    tree, _ = build_mlp([4, 4])
    assert len(tree.named_prunable()) == 1


def test_context_overflow_rejected():
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4)
    tree, forward = build_transformer(cfg)
    with pytest.raises(ValueError, match="context"):
        forward(tree, np.zeros((1, 5), dtype=np.int64))


def test_taps_capture_linear_inputs():
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=5)
    tree, forward = build_transformer(cfg)
    taps = {n: [] for n, _ in tree.named_prunable()}
    ids = np.random.default_rng(4).integers(0, 16, size=(2, 4))
    forward(tree, ids, taps=taps)
    for name, arrs in taps.items():
        assert len(arrs) == 1
        assert arrs[0].shape == (2 * 4, tree[name].data.shape[1])


def test_adapters_change_output_only_when_nonzero():
    from sparsevolve.lora import build_adapters

    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=5)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(4).integers(0, 16, size=(2, 4))
    base = forward(tree, ids).data
    adapters = build_adapters(tree, rank=2, seed=9)
    np.testing.assert_array_equal(forward(tree, ids, adapters=adapters).data, base)  # B=0
    adapters["head.w"].b.data += 0.5
    assert not np.array_equal(forward(tree, ids, adapters=adapters).data, base)
