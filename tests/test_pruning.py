import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevolve.adaptation import merged_support_sparsity
from sparsevolve.models import ModelConfig, build_transformer
from sparsevolve.pruning import (
    Mask,
    apply_mask,
    build_mask,
    collect_activation_norms,
    prune_model,
    score_wanda,
)

from oracles import build_mlp


def brute_force_row_keep(scores_row, keep):
    """Reference: keep the `keep` best coordinates, ties to lower index."""
    order = sorted(range(len(scores_row)), key=lambda i: (-scores_row[i], i))
    return sorted(order[:keep])


def brute_force_nm_keep(group, n):
    """Reference: enumerate all keep-sets of size n, max score sum, lowest-index tiebreak."""
    best = None
    for combo in itertools.combinations(range(len(group)), n):
        key = (sum(group[i] for i in combo), tuple(-i for i in combo))
        if best is None or key > best[0]:
            best = (key, combo)
    return sorted(best[1])


# --- activation norms ---


def test_single_token_norms():
    tree, forward = build_mlp([2, 2], seed=0)
    norms = collect_activation_norms(forward, tree, [np.array([[3.0, 4.0]])])
    np.testing.assert_allclose(norms["layer0.w"], [3.0, 4.0])


def test_two_token_unit_norms():
    tree, forward = build_mlp([2, 2], seed=0)
    norms = collect_activation_norms(forward, tree, [np.array([[1.0, 0.0], [0.0, 1.0]])])
    np.testing.assert_allclose(norms["layer0.w"], [1.0, 1.0])


def test_norms_match_dense_recompute_oracle():
    tree, forward = build_mlp([6, 4], seed=1)
    rng = np.random.default_rng(8)
    batches = [rng.normal(size=(5, 6)) for _ in range(3)]
    norms = collect_activation_norms(forward, tree, batches)
    stacked = np.concatenate(batches, axis=0)
    np.testing.assert_allclose(norms["layer0.w"], np.linalg.norm(stacked, axis=0), rtol=1e-12)


def test_empty_calibration_errors():
    tree, forward = build_mlp([2, 2])
    with pytest.raises(ValueError, match="empty"):
        collect_activation_norms(forward, tree, [])


# --- scoring ---


def test_wanda_hand_computed():
    scores = score_wanda(np.array([[1.0, -2.0]]), np.array([3.0, 1.0]))
    np.testing.assert_allclose(scores, [[3.0, 2.0]])


def test_wanda_unit_norms_reduces_to_magnitude():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 6))
    np.testing.assert_allclose(score_wanda(w, np.ones(6)), np.abs(w))


def test_wanda_zero_row_zero_scores():
    scores = score_wanda(np.zeros((1, 3)), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(scores, 0.0)


def test_wanda_length_mismatch():
    with pytest.raises(ValueError, match="norms"):
        score_wanda(np.zeros((2, 3)), np.zeros(2))


# --- mask construction ---


def test_build_mask_hand_topk():
    mask = build_mask(np.array([[3.0, 2.0]]), 0.5)
    np.testing.assert_array_equal(mask.bits, [[True, False]])


def test_build_mask_zero_sparsity_all_ones():
    mask = build_mask(np.random.default_rng(0).normal(size=(3, 4)), 0.0)
    assert mask.bits.all()


def test_build_mask_rejects_degenerate():
    with pytest.raises(ValueError):
        build_mask(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        build_mask(np.zeros((2, 2)), -0.1)
    with pytest.raises(ValueError, match="N=3 exceeds M"):
        build_mask(np.zeros((2, 4)), 0.5, nm=(3, 2))
    with pytest.raises(ValueError, match="divisible"):
        build_mask(np.zeros((2, 6)), 0.5, nm=(2, 4))


def test_build_mask_24_spec_instance():
    # brute-force enumeration over all C(4,2) keep-sets per group
    scores = np.array([[5.0, 1.0, 4.0, 2.0, 0.0, 9.0, 3.0, 3.0]])
    mask = build_mask(scores, 0.5, nm=(2, 4))
    row = scores[0]
    expect = np.zeros(8, dtype=bool)
    for g in range(2):
        keep = brute_force_nm_keep(row[4 * g : 4 * g + 4], 2)
        for i in keep:
            expect[4 * g + i] = True
    np.testing.assert_array_equal(mask.bits[0], expect)
    np.testing.assert_array_equal(mask.bits[0], [True, False, True, False, False, True, True, False])


def test_row_grouping_matches_brute_force_with_ties():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rows, cols = rng.integers(1, 6), rng.integers(1, 12)
        scores = rng.integers(0, 4, size=(rows, cols)).astype(float)  # ints force ties
        sparsity = rng.uniform(0.0, 0.95)
        mask = build_mask(scores, sparsity)
        keep = cols - int(np.floor(sparsity * cols))
        for r in range(rows):
            np.testing.assert_array_equal(np.flatnonzero(mask.bits[r]), brute_force_row_keep(scores[r], keep))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 8),
    groups=st.integers(1, 6),
    m=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 10_000),
)
def test_nm_group_constraint_property(rows, groups, m, seed):
    n = max(1, m // 2)
    scores = np.random.default_rng(seed).normal(size=(rows, groups * m))
    mask = build_mask(scores, 1 - n / m, nm=(n, m))
    assert mask.nm_violations(n, m) == []
    counts = mask.bits.reshape(rows, groups, m).sum(axis=2)
    np.testing.assert_array_equal(counts, n)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(2, 32), sparsity=st.floats(0.0, 0.95), seed=st.integers(0, 10_000))
def test_achieved_sparsity_within_one_over_rowlen(rows, cols, sparsity, seed):
    scores = np.random.default_rng(seed).normal(size=(rows, cols))
    mask = build_mask(scores, sparsity)
    assert sparsity - 1 / cols <= 1.0 - mask.bits.sum() / mask.bits.size <= sparsity + 1 / cols


def test_unit_norm_wanda_mask_equals_magnitude_mask():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 16))
    m1 = build_mask(score_wanda(w, np.ones(16)), 0.6)
    m2 = build_mask(np.abs(w), 0.6)
    np.testing.assert_array_equal(m1.bits, m2.bits)


# --- apply ---


def test_apply_all_ones_mask_unchanged():
    tree, _ = build_mlp([4, 4], seed=2)
    before = tree["layer0.w"].data.copy()
    masks = {"layer0.w": Mask("layer0.w", np.ones((4, 4), dtype=bool))}
    retained = apply_mask(tree, masks)
    np.testing.assert_array_equal(tree["layer0.w"].data, before)
    np.testing.assert_array_equal(retained["layer0.w"], before)


def test_apply_mask_popcount_oracle():
    tree, _ = build_mlp([6, 5], seed=4)
    bits = np.random.default_rng(9).random((5, 6)) < 0.5
    apply_mask(tree, {"layer0.w": Mask("layer0.w", bits)})
    assert np.count_nonzero(tree["layer0.w"].data) == bits.sum()
    assert (tree["layer0.w"].data[~bits] == 0).all()


def test_apply_mask_missing_errors():
    tree, _ = build_mlp([4, 4])
    with pytest.raises(KeyError, match="layer0.w"):
        apply_mask(tree, {})


def test_fully_masked_row_is_bias_only():
    tree, forward = build_mlp([3, 2], seed=5)
    tree["layer0.b"].data = np.array([0.25, -0.5])
    bits = np.ones((2, 3), dtype=bool)
    bits[0] = False
    apply_mask(tree, {"layer0.w": Mask("layer0.w", bits)})
    out = forward(tree, np.random.default_rng(1).normal(size=(4, 3)))
    np.testing.assert_allclose(out.data[:, 0], 0.25)


def test_mask_forward_equals_explicitly_zeroed_model():
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=6)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(7).integers(0, 16, size=(2, 4))
    calib = [ids]
    masks, retained = prune_model(tree, forward, calib, 0.5, scorer="wanda")
    masked_out = forward(tree, ids).data

    tree2, forward2 = build_transformer(cfg)
    for name, t in tree2.named_prunable():
        t.data = np.where(masks[name].bits, t.data, np.zeros((), dtype=t.data.dtype))
    np.testing.assert_array_equal(masked_out, forward2(tree2, ids).data)


def test_global_sparsity_accounting():
    masks = {
        "a": Mask("a", np.array([[True, False], [False, False]])),
        "b": Mask("b", np.ones((2, 2), dtype=bool)),
    }
    assert merged_support_sparsity(masks, None)[0] == pytest.approx((3 + 0) / 8)
