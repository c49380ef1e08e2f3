import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevolve import autodiff as ad
from sparsevolve.autodiff import Tape, Tensor, backward
from sparsevolve.delta import (
    DeltaOptimState,
    SparseDelta,
    TensorDelta,
    adamw_step,
    allocate_budget,
    effective_weights,
    gather_grads,
    init_support,
    insert_entries,
    materialize,
    merged_support,
    remove_entries,
    top_k,
)
from sparsevolve.models import ModelConfig, build_mlp, build_transformer
from sparsevolve.pruning import Mask


def make_delta(indices, values, budget=None, dtype=np.float64):
    d = SparseDelta({"t": budget or len(indices)}, dtype=dtype)
    d.slices["t"] = TensorDelta(np.asarray(indices), np.asarray(values, dtype=dtype), dtype=dtype)
    return d


# --- budgets ---


def test_budget_formula_single_matrix():
    tree, _ = build_mlp([64, 64], seed=0)
    budgets = allocate_budget(tree, 32)
    assert budgets["layer0.w"] == 32 * 128 == 4096


def test_budget_scales_linearly():
    cfg = ModelConfig(vocab=64, dim=128, heads=4, blocks=2, context=16)
    tree, _ = build_transformer(cfg)
    b8 = allocate_budget(tree, 8)
    b32 = allocate_budget(tree, 32)
    for name in b8:
        assert b32[name] == 4 * b8[name]


def test_budget_exceeding_numel_errors():
    tree, _ = build_mlp([4, 4], seed=0)
    with pytest.raises(ValueError, match="exceeds numel"):
        allocate_budget(tree, 3)  # 3*8=24 > 16


def test_budget_rejects_zero_rank():
    tree, _ = build_mlp([8, 8])
    with pytest.raises(ValueError):
        allocate_budget(tree, 0)


# --- effective weights ---


def test_empty_delta_gives_masked_base():
    theta = np.arange(6, dtype=np.float64).reshape(2, 3)
    bits = np.array([[True, False, True], [False, True, False]])
    w = effective_weights(theta, bits, None)
    np.testing.assert_array_equal(w, theta * bits)


def test_delta_at_masked_coordinate_stands_alone():
    theta = np.full((2, 2), 7.0)
    bits = np.array([[False, True], [True, True]])
    delta = make_delta([0], [0.75])
    w = effective_weights(theta, bits, delta.slices["t"])
    assert w[0, 0] == 0.75


def test_effective_weights_matches_dense_merge_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        shape = (rng.integers(1, 8), rng.integers(1, 8))
        numel = shape[0] * shape[1]
        theta = rng.normal(size=shape)
        bits = rng.random(shape) < 0.5
        k = int(rng.integers(0, numel + 1))
        idx = np.sort(rng.choice(numel, size=k, replace=False))
        vals = rng.normal(size=k)
        dense = (theta * bits).reshape(-1)
        dense[idx] += vals
        td = TensorDelta(idx, vals, dtype=np.float64)
        np.testing.assert_allclose(effective_weights(theta, bits, td), dense.reshape(shape))


def test_effective_weights_index_out_of_range():
    with pytest.raises(IndexError):
        effective_weights(np.zeros((2, 2)), np.ones((2, 2), bool), TensorDelta([5], [1.0], dtype=np.float64))


def test_effective_weights_linear_in_delta():
    rng = np.random.default_rng(13)
    theta = rng.normal(size=(4, 4))
    bits = rng.random((4, 4)) < 0.6
    idx = np.sort(rng.choice(16, size=5, replace=False))
    vals = rng.normal(size=5)
    w1 = effective_weights(theta, bits, TensorDelta(idx, vals, dtype=np.float64))
    w2 = effective_weights(theta, bits, TensorDelta(idx, 2 * vals, dtype=np.float64))
    base = effective_weights(theta, bits, None)
    np.testing.assert_allclose(w2 - base, 2 * (w1 - base), atol=1e-12)


# --- optimizer steps ---


def test_zero_gradient_leaves_values():
    d = make_delta([1, 4], [0.5, -0.5])
    opt = DeltaOptimState(d)
    adamw_step(d, opt, {"t": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(d.slices["t"].values, [0.5, -0.5])


def test_first_adamw_step_moves_by_lr():
    # bias-corrected moments make the first update g / (|g| + eps): a plain step of lr
    d = make_delta([3], [0.0])
    adamw_step(d, DeltaOptimState(d), {"t": np.array([1.0])}, lr=0.1)
    assert d.slices["t"].values[0] == pytest.approx(-0.1)


def scalar_adamw_reference(phi, g_seq, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        phi = phi - lr * (mh / (vh**0.5 + eps) + wd * phi)
    return phi


def test_adamw_matches_scalar_reference():
    g_seq = [0.3, -0.7, 1.2, 0.05]
    d = make_delta([2], [0.1])
    opt = DeltaOptimState(d)
    for g in g_seq:
        adamw_step(d, opt, {"t": np.array([g])}, lr=1e-2)
    expect = scalar_adamw_reference(0.1, g_seq, lr=1e-2)
    assert d.slices["t"].values[0] == pytest.approx(expect, abs=1e-12)


def test_adamw_weight_decay_matches_reference():
    g_seq = [0.5, 0.5]
    d = make_delta([0], [1.0])
    opt = DeltaOptimState(d)
    for g in g_seq:
        adamw_step(d, opt, {"t": np.array([g])}, lr=0.1, weight_decay=0.01)
    expect = scalar_adamw_reference(1.0, g_seq, lr=0.1, wd=0.01)
    assert d.slices["t"].values[0] == pytest.approx(expect, abs=1e-12)


def test_sparse_and_dense_adamw_agree_bitwise_with_the_vectorized_reference():
    from sparsevolve.train import DenseAdamW

    rng = np.random.default_rng(0)
    w0 = rng.normal(size=6).astype(np.float32)
    d = make_delta(np.arange(6), w0, dtype=np.float32)
    opt = DeltaOptimState(d)
    p = Tensor(w0.copy())
    dense = DenseAdamW([p], lr=1e-2, weight_decay=0.01)
    w, m, v = w0.copy(), np.zeros(6), np.zeros(6)
    for t in range(1, 6):
        g = rng.normal(size=6).astype(np.float32)
        adamw_step(d, opt, {"t": g}, lr=1e-2, weight_decay=0.01)
        p.grad = g
        dense.step()
        # float64 moments, bias corrections once per step, decoupled decay, cast back
        g64 = g.astype(np.float64)
        m = 0.9 * m + (1.0 - 0.9) * g64
        v = 0.999 * v + (1.0 - 0.999) * g64 * g64
        update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        w64 = w.astype(np.float64)
        w = (w64 - 1e-2 * (update + 0.01 * w64)).astype(np.float32)
        assert d.slices["t"].values.tobytes() == w.tobytes()
        assert p.data.tobytes() == w.tobytes()


def test_misaligned_grads_error():
    d = make_delta([1, 2], [0.0, 0.0])
    opt = DeltaOptimState(d)
    with pytest.raises(ValueError, match="misaligned"):
        adamw_step(d, opt, {"t": np.zeros(3)}, lr=0.1)
    with pytest.raises(ValueError, match="misaligned"):
        adamw_step(d, opt, {}, lr=0.1)


def test_step_changes_only_values():
    d = make_delta([1, 5, 9], [0.0, 0.0, 0.0])
    opt = DeltaOptimState(d)
    adamw_step(d, opt, {"t": np.array([1.0, -1.0, 2.0])}, lr=0.1)
    np.testing.assert_array_equal(d.slices["t"].indices, [1, 5, 9])
    assert opt.step == 1


# --- insert / remove ---


def test_insert_then_remove_roundtrip():
    d = make_delta([3], [0.5])
    opt = DeltaOptimState(d)
    insert_entries(d, "t", np.array([7]), opt)
    remove_entries(d, "t", np.array([7]), opt)
    np.testing.assert_array_equal(d.slices["t"].indices, [3])
    np.testing.assert_array_equal(d.slices["t"].values, [0.5])
    assert opt.m["t"].shape == (1,)


def test_insert_keeps_sorted_and_zero_valued():
    d = make_delta([3], [0.5])
    insert_entries(d, "t", np.array([5, 2]))
    np.testing.assert_array_equal(d.slices["t"].indices, [2, 3, 5])
    np.testing.assert_array_equal(d.slices["t"].values, [0.0, 0.5, 0.0])


def test_duplicate_insert_and_missing_remove_error():
    d = make_delta([3, 8], [0.0, 0.0])
    with pytest.raises(ValueError, match="already present"):
        insert_entries(d, "t", np.array([8]))
    with pytest.raises(ValueError, match="duplicate"):
        insert_entries(d, "t", np.array([5, 5]))
    with pytest.raises(ValueError, match="not present"):
        remove_entries(d, "t", np.array([4]))


def test_thousand_random_ops_vs_set_oracle():
    rng = np.random.default_rng(21)
    numel = 200
    d = make_delta([], [], budget=numel)
    opt = DeltaOptimState(d)
    model: dict[int, float] = {}
    for _ in range(1000):
        present = sorted(model)
        if present and rng.random() < 0.5:
            k = int(rng.integers(1, min(len(present), 8) + 1))
            drop = rng.choice(present, size=k, replace=False)
            remove_entries(d, "t", drop, opt)
            for i in drop:
                del model[int(i)]
        else:
            absent = np.setdiff1d(np.arange(numel), present)
            if absent.size == 0:
                continue
            k = int(rng.integers(1, min(absent.size, 8) + 1))
            ins = rng.choice(absent, size=k, replace=False)
            insert_entries(d, "t", ins, opt)
            for i in ins:
                model[int(i)] = 0.0
        td = d.slices["t"]
        np.testing.assert_array_equal(td.indices, sorted(model))
        assert td.values.shape == td.indices.shape == opt.m["t"].shape == opt.v["t"].shape


def reference_insert(td, m, v, new):
    """The four-``np.insert`` layout: zero value and moments at each new coordinate."""
    new = np.sort(new)
    pos = np.searchsorted(td.indices, new)
    return (
        np.insert(td.indices, pos, new),
        np.insert(td.values, pos, np.zeros(new.size, dtype=td.values.dtype)),
        np.insert(m, pos, 0.0),
        np.insert(v, pos, 0.0),
    )


@settings(max_examples=200, deadline=None)
@given(numel=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
def test_insert_entries_matches_np_insert_reference(numel, seed, dtype):
    rng = np.random.default_rng(seed)
    coords = rng.permutation(numel)
    n_old = int(rng.integers(0, numel + 1))
    n_new = int(rng.integers(0, numel - n_old + 1))
    old, new = np.sort(coords[:n_old]), coords[n_old : n_old + n_new]  # new arrives unsorted
    d = make_delta(old, rng.normal(size=n_old), budget=numel, dtype=dtype)
    opt = DeltaOptimState(d)
    opt.m["t"] = rng.normal(size=n_old)
    opt.v["t"] = rng.random(n_old)
    want = reference_insert(d.slices["t"], opt.m["t"], opt.v["t"], new)
    insert_entries(d, "t", new, opt)
    td = d.slices["t"]
    for got, ref in zip((td.indices, td.values, opt.m["t"], opt.v["t"]), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


def reference_top_k(scores, k, eligible=None):
    """Stable full sort, filtered and cut: the ranking ``top_k`` must reproduce."""
    order = np.argsort(-scores, kind="stable")
    if eligible is not None:
        order = order[eligible[order]]
    return np.sort(order[:k])


# few distinct values, so ties and NaN are common
SCORE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]) | st.floats(-3, 3)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_top_k_matches_stable_argsort(data, dtype):
    n = data.draw(st.integers(0, 40))
    scores = np.array(data.draw(st.lists(SCORE, min_size=n, max_size=n)), dtype=dtype)
    eligible = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(lambda b: np.array(b, dtype=bool)))
    k = data.draw(st.integers(0, n + 2))
    got = top_k(scores, k, eligible)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference_top_k(scores, k, eligible))


@pytest.mark.parametrize("scores", [np.full(9, 2.0), np.full(9, np.nan), np.array([1.0, np.nan, 1.0, np.nan, 3.0])])
@pytest.mark.parametrize("k", [0, 1, 2, 4, 9, 20])
def test_top_k_edge_cases(scores, k):
    np.testing.assert_array_equal(top_k(scores, k), reference_top_k(scores, k))
    eligible = np.arange(scores.size) % 2 == 1
    np.testing.assert_array_equal(top_k(scores, k, eligible), reference_top_k(scores, k, eligible))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), with_delta=st.booleans())
def test_merged_support_matches_union(rows, cols, seed, with_delta):
    rng = np.random.default_rng(seed)
    bits = rng.random((rows, cols)) < rng.random()
    before = bits.copy()
    idx = np.sort(rng.choice(rows * cols, size=int(rng.integers(0, rows * cols + 1)), replace=False))
    td = TensorDelta(idx, np.zeros(idx.size)) if with_delta else None
    got = merged_support(bits, td)
    assert got.shape == bits.shape and got.dtype == bool
    want = np.union1d(np.flatnonzero(bits), idx) if with_delta else np.flatnonzero(bits)
    np.testing.assert_array_equal(np.flatnonzero(got), want)
    np.testing.assert_array_equal(bits, before)  # the mask itself is untouched


# --- init + materialize + gradient-through-merge ---


def test_init_support_picks_largest_surviving_weights():
    theta = {"t": np.array([[0.9, -0.1], [0.5, -2.0]])}
    masks = {"t": Mask("t", np.array([[True, True], [True, False]]))}
    d = init_support(theta, masks, {"t": 2})
    np.testing.assert_array_equal(d.slices["t"].indices, [0, 2])  # 0.9 and 0.5; -2.0 is masked


def test_init_support_restricted_errors_when_budget_exceeds_active():
    theta = {"t": np.ones((2, 2))}
    masks = {"t": Mask("t", np.array([[True, False], [False, False]]))}
    with pytest.raises(ValueError, match="active"):
        init_support(theta, masks, {"t": 2}, restrict_to_mask=True)


def test_delta_gradient_equals_dense_gradient_at_support():
    # dual route: scatter-add graph vs an independent dense-leaf graph
    rng = np.random.default_rng(31)
    theta = rng.normal(size=(6, 6))
    bits = rng.random((6, 6)) < 0.5
    idx = np.sort(rng.choice(36, size=10, replace=False))
    phi = rng.normal(size=10)
    x = rng.normal(size=(3, 6))
    y = rng.integers(0, 6, size=3)

    base = Tensor(np.where(bits, theta, 0.0))
    phi_t = Tensor(phi, requires_grad=True)
    with Tape():
        w = ad.scatter_add(base, idx, phi_t)
        loss = ad.cross_entropy(ad.matmul(Tensor(x), ad.transpose(w, (1, 0))), y)
        backward(loss)

    dense = effective_weights(theta, bits, TensorDelta(idx, phi, dtype=np.float64))
    w2 = Tensor(dense, requires_grad=True)
    with Tape():
        loss2 = ad.cross_entropy(ad.matmul(Tensor(x), ad.transpose(w2, (1, 0))), y)
        backward(loss2)

    np.testing.assert_allclose(phi_t.grad, w2.grad.reshape(-1)[idx], atol=1e-10)


def test_materialize_and_gather(tiny_model):
    cfg, tree, forward = tiny_model
    rng = np.random.default_rng(41)
    theta = {n: t.data.copy() for n, t in tree.named_prunable()}
    masks = {n: Mask(n, rng.random(t.data.shape) < 0.5) for n, t in tree.named_prunable()}
    budgets = allocate_budget(tree, 2)
    delta = init_support(theta, masks, budgets, dtype=np.float64)
    materialize(tree, theta, masks, delta)
    for n, t in tree.named_prunable():
        np.testing.assert_array_equal(t.data, effective_weights(theta[n], masks[n].bits, delta.slices[n]))
    grads = {n: rng.normal(size=t.data.shape) for n, t in tree.named_prunable()}
    sliced = gather_grads(delta, grads)
    for n, td in delta.slices.items():
        np.testing.assert_array_equal(sliced[n], grads[n].reshape(-1)[td.indices])
