import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevolve import autodiff as ad
from sparsevolve.autodiff import Tape, Tensor
from sparsevolve.delta import (
    DenseAdamW,
    EditMap,
    SparseDelta,
    TensorDelta,
    adamw_step,
    adamw_update,
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
from sparsevolve.models import ModelConfig, build_transformer
from sparsevolve.pruning import Mask, masked_base

from oracles import build_mlp, grads_of, scatter_add


def make_delta(indices, values, budget=None, dtype=np.float64):
    d = SparseDelta({"t": budget or len(indices)}, dtype=dtype)
    d.slices["t"] = TensorDelta(np.asarray(indices), np.asarray(values, dtype=dtype), dtype=dtype)
    return d


def delta_adamw(delta):
    """The training loop's optimizer over a delta: one part per slice, bound to its values."""
    return DenseAdamW({name: (td, "values") for name, td in delta.slices.items()})


def reference_merge(theta, bits, td):
    """The merge as one formula, the bitwise reference: ``np.where`` on the mask, then the delta scattered in."""
    w = np.where(bits, theta, np.zeros((), dtype=theta.dtype))
    if td is not None and len(td):
        w.reshape(-1)[td.indices] += td.values.astype(theta.dtype)
    return w


def merged(theta, bits, td):
    """The package's merge of one tensor: its masked base, then ``effective_weights``."""
    return effective_weights(masked_base({"t": theta}, {"t": Mask("t", bits)})["t"], td)


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
    w = merged(theta, bits, None)
    np.testing.assert_array_equal(w, theta * bits)


def test_delta_at_masked_coordinate_stands_alone():
    theta = np.full((2, 2), 7.0)
    bits = np.array([[False, True], [True, True]])
    delta = make_delta([0], [0.75])
    w = merged(theta, bits, delta.slices["t"])
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
        np.testing.assert_allclose(merged(theta, bits, td), dense.reshape(shape))
        assert merged(theta, bits, td).tobytes() == reference_merge(theta, bits, td).tobytes()


def test_effective_weights_index_out_of_range():
    with pytest.raises(IndexError):
        effective_weights(np.zeros((2, 2)), TensorDelta([5], [1.0], dtype=np.float64))


def test_masked_base_rejects_a_mask_of_another_shape():
    with pytest.raises(ValueError, match="mask shape"):
        masked_base({"t": np.zeros((2, 3))}, {"t": Mask("t", np.ones((3, 2), bool))})


def test_effective_weights_linear_in_delta():
    rng = np.random.default_rng(13)
    theta = rng.normal(size=(4, 4))
    bits = rng.random((4, 4)) < 0.6
    idx = np.sort(rng.choice(16, size=5, replace=False))
    vals = rng.normal(size=5)
    w1 = merged(theta, bits, TensorDelta(idx, vals, dtype=np.float64))
    w2 = merged(theta, bits, TensorDelta(idx, 2 * vals, dtype=np.float64))
    base = merged(theta, bits, None)
    np.testing.assert_allclose(w2 - base, 2 * (w1 - base), atol=1e-12)


# --- optimizer steps ---


def test_zero_gradient_leaves_values():
    d = make_delta([1, 4], [0.5, -0.5])
    opt = delta_adamw(d)
    adamw_step(d, opt, {"t": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(d.slices["t"].values, [0.5, -0.5])


def test_first_adamw_step_moves_by_lr():
    # bias-corrected moments make the first update g / (|g| + eps): a plain step of lr
    d = make_delta([3], [0.0])
    adamw_step(d, delta_adamw(d), {"t": np.array([1.0])}, lr=0.1)
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
    opt = delta_adamw(d)
    for g in g_seq:
        adamw_step(d, opt, {"t": np.array([g])}, lr=1e-2)
    expect = scalar_adamw_reference(0.1, g_seq, lr=1e-2)
    assert d.slices["t"].values[0] == pytest.approx(expect, abs=1e-12)


def test_adamw_weight_decay_matches_reference():
    g_seq = [0.5, 0.5]
    w, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
    for t, g in enumerate(g_seq, start=1):
        w = adamw_update(w, np.array([g]), m, v, t, 0.1, 0.9, 0.999, 1e-8, 0.01)
    expect = scalar_adamw_reference(1.0, g_seq, lr=0.1, wd=0.01)
    assert w[0] == pytest.approx(expect, abs=1e-12)


def vectorized_adamw(w, m, v, g64, t, lr):
    """The formula written out over float64 arrays: bias corrections once per step, no weight decay, cast back."""
    m = 0.9 * m + (1.0 - 0.9) * g64
    v = 0.999 * v + (1.0 - 0.999) * g64 * g64
    update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return (w.astype(np.float64) - lr * update).astype(w.dtype), m, v


def test_sparse_and_dense_adamw_agree_bitwise_with_the_vectorized_reference():
    # the delta's values and an adapter pair step through the one optimizer class, each
    # as its training loop feeds it: the delta from its float32 slice gradients, the
    # adapters from one float64 vector scaled by 1/grad_accum in place (here 2), which
    # is the per-tensor astype(float64) * scale of the reference
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=6).astype(np.float32)
    d = make_delta(np.arange(6), w0, dtype=np.float32)
    opt = delta_adamw(d)
    a, b = Tensor(w0.reshape(2, 3).copy()), Tensor(w0[::-1].reshape(3, 2).copy())
    dense = DenseAdamW({"x.lora_a": (a, "data"), "x.lora_b": (b, "data")})
    ref = {name: (arr.copy(), np.zeros(arr.shape), np.zeros(arr.shape)) for name, arr in (("t", w0), ("a", a.data), ("b", b.data))}
    for t in range(1, 6):
        g = {name: rng.normal(size=ref[name][0].shape).astype(np.float32) for name in ref}
        adamw_step(d, opt, {"t": g["t"]}, lr=1e-2)
        flat = np.concatenate([g["a"], g["b"]], axis=None, dtype=np.float64)
        flat *= 1.0 / 2
        dense.step(flat, lr=1e-2)
        for name, scale in (("t", 1.0), ("a", 0.5), ("b", 0.5)):
            ref[name] = vectorized_adamw(*ref[name], g[name].astype(np.float64) * scale, t, 1e-2)
        assert d.slices["t"].values.tobytes() == ref["t"][0].tobytes()
        for name, p in (("a", a), ("b", b)):
            assert p.data.shape == ref[name][0].shape and p.data.tobytes() == ref[name][0].tobytes()
            assert p.data.base is dense.w  # bound to the vector, not copied out of it
    assert dense.step_count == opt.step_count == 5


def test_misaligned_grads_error():
    d = make_delta([1, 2], [0.0, 0.0])
    opt = delta_adamw(d)
    with pytest.raises(ValueError, match="misaligned"):
        adamw_step(d, opt, {"t": np.zeros(3)}, lr=0.1)
    with pytest.raises(ValueError, match="misaligned"):
        adamw_step(d, opt, {}, lr=0.1)


def test_step_changes_only_values():
    d = make_delta([1, 5, 9], [0.0, 0.0, 0.0])
    opt = delta_adamw(d)
    adamw_step(d, opt, {"t": np.array([1.0, -1.0, 2.0])}, lr=0.1)
    np.testing.assert_array_equal(d.slices["t"].indices, [1, 5, 9])
    assert opt.step_count == 1


# --- insert / remove ---


def test_insert_then_remove_roundtrip():
    d = make_delta([3], [0.5])
    opt = delta_adamw(d)
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
    opt = delta_adamw(d)
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


def test_edit_map_regrown_coordinate_restarts_at_zero_and_others_carry():
    d = make_delta([1, 4, 6, 9], [0.5, -1.0, 2.0, 3.0], budget=5)
    opt = delta_adamw(d)
    opt.m["t"][:] = [1.0, 2.0, 3.0, 4.0]
    opt.v["t"][:] = [5.0, 6.0, 7.0, 8.0]
    edits = EditMap("t", d.slices["t"].indices, 12)
    edits.drop(np.array([4, 9]))
    edits.grow(np.array([11, 4, 0]))  # 4 is dropped and regrown: value and moments restart
    assert edits.count == 5
    edits.rebuild(d, opt)
    td = d.slices["t"]
    np.testing.assert_array_equal(td.indices, [0, 1, 4, 6, 11])
    np.testing.assert_array_equal(td.values, [0.0, 0.5, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(opt.m["t"], [0.0, 1.0, 0.0, 3.0, 0.0])
    np.testing.assert_array_equal(opt.v["t"], [0.0, 5.0, 0.0, 7.0, 0.0])
    assert td.indices.dtype == np.int64 and td.values.dtype == np.float64


def test_edit_map_refuses_bad_edits_and_leaves_itself_unchanged():
    d = make_delta([3, 8], [1.0, 2.0])
    edits = EditMap("t", d.slices["t"].indices, 10)
    for op, coords, match in (
        (edits.grow, [8], "already present"),
        (edits.grow, [5, 5], "duplicate"),
        (edits.drop, [4], "not present"),
        (edits.drop, [3, 3], "duplicate"),
    ):
        with pytest.raises(ValueError, match=match):
            op(np.array(coords))
        np.testing.assert_array_equal(np.flatnonzero(edits.live), [3, 8])
        assert edits.count == 2 and not edits.reset.any() and not edits.edited
    values = d.slices["t"].values
    edits.rebuild(d)  # nothing edited: the arrays stay the same objects
    assert d.slices["t"].values is values
    for edit in (insert_entries, remove_entries):  # a negative coordinate would alias the end of the map
        with pytest.raises(ValueError, match="negative"):
            edit(d, "t", np.array([-1]))


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
    opt = delta_adamw(d)
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
        w = scatter_add(base, idx, phi_t)
        loss = ad.cross_entropy(ad.matmul(Tensor(x), ad.transpose(w, (1, 0))), y)
        grads = grads_of(loss)

    dense = merged(theta, bits, TensorDelta(idx, phi, dtype=np.float64))
    w2 = Tensor(dense, requires_grad=True)
    with Tape():
        loss2 = ad.cross_entropy(ad.matmul(Tensor(x), ad.transpose(w2, (1, 0))), y)
        grads2 = grads_of(loss2)

    np.testing.assert_allclose(grads[phi_t], grads2[w2].reshape(-1)[idx], atol=1e-10)


def test_materialize_and_gather(tiny_model):
    cfg, tree, forward = tiny_model
    rng = np.random.default_rng(41)
    theta = {n: t.data.copy() for n, t in tree.named_prunable()}
    masks = {n: Mask(n, rng.random(t.data.shape) < 0.5) for n, t in tree.named_prunable()}
    budgets = allocate_budget(tree, 2)
    delta = init_support(theta, masks, budgets, dtype=np.float64)
    materialize(tree, masked_base(theta, masks), delta)
    for n, t in tree.named_prunable():
        assert t.data.tobytes() == reference_merge(theta[n], masks[n].bits, delta.slices[n]).tobytes()
    grads = {n: rng.normal(size=t.data.shape) for n, t in tree.named_prunable()}
    sliced = gather_grads(delta, grads)
    for n, td in delta.slices.items():
        np.testing.assert_array_equal(sliced[n], grads[n].reshape(-1)[td.indices])


def test_materialize_from_the_cached_base_equals_the_reference_merge_through_a_run(tmp_path, monkeypatch):
    # every merge of a real run (the initial one, then one per step, after the event on
    # an event step) against the one-formula reference on the current masks: a base left
    # stale after an event whose adaptation cleared mask bits would keep pruned weights
    from sparsevolve import train as train_mod

    seen = {"masks": None, "merges": 0, "pruned_base": 0}
    real_prune, real_materialize = train_mod._prune, train_mod.materialize

    def prune(*args):
        seen["masks"], seen["theta"] = out = real_prune(*args)
        return out

    def materialize_checked(tree, base, delta):
        real_materialize(tree, base, delta)
        seen["merges"] += 1
        for name, t in tree.named_prunable():
            want = reference_merge(seen["theta"][name], seen["masks"][name].bits, delta.slices[name])
            assert t.data.tobytes() == want.tobytes(), f"merge {seen['merges']}: {name}"

    def on_event(ev):
        seen["pruned_base"] += ev.adaptation.pruned_base

    monkeypatch.setattr(train_mod, "_prune", prune)
    monkeypatch.setattr(train_mod, "materialize", materialize_checked)
    cfg = train_mod.TrainConfig(
        task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=1, rank=8,
        every=5, drop_rate=0.3, sparsity=0.6, steps=30, eval_every=0, out_dir=str(tmp_path),
    )
    train_mod.train(cfg, on_event=on_event)
    assert seen["merges"] == 1 + cfg.steps
    assert seen["pruned_base"] > 0  # adaptation cleared base bits, so a stale base would show


class PerTensorMoments:
    """The reference optimizer state: one float64 moment array per tensor, nothing flat to lay out."""

    def __init__(self, delta):
        self.m = {name: np.zeros(len(td)) for name, td in delta.slices.items()}
        self.v = {name: np.zeros(len(td)) for name, td in delta.slices.items()}
        self.step_count = 0

    def relayout(self):
        pass


def per_tensor_adamw(delta, optim, grads, lr):
    """The reference step: one ``adamw_update`` per tensor, each slice its own array, no weight decay."""
    optim.step_count += 1
    for name, td in delta.slices.items():
        td.values = adamw_update(td.values, grads[name], optim.m[name], optim.v[name], optim.step_count, lr, 0.9, 0.999, 1e-8, 0.0)


def test_flat_adamw_equals_a_per_tensor_loop_across_events():
    # slices in non-sorted order and of different sizes; events insert and remove
    # entries between steps (each edit lays the optimizer out anew), and one step
    # follows a caller's own assignment, after the caller's own relayout
    rng = np.random.default_rng(5)
    numels = {"b": 40, "a": 25, "c": 60}
    deltas = [SparseDelta(numels, dtype=np.float32) for _ in range(2)]
    for n, n_el in numels.items():
        idx = np.sort(rng.choice(n_el, size=n_el // 3, replace=False))
        vals = rng.normal(size=idx.size).astype(np.float32)
        for d in deltas:
            d.slices[n] = TensorDelta(idx, vals.copy())
    flat, ref = deltas
    flat_opt, ref_opt = delta_adamw(flat), PerTensorMoments(ref)
    for step in range(1, 31):
        grads = {n: rng.normal(size=len(td)).astype(np.float32) for n, td in flat.slices.items()}
        adamw_step(flat, flat_opt, grads, lr=1e-2)
        per_tensor_adamw(ref, ref_opt, grads, lr=1e-2)
        assert all(td.values.base is flat_opt.w for td in flat.slices.values())  # views of one buffer
        for n in numels:
            for got, want in ((flat.slices[n].values, ref.slices[n].values), (flat_opt.m[n], ref_opt.m[n]), (flat_opt.v[n], ref_opt.v[n])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (step, n)
        if step % 5 == 0:  # an event: drop the smallest entries of some tensors, grow elsewhere
            for n in sorted(numels)[step % 3 :]:
                td = flat.slices[n]
                drop = td.indices[np.argsort(np.abs(td.values), kind="stable")[:2]]
                free = np.setdiff1d(np.arange(numels[n]), td.indices)[-3:]
                for d, o in ((flat, flat_opt), (ref, ref_opt)):
                    remove_entries(d, n, drop, o)
                    insert_entries(d, n, free, o)
        if step == 12:  # arrays a caller assigns itself, as tests do, then lays out itself
            for d in (flat, ref):
                d.slices["a"].values = d.slices["a"].values * np.float32(0.5)
            flat_opt.relayout()
    assert flat_opt.step_count == 30


def test_flat_adamw_rejects_misaligned_moments_and_mixed_dtypes():
    d = SparseDelta({"a": 2, "b": 2}, dtype=np.float32)
    d.slices["a"] = TensorDelta([0, 1], np.zeros(2, np.float32))
    d.slices["b"] = TensorDelta([0, 1], np.zeros(2), dtype=np.float64)
    with pytest.raises(ValueError, match="mix dtypes"):
        delta_adamw(d)
    d.slices["b"] = TensorDelta([0, 1], np.zeros(2, np.float32))
    opt = delta_adamw(d)
    opt.m["b"] = np.zeros(3)
    with pytest.raises(ValueError, match="moments for b misaligned"):
        opt.relayout()
    with pytest.raises(ValueError, match="gradient misaligned"):
        opt.step(np.ones(5), lr=0.1)
