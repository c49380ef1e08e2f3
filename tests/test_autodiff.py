import gc
import math
import weakref

import numpy as np
import pytest

from sparsevolve import autodiff as ad
from sparsevolve.autodiff import ShapeError, Tape, Tensor, backward
from sparsevolve.lora import build_adapters
from sparsevolve.models import _causal_mask, build_transformer
from sparsevolve.train import TrainConfig

from oracles import build_mlp, grad_check, grads_of, graph_peak_mb, mul, relu, scatter_add, sum_all


def test_matmul_identity():
    w = Tensor([[1.0, 0.0], [0.0, 1.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ad.matmul(w, m).data, m.data)


def test_softmax_symmetry():
    out = ad.softmax(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_cross_entropy_saturated_correct_class():
    logits = Tensor([[40.0, -40.0]])
    loss = ad.cross_entropy(logits, np.array([0]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError, match="matmul") as e:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="mul"):
        mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    with Tape():
        grads = grads_of(sum_all(x))
    np.testing.assert_array_equal(grads[x], np.ones((2, 3)))


def test_backward_square():
    x = Tensor(np.array(3.0).reshape(1, 1), requires_grad=True)
    with Tape():
        grads = grads_of(sum_all(mul(x, x)))
    assert grads[x][0, 0] == pytest.approx(6.0)


def test_fanout_sums_contributions():
    x = Tensor([1.5], requires_grad=True)
    with Tape():
        grads = grads_of(sum_all(ad.add(x, x)))
    np.testing.assert_array_equal(grads[x], [2.0])


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with Tape():
        y = ad.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)


def test_backward_requires_tape():
    x = Tensor(np.zeros(()), requires_grad=True)
    with pytest.raises(ValueError, match="tape"):
        backward(x)


def test_bias_row_add_backward():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    with Tape():
        grads = grads_of(sum_all(ad.add(x, b)))
    np.testing.assert_array_equal(grads[b], [4.0, 4.0, 4.0])


def test_embedding_untouched_rows_zero_grad():
    table = Tensor(np.random.default_rng(0).normal(size=(5, 3)), requires_grad=True)
    ids = np.array([[1, 1, 3]])
    with Tape():
        out = ad.embedding(table, ids)
        grads = grads_of(sum_all(out))
    np.testing.assert_array_equal(grads[table][0], 0.0)
    np.testing.assert_array_equal(grads[table][2], 0.0)
    np.testing.assert_array_equal(grads[table][4], 0.0)
    np.testing.assert_array_equal(grads[table][1], 2.0)  # row used twice


def test_scatter_add_forward_and_backward():
    base = Tensor(np.zeros((2, 3)), requires_grad=True)
    vals = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    idx = np.array([1, 4])
    with Tape():
        out = scatter_add(base, idx, vals)
        grads = grads_of(sum_all(mul(out, out)))
    np.testing.assert_array_equal(out.data, [[0.0, 5.0, 0.0], [0.0, 7.0, 0.0]])
    np.testing.assert_allclose(grads[vals], [10.0, 14.0])
    np.testing.assert_allclose(grads[base].reshape(-1)[idx], [10.0, 14.0])


def test_scatter_add_rejects_unsorted_or_dup():
    base = Tensor(np.zeros(4))
    with pytest.raises(ValueError):
        scatter_add(base, np.array([2, 1]), Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        scatter_add(base, np.array([1, 1]), Tensor(np.zeros(2)))


def test_linear_model_gradcheck_trivial():
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    x = np.array([[3.0]])

    def loss_fn():
        return sum_all(ad.matmul(Tensor(x), w))

    report = grad_check(loss_fn, {"w": w}, eps=1e-6, tol=1e-6)
    assert report.passed
    with Tape():
        grads = grads_of(loss_fn())
    assert grads[w][0, 0] == pytest.approx(3.0)


def test_mlp_gradcheck_fd_oracle():
    # random 2-layer MLP against central finite differences, double precision
    tree, forward = build_mlp([5, 7, 3], seed=11, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    params = dict(tree.items())
    tree.set_requires_grad(True)

    def loss_fn():
        return ad.cross_entropy(forward(tree, x), y)

    report = grad_check(loss_fn, params, eps=1e-5, tol=1e-4, samples=12, rng=rng)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst}"


@pytest.mark.parametrize("op", ["gelu", "relu", "softmax", "layer_norm"])
def test_elementwise_ops_fd_oracle(op):
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    r = Tensor(rng.normal(size=(3, 6)))

    def loss_fn():
        if op == "gelu":
            out = ad.gelu(x)
        elif op == "relu":
            out = relu(x)
        elif op == "softmax":
            out = ad.softmax(x)
        else:
            out = ad.layer_norm(x, g, b)
        return sum_all(mul(out, r))  # random projection makes grads non-trivial

    params = {"x": x} if op != "layer_norm" else {"x": x, "g": g, "b": b}
    report = grad_check(loss_fn, params, eps=1e-6, tol=1e-5, samples=10, rng=rng)
    assert report.passed, f"{op}: max rel err {report.max_rel_err}"


def test_transformer_block_gradcheck(tiny_model):
    cfg, tree, forward = tiny_model
    rng = np.random.default_rng(23)
    ids = rng.integers(0, cfg.vocab, size=(2, cfg.context))
    y = rng.integers(0, cfg.vocab, size=2 * cfg.context)
    params = {n: t for n, t in tree.items()}
    for t in params.values():
        t.requires_grad = True

    def loss_fn():
        logits = forward(tree, ids)
        return ad.cross_entropy(ad.reshape(logits, (-1, cfg.vocab)), y)

    report = grad_check(loss_fn, params, eps=1e-5, tol=1e-4, samples=3, rng=rng)
    assert report.checked >= 64
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst}"


def test_forward_bitwise_deterministic(tiny_model):
    cfg, tree, forward = tiny_model
    ids = np.random.default_rng(1).integers(0, cfg.vocab, size=(2, cfg.context))
    a = forward(tree, ids).data
    b = forward(tree, ids).data
    np.testing.assert_array_equal(a, b)


def test_cross_entropy_ignore_index():
    logits = Tensor(np.array([[1.0, 2.0], [5.0, -5.0]]), requires_grad=True)
    # second row ignored: loss equals single-row cross entropy
    full = ad.cross_entropy(logits, np.array([1, -1]))
    only = ad.cross_entropy(Tensor(logits.data[:1]), np.array([1]))
    assert full.item() == pytest.approx(only.item())
    with Tape():
        grads = grads_of(ad.cross_entropy(logits, np.array([1, -1])))
    np.testing.assert_array_equal(grads[logits][1], 0.0)


def test_cross_entropy_empty_targets_error():
    with pytest.raises(ValueError, match="no valid targets"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, -1]))


def test_independent_tapes_do_not_interfere():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        l1 = sum_all(mul(x, x))
    grads = {}
    with Tape():
        l2 = sum_all(ad.scale(x, 3.0))
        ad.accumulate(grads, backward(l2))
    np.testing.assert_array_equal(grads[x], [3.0])
    ad.accumulate(grads, backward(l1))  # older tape still usable; grads accumulate
    np.testing.assert_array_equal(grads[x], [3.0 + 4.0])


def test_tape_freed_by_reference_count(tiny_model):
    cfg, tree, forward = tiny_model
    tree.set_requires_grad(True)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab, size=(2, cfg.context))
    y = rng.integers(0, cfg.vocab, size=2 * cfg.context)
    gc.collect()
    gc.disable()
    try:
        with Tape():
            logits = forward(tree, ids)
            loss = ad.cross_entropy(ad.reshape(logits, (-1, cfg.vocab)), y)
            backward(loss)
        activation = weakref.ref(logits)
        del logits, loss
        assert activation() is None
        assert gc.collect() == 0  # nothing was left for the cyclic collector
    finally:
        gc.enable()


def _linear_reference(x, w, b):
    """The three-node graph ``linear`` replaces."""
    return ad.add(ad.matmul(x, ad.transpose(w, (1, 0))), b)


# The configs the runs train: the default char-LM model (lm-seft, and with
# rank-32 adapters lm-lora-star) and the criterion-1 copy model (copy-evolve).
DEFAULT_RUN = TrainConfig(corpus="corpus.txt")
LORA_STAR_RUN = TrainConfig(corpus="corpus.txt", method="lora-star", rank=32)
COPY_RUN = TrainConfig(task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, rank=8)


def _run_linear_shapes() -> list:
    """(x shape, out dim) of every distinct ``linear`` a training micro-batch makes, by run."""
    shapes = []
    for run, cfg, lora in (("default", DEFAULT_RUN, False), ("lora-star", LORA_STAR_RUN, True), ("copy", COPY_RUN, False)):
        tree, _ = build_transformer(cfg.model_config())
        adapters = build_adapters(tree, cfg.rank) if lora else {}
        lead = (cfg.batch_size, cfg.context)
        for name, w in tree.named_prunable():
            # the frozen base matrix is the default run's; an adapter adds (x @ A.T) @ B.T
            mats = (adapters[name].a.data, adapters[name].b.data) if lora else (w.data,)
            for m in mats:
                x_shape, out_dim = lead + (m.shape[1],), m.shape[0]
                shape_id = f"{run}-{'x'.join(map(str, x_shape))}-{out_dim}"
                if shape_id not in [p.id for p in shapes]:
                    shapes.append(pytest.param(x_shape, out_dim, id=shape_id))
    return shapes


RUN_LINEAR_SHAPES = _run_linear_shapes()


def test_run_linear_shapes_lie_on_both_sides_of_the_flatten_bound():
    flattened = {x[-2] * x[-1] * out > ad._FLAT_GEMM_MIN_MNK for x, out in (p.values for p in RUN_LINEAR_SHAPES)}
    assert flattened == {True, False}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape,out_dim", RUN_LINEAR_SHAPES)
def test_linear_bitwise_equals_three_node_graph(x_shape, out_dim, dtype):
    rng = np.random.default_rng(31)
    in_dim = x_shape[-1]
    xd = rng.normal(size=x_shape).astype(dtype)
    wd = rng.normal(0, 0.05, size=(out_dim, in_dim)).astype(dtype)
    bd = rng.normal(size=out_dim).astype(dtype)
    r = rng.normal(size=x_shape[:-1] + (out_dim,)).astype(dtype)
    results = []
    for op in (ad.linear, _linear_reference):
        x, w, b = (Tensor(d.copy(), requires_grad=True) for d in (xd, wd, bd))
        with Tape():
            y = op(x, w, b)
            grads = grads_of(sum_all(mul(y, Tensor(r))))
        results.append((y.data, grads[x], grads[w], grads[b]))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert results[0][2].flags.c_contiguous  # the weight gradient is row-major, like the weight


def test_linear_fd_oracle():
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 3, 4)))

    def loss_fn():
        return sum_all(mul(ad.linear(x, w, b), r))

    report = grad_check(loss_fn, {"x": x, "w": w, "b": b}, eps=1e-6, tol=1e-6, samples=10, rng=rng)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst}"


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(Tensor(np.zeros((2, 5))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def test_mid_graph_activation_freed_before_backward_returns():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    alive_at_probe = []

    def probe(t):  # an identity op whose VJP runs after every op recorded after it
        def vjp(g):
            alive_at_probe.append(mid() is not None)
            return (g,)

        return ad._record(Tensor(t.data.copy()), ad._links((t,)), vjp)

    with Tape():
        h = ad.gelu(ad.scale(probe(x), 2.0))
        mid = weakref.ref(h)
        loss = sum_all(h)
        del h
        grads = grads_of(loss)
    assert alive_at_probe == [False]
    assert x in grads


def _tracked_inputs(*shapes):
    rng = np.random.default_rng(5)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


# every op of the engine, with every input tracked
OPS = {
    "add": lambda: ad.add(*_tracked_inputs((2, 3), (2, 3))),
    "add-bias": lambda: ad.add(*_tracked_inputs((2, 3), (3,))),
    "scale": lambda: ad.scale(*_tracked_inputs((2, 3)), 2.0),
    "matmul": lambda: ad.matmul(*_tracked_inputs((2, 4, 3), (3, 5))),
    "matmul-stacked": lambda: ad.matmul(*_tracked_inputs((2, 4, 3), (2, 3, 5))),
    "linear": lambda: ad.linear(*_tracked_inputs((2, 4, 3), (5, 3))),
    "linear-bias": lambda: ad.linear(*_tracked_inputs((2, 4, 3), (5, 3), (5,))),
    "gelu": lambda: ad.gelu(*_tracked_inputs((2, 3))),
    "softmax": lambda: ad.softmax(*_tracked_inputs((2, 3, 3))),
    "softmax-masked": lambda: ad.softmax(*_tracked_inputs((2, 3, 3)), _causal_mask(3, np.float64)),
    "layer_norm": lambda: ad.layer_norm(*_tracked_inputs((2, 4, 3), (3,), (3,))),
    "embedding": lambda: ad.embedding(*_tracked_inputs((5, 3)), np.array([[1, 4]])),
    "reshape": lambda: ad.reshape(*_tracked_inputs((2, 3)), (3, 2)),
    "transpose": lambda: ad.transpose(*_tracked_inputs((2, 3)), (1, 0)),
    "cross_entropy": lambda: ad.cross_entropy(*_tracked_inputs((4, 3)), np.array([0, 2, 1, -1])),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_no_vjp_closure_holds_a_tensor(op):
    with Tape():
        out = OPS[op]()
    held = []
    for cell in out.node.vjp.__closure__ or ():
        value = cell.cell_contents
        held.extend(value if isinstance(value, (tuple, list)) else [value])
    assert not [v for v in held if isinstance(v, Tensor)]
    assert all(link is None or isinstance(link, (ad._Node, Tensor)) for link in out.node.parents)


def test_a_frozen_weight_linear_does_not_keep_its_input():
    leaf, w = Tensor(np.ones((2, 4, 3)), requires_grad=True), Tensor(np.ones((5, 3)))
    with Tape():
        x = ad.scale(leaf, 2.0)
        loss = sum_all(ad.linear(x, w))
        data = weakref.ref(x.data)
        del x
        assert data() is None  # before backward
        grads = grads_of(loss)
    np.testing.assert_array_equal(grads[leaf], np.full((2, 4, 3), 10.0))


@pytest.mark.parametrize("op", ["scale", "softmax"])
def test_the_input_of_scale_and_softmax_is_freed_when_the_forward_drops_it(op):
    leaf = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        a = ad.gelu(leaf)
        data = weakref.ref(a.data)
        y = ad.scale(a, 3.0) if op == "scale" else ad.softmax(a)
        del a
        assert data() is None  # before backward
        grads = grads_of(sum_all(mul(y, y)))
    assert grads[leaf].shape == (2, 3) and np.all(np.isfinite(grads[leaf]))


@pytest.mark.parametrize("adapters", [False, True], ids=["seft", "frozen-base-with-adapters"])
def test_one_micro_batch_graph_peaks_under_14_mb(adapters):
    # the graph kept every forward intermediate until backward reached it: 17.7 MB (seft), 28.4 MB (adapters)
    assert graph_peak_mb(adapters) <= 14.0


def test_loss_backpropagates_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = sum_all(mul(x, x))
        grads = grads_of(loss)
        with pytest.raises(ValueError, match="not recorded"):
            backward(loss)
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_backward_returns_a_leaf_reached_by_two_ops_as_its_contributions_in_vjp_order():
    x = Tensor(np.array([0.1, 0.2], dtype=np.float32), requires_grad=True)
    with Tape():
        store = backward(sum_all(ad.add(ad.scale(x, 3.0), mul(x, x))))
    assert list(store) == [x]
    # one contribution per use of x, in VJP order: mul (recorded last) first, then scale
    assert [g.tolist() for g in store[x]] == [x.data.tolist(), x.data.tolist(), [3.0, 3.0]]
    grads = {}
    ad.accumulate(grads, store)
    assert grads[x].tobytes() == ((x.data + x.data) + np.float32(3.0)).tobytes()


def _readonly(*arrays):
    """Make the arrays read-only, so an op that writes into an input or an incoming gradient raises."""
    for a in arrays:
        a.flags.writeable = False


def _bitwise_equal(got, want):
    assert len(got) == len(want)
    for have, ref in zip(got, want):
        assert have.dtype == ref.dtype and have.shape == ref.shape
        assert have.tobytes() == ref.tobytes()


def _run_and_vjp(op, tensors, args, g):
    """The op's output and its VJP of ``g``, recorded; then its output again, forward-only."""
    with Tape():
        out = op(*tensors, *args)
        got = (out.data, *(v for v in out.node.vjp(g) if v is not None))
    untracked = [Tensor(t.data) for t in tensors]
    return got, op(*untracked, *args).data


# Activation shapes of one micro-batch under the configs the runs train.
RUN_CONFIGS = {"default": DEFAULT_RUN, "copy": COPY_RUN}


def reference_layer_norm(x, gd, bd, g, eps=1e-5):
    """Layer norm and its VJP written with ``ndarray.mean``: the bitwise reference."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gy = g * gd
    ga = inv * (gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
    return xhat * gd + bd, ga, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


LAYER_NORM_SHAPES = [pytest.param((3, 7, d), id=str(d)) for d in (100, 333)] + [
    pytest.param((c.batch_size, c.context, c.dim), id=run) for run, c in RUN_CONFIGS.items()
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES)
def test_layer_norm_forward_and_vjp_bitwise_equal_the_mean_reference(dtype, shape):
    d = shape[-1]
    rng = np.random.default_rng(d)
    x = (rng.normal(size=shape) * 2.5 + 0.3).astype(dtype)
    gd, bd = rng.normal(size=d).astype(dtype), rng.normal(size=d).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    want = reference_layer_norm(x, gd, bd, g)
    _readonly(x, gd, bd, g)
    tensors = [Tensor(x, requires_grad=True), Tensor(gd, requires_grad=True), Tensor(bd, requires_grad=True)]
    got, forward_only = _run_and_vjp(ad.layer_norm, tensors, (), g)
    _bitwise_equal(got, want)
    _bitwise_equal([forward_only], want[:1])
    tensors[0] = Tensor(x)  # an untracked input: the gain gradient takes a buffer of its own
    got, _ = _run_and_vjp(ad.layer_norm, tensors, (), g)
    _bitwise_equal(got, (want[0], *want[2:]))


_GELU_C = math.sqrt(2.0 / math.pi)


def reference_gelu(x, g):
    """GELU and its VJP as allocating expressions: the bitwise reference."""
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x2)
    return 0.5 * x * (1.0 + t), g * d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("run", sorted(RUN_CONFIGS))
def test_gelu_forward_and_vjp_bitwise_equal_the_reference(run, dtype):
    cfg = RUN_CONFIGS[run]
    rng = np.random.default_rng(41)
    shape = (cfg.batch_size, cfg.context, cfg.ff_mult * cfg.dim)
    x = (rng.normal(size=shape) * 3.0).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    want = reference_gelu(x, g)
    _readonly(x, g)
    got, forward_only = _run_and_vjp(ad.gelu, [Tensor(x, requires_grad=True)], (), g)
    _bitwise_equal(got, want)
    _bitwise_equal([forward_only], want[:1])


def reference_softmax(x, mask, g):
    """Row softmax and its VJP as allocating expressions: the bitwise reference."""
    x = x if mask is None else x + mask
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("run", sorted(RUN_CONFIGS))
def test_softmax_forward_and_vjp_bitwise_equal_the_reference(run, causal, dtype):
    cfg = RUN_CONFIGS[run]
    rng = np.random.default_rng(43)
    shape = (cfg.batch_size, cfg.heads, cfg.context, cfg.context)
    x = (rng.normal(size=shape) * 2.0).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    mask = _causal_mask(cfg.context, dtype) if causal else None  # read-only already
    want = reference_softmax(x, mask, g)
    _readonly(x, g)
    got, forward_only = _run_and_vjp(ad.softmax, [Tensor(x, requires_grad=True)], (mask,), g)
    _bitwise_equal(got, want)
    _bitwise_equal([forward_only], want[:1])


def reference_cross_entropy(logits, targets, ignore_index, g):
    """Mean NLL and its VJP as allocating expressions: the bitwise reference."""
    n = logits.shape[0]
    valid = targets != ignore_index
    n_valid = int(valid.sum())
    safe_t = np.where(valid, targets, 0)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)
    nll = -logp[rows, safe_t]
    loss = np.asarray((nll * valid).sum() / n_valid, dtype=logits.dtype)
    p = np.exp(logp)
    p[rows, safe_t] -= 1.0
    p[~valid] = 0.0
    return loss, p * (g / n_valid)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("run", sorted(RUN_CONFIGS))
def test_cross_entropy_forward_and_vjp_bitwise_equal_the_reference(run, dtype):
    cfg = RUN_CONFIGS[run]
    rng = np.random.default_rng(47)
    n = cfg.batch_size * cfg.context
    logits = (rng.normal(size=(n, cfg.vocab)) * 4.0).astype(dtype)
    targets = rng.integers(0, cfg.vocab, size=n)
    targets[rng.random(n) < 0.25] = -1  # ignored rows
    g = np.asarray(rng.uniform(0.5, 2.0), dtype=dtype)
    want = reference_cross_entropy(logits, targets, -1, g)
    _readonly(logits, targets, g)
    got, forward_only = _run_and_vjp(ad.cross_entropy, [Tensor(logits, requires_grad=True)], (targets, -1), g)
    _bitwise_equal(got, want)
    _bitwise_equal([forward_only], want[:1])


@pytest.mark.parametrize("axes", [(1, 0), (0, 2, 1, 3), (2, 0, 3, 1), (-1, 0, 1)])
def test_transpose_vjp_restores_the_input_layout(axes):
    shape = (2, 3, 4, 5)[: len(axes)]
    a = Tensor(np.arange(np.prod(shape), dtype=np.float64).reshape(shape), requires_grad=True)
    with Tape():
        out = ad.transpose(a, axes)
        (back,) = out.node.vjp(out.data)
    np.testing.assert_array_equal(back, a.data)
