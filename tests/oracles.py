"""Test-side oracles: checks and engine pieces that only the tests use.

The package trains transformers and records only the ops they need. The
tests also build graphs from the ops here: an elementwise product, a sum to a
scalar, a scatter-add of values at flat coordinates (criterion 4's dual-graph
check), ReLU, and a small MLP over them. ``grads_of`` folds one backward into
one gradient per leaf, and ``grad_check`` compares those gradients against
finite differences. ``graph_peak_mb`` measures what one training
micro-batch's graph holds at its peak.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sparsevolve.autodiff import ShapeError, Tape, Tensor, _links, _record, accumulate, backward
from sparsevolve.lora import build_adapters
from sparsevolve.models import INIT_STD, ParamTree, _linear, _tap, build_transformer
from sparsevolve.train import TrainConfig, _micro_batch


def grads_of(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """``backward(loss)`` folded into one gradient per leaf reached."""
    grads: dict[Tensor, np.ndarray] = {}
    accumulate(grads, backward(loss))
    return grads


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("mul", a.data.shape, b.data.shape)
    out = Tensor(a.data * b.data)
    links = _links((a, b))
    if links is None:
        return out
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return _record(out, links, vjp)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    links = _links((a,))
    if links is None:
        return out
    shape = a.data.shape
    dt = a.data.dtype

    def vjp(g):
        return (np.full(shape, g, dtype=dt),)

    return _record(out, links, vjp)


def scatter_add(base: Tensor, index: np.ndarray, values: Tensor) -> Tensor:
    """Return ``base`` with ``values`` added at flat row-major coordinates ``index``.

    ``index`` must be strictly increasing (unique coordinates).
    """
    index = np.asarray(index)
    if values.data.ndim != 1 or index.shape != values.data.shape:
        raise ShapeError("scatter_add", index.shape, values.data.shape)
    if index.size and (np.any(np.diff(index) <= 0) or index[0] < 0 or index[-1] >= base.data.size):
        raise ValueError("scatter_add: index must be strictly increasing and in range")
    flat = base.data.reshape(-1).copy()
    flat[index] += values.data
    out = Tensor(flat.reshape(base.data.shape))
    links = _links((base, values))
    if links is None:
        return out
    base_tracked, values_tracked = links[0] is not None, links[1] is not None

    def vjp(g):
        gb = g if base_tracked else None
        gv = g.reshape(-1)[index] if values_tracked else None
        return gb, gv

    return _record(out, links, vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    out = Tensor(np.where(keep, a.data, 0.0))
    links = _links((a,))
    if links is None:
        return out

    def vjp(g):
        return (np.where(keep, g, 0.0),)

    return _record(out, links, vjp)


def build_mlp(dims: list[int], seed: int = 0, dtype=np.float64):
    """Build a ReLU MLP over ``dims``; returns ``(tree, forward)`` shaped like ``build_transformer``'s."""
    if len(dims) < 2:
        raise ValueError(f"need at least 2 layer dims, got {dims}")
    rng = np.random.default_rng(seed)
    tree = ParamTree()
    n_layers = len(dims) - 1
    for i in range(n_layers):
        w = rng.normal(0.0, INIT_STD, size=(dims[i + 1], dims[i])).astype(dtype)
        tree.add(f"layer{i}.w", Tensor(w, requires_grad=True), prunable=True)
        tree.add(f"layer{i}.b", Tensor(np.zeros(dims[i + 1], dtype=dtype)))

    def forward(tree: ParamTree, x, taps=None, adapters=None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=dtype))
        adapters = adapters or {}
        for i in range(n_layers):
            name = f"layer{i}.w"
            _tap(taps, name, x)
            x = _linear(x, tree[name], tree[f"layer{i}.b"], adapters.get(name))
            if i < n_layers - 1:
                x = relu(x)
        return x

    return tree, forward


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    worst: tuple[str, int] | None = None
    checked: int = 0
    per_tensor: dict[str, float] = field(default_factory=dict)


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    samples: int = 8,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values;
    it is invoked once under a tape for the analytic pass and twice per
    sampled coordinate for the difference quotient. Coordinates are sampled
    per tensor (all coordinates when a tensor has at most ``samples``).
    """
    rng = rng or np.random.default_rng(0)
    with Tape():
        grads = grads_of(loss_fn())
    analytic = {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}

    report = GradCheckReport(max_rel_err=0.0, tol=tol, passed=True)
    for name, p in params.items():
        numel = p.data.size
        if numel <= samples:
            coords = np.arange(numel)
        else:
            coords = rng.choice(numel, size=samples, replace=False)
        flat = p.data.reshape(-1)
        worst_here = 0.0
        for c in coords:
            c = int(c)
            orig = flat[c]
            flat[c] = orig + eps
            up = loss_fn().item()
            flat[c] = orig - eps
            down = loss_fn().item()
            flat[c] = orig
            fd = (up - down) / (2 * eps)
            an = float(analytic[name].reshape(-1)[c])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            report.checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst = (name, c)
        report.per_tensor[name] = worst_here
    report.passed = report.max_rel_err < tol
    return report


def graph_peak_mb(adapters: bool) -> float:
    """The ``tracemalloc`` peak, in MB (2**20 bytes), of one default-model micro-batch's forward and backward.

    Random ids of shape ``(8, 64)`` stand in for a corpus batch. Without
    ``adapters`` the prunable matrices train, as in ``seft``; with them the
    base is frozen and rank-32 adapters train, as in ``lora-star``. One
    micro-batch runs untraced first, so one-time allocations are not counted.
    """
    cfg = TrainConfig(corpus="unused")
    mc = cfg.model_config()
    tree, forward = build_transformer(mc)
    tree.set_requires_grad(False)
    if adapters:
        adapted = build_adapters(tree, cfg.rank)
    else:
        adapted = None
        tree.set_requires_grad(True, names=tree.prunable_names())
    rng = np.random.default_rng(0)
    batch = rng.integers(0, mc.vocab, size=(8, 64)), rng.integers(0, mc.vocab, size=(8, 64))
    _micro_batch(forward, tree, adapted, mc.vocab, batch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _micro_batch(forward, tree, adapted, mc.vocab, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 2**20
