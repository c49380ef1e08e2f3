"""Test-side oracles: checks and engine pieces that only the tests use.

The package trains transformers and records only the ops they need. The
tests also build graphs from the ops here: an elementwise product, a sum to a
scalar, a scatter-add of values at flat coordinates (criterion 4's dual-graph
check), ReLU, and a small MLP over them. ``grads_of`` folds one backward into
one gradient per leaf, and ``grad_check`` compares those gradients against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sparsevolve.autodiff import ShapeError, Tape, Tensor, _record, _tracked, accumulate, backward
from sparsevolve.models import INIT_STD, ParamTree, _linear, _tap


def grads_of(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """``backward(loss)`` folded into one gradient per leaf reached."""
    grads: dict[Tensor, np.ndarray] = {}
    accumulate(grads, backward(loss))
    return grads


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("mul", a.data.shape, b.data.shape)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return _record(out, (a, b), vjp)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    shape = a.data.shape
    dt = a.data.dtype

    def vjp(g):
        return (np.full(shape, g, dtype=dt),)

    return _record(out, (a,), vjp)


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

    def vjp(g):
        gb = g if _tracked(base) else None
        gv = g.reshape(-1)[index] if _tracked(values) else None
        return gb, gv

    return _record(out, (base, values), vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    out = Tensor(np.where(keep, a.data, 0.0))

    def vjp(g):
        return (np.where(keep, g, 0.0),)

    return _record(out, (a,), vjp)


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
