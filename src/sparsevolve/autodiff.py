"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Ops executed inside a ``with Tape():`` block are recorded; ``backward(loss)``
then walks the recording in reverse and returns, for every reachable leaf (a
tensor with ``requires_grad`` and no recording node), its gradient
contributions in the order the VJPs produced them. ``accumulate`` folds them
into one gradient per leaf. No gradient is ever stored on a tensor.

Backward releases the graph as it goes: once a node's VJP has run, the
tensor drops its node, so its activations can be freed before ``backward``
returns, and a loss can be backpropagated only once. A tape holds its
recorded tensors weakly: the graph is owned by the loss through each
tensor's parents, so it is freed by reference count, without waiting for the
cyclic garbage collector.

Reductions are performed in numpy's fixed row-major order, so forward and
backward results are bitwise reproducible for identical inputs on the same
machine. Ops compute with ``out=`` and in-place ufuncs into arrays they
allocated themselves; each keeps the association order of its formula, so
the bits are those of the allocating expressions. No op writes into an
input's ``.data`` or into an incoming gradient (``add``'s VJP hands one
gradient to both parents).

Threading model: one tape is single-threaded, and the tape stack is
thread-local, so independent graphs may be built and backpropagated on
separate threads while they only read shared leaves. Each ``backward``
returns a store of its own and writes nothing shared; the owner folds the
stores in a fixed order with ``accumulate``, which gives the same bits as one
backward after another.
Forward-only passes (evaluation, calibration) record nothing outside a tape
and only read the parameters, so they may run on separate threads as well;
their owner folds the per-batch results in batch order.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives incompatible operand shapes."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(int(d) for d in s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class Tensor:
    """A dense array, tracked for gradients when ``requires_grad`` is set."""

    __slots__ = ("data", "requires_grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype.kind not in "fc":
            self.data = self.data.astype(np.float64)
        self.requires_grad = requires_grad
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    parents: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]
    tape: "Tape"


class Tape:
    """Ordered recording of ops; recording order is a topological order."""

    def __init__(self):
        self.ops: list[weakref.ref[Tensor]] = []  # weak: a strong list would close a cycle through Tensor.node

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tape_stack().pop()
        return False


_LOCAL = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _recording(parents: tuple[Tensor, ...]) -> Tape | None:
    """The tape an op over ``parents`` would be recorded on, or None."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        for p in parents:
            if p.requires_grad or p.node is not None:
                return stack[-1]
    return None


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp) -> Tensor:
    tape = _recording(parents)
    if tape is not None:
        out.node = _Node(parents=parents, vjp=vjp, tape=tape)
        tape.ops.append(weakref.ref(out))
    return out


def backward(loss: Tensor) -> dict[Tensor, list[np.ndarray]]:
    """Propagate dL/dx from ``loss``; returns ``{leaf: [contributions]}`` for every tracked leaf reached.

    Contributions across fan-out into an inner node sum in the order the VJPs
    produce them; a leaf's contributions are listed in that order, unsummed
    (see ``accumulate``). Each node is released after its VJP runs, so the
    graph cannot be walked twice. Requires ``loss`` to be a scalar recorded
    on a tape.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss.node is None:
        raise ValueError("backward: loss is not recorded on a tape")
    store: dict[Tensor, list[np.ndarray]] = {}
    # the tape refs are weak: this map keeps each tensor alive until its gradient has propagated
    pending: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones((), dtype=loss.data.dtype))}
    for ref in reversed(loss.node.tape.ops):
        t = ref()
        if t is None:
            continue
        entry = pending.pop(id(t), None)
        if entry is None or t.node is None:
            continue
        node, t.node = t.node, None
        grads_in = node.vjp(entry[1])
        for parent, g in zip(node.parents, grads_in):
            if g is None or not _tracked(parent):
                continue
            if parent.node is None:
                store.setdefault(parent, []).append(g)
            elif id(parent) in pending:
                pending[id(parent)] = (parent, pending[id(parent)][1] + g)
            else:
                pending[id(parent)] = (parent, g)
        del node, grads_in, entry  # hold nothing of this node while the next VJP runs
    return store


def accumulate(total: dict[Tensor, np.ndarray], store: dict[Tensor, list[np.ndarray]]) -> None:
    """Fold one ``backward``'s store into ``total``, leaf by leaf, in contribution order.

    A leaf's first contribution is taken as is; each later one makes a new
    sum (``prev + g``), so no array that a VJP returned is written into.
    """
    for leaf, grads in store.items():
        for g in grads:
            prev = total.get(leaf)
            total[leaf] = g if prev is None else prev + g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the only broadcast allowed is a bias row over the last dim."""
    if a.data.shape == b.data.shape:
        out = Tensor(a.data + b.data)

        def vjp(g):
            return g, g

    elif b.data.ndim == 1 and a.data.ndim >= 2 and b.data.shape[0] == a.data.shape[-1]:
        out = Tensor(a.data + b.data)
        n = b.data.shape[0]

        def vjp(g):
            return g, g.reshape(-1, n).sum(axis=0)

    else:
        raise ShapeError("add", a.data.shape, b.data.shape)
    return _record(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def vjp(g):
        return (g * c,)

    return _record(out, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. ``b`` may be 2-D (shared weight) or match ``a``'s batch dims."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul", ad.shape, bd.shape)
    if bd.ndim == 2:
        if ad.shape[-1] != bd.shape[0]:
            raise ShapeError("matmul", ad.shape, bd.shape)
        out = Tensor(ad @ bd)
        k, n = bd.shape

        def vjp(g):
            ga = gb = None
            if _tracked(a):
                ga = g @ bd.T
            if _tracked(b):
                gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
            return ga, gb

    else:
        if ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
            raise ShapeError("matmul", ad.shape, bd.shape)
        out = Tensor(ad @ bd)

        def vjp(g):
            ga = gb = None
            if _tracked(a):
                ga = g @ bd.swapaxes(-1, -2)
            if _tracked(b):
                gb = ad.swapaxes(-1, -2) @ g
            return ga, gb

    return _record(out, (a, b), vjp)


# OpenBLAS runs a GEMM of at most 100**3 multiply-adds (M*N*K) in its
# small-matrix kernel, which may sum in another order than the blocked one.
# Above this bound every slice of a stacked product already takes the blocked
# kernel, whose sums do not depend on the row count, so one 2-D GEMM over the
# flattened rows gives the same bits; at or below it the stacked product stays.
_FLAT_GEMM_MIN_MNK = 100**3


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` as one node; ``w`` is ``[out, in]``, ``b`` an optional ``[out]`` bias.

    Forward values and all three gradients are bitwise equal to the graph
    ``add(matmul(x, transpose(w, (1, 0))), b)``. Where one slice's
    ``rows * in * out`` exceeds ``_FLAT_GEMM_MIN_MNK``, the forward and the
    input gradient run as one GEMM over the flattened leading dims, which is
    faster and sums in the same order; at or below the bound OpenBLAS's
    small-matrix kernel may sum in another order, so they stay stacked.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 2 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError("linear", xd.shape, wd.shape)
    if b is not None and b.data.shape != (wd.shape[0],):
        raise ShapeError("linear", wd.shape, b.data.shape)
    n_in, n_out = wd.shape[1], wd.shape[0]
    flat = xd.shape[-2] * n_in * n_out > _FLAT_GEMM_MIN_MNK
    if flat:
        y = (xd.reshape(-1, n_in) @ wd.T).reshape(xd.shape[:-1] + (n_out,))
    else:
        y = xd @ wd.T
    if b is not None:
        y += b.data
    out = Tensor(y)

    def vjp(g):
        gx = gw = gb = None
        if _tracked(x):
            gx = (g.reshape(-1, n_out) @ wd).reshape(xd.shape) if flat else g @ wd
        if _tracked(w):
            gw = (xd.reshape(-1, n_in).T @ g.reshape(-1, n_out)).T
        if b is not None and _tracked(b):
            gb = g.reshape(-1, n_out).sum(axis=0)
        return gx, gw, gb

    return _record(out, (x, w) if b is None else (x, w, b), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU; the derivative is computed here, and kept, only when recording.

    ``0.5 * x * (1 + t)`` with ``t = tanh(c * (x + 0.044715 * x**3))``; the
    derivative is ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x**2)``.
    """
    x = a.data
    recording = _recording((a,)) is not None
    x2 = x * x
    t = x2 * x if recording else np.multiply(x2, x, out=x2)
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if not recording:
        t += 1.0  # 1 + t
        y = x * 0.5
        y *= t
        return Tensor(y)
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    t += 1.0  # 1 + t
    y = x * 0.5
    sech2 *= y  # 0.5 * x * sech2
    y *= t
    out = Tensor(y)
    sech2 *= _GELU_C
    x2 *= 3 * 0.044715
    x2 += 1.0
    sech2 *= x2
    d = t  # 1 + t becomes the derivative
    d *= 0.5
    d += sech2

    def vjp(g):
        return (g * d,)

    return _record(out, (a,), vjp)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row softmax over the last axis (numerically shifted).

    ``mask`` is a constant added to ``a`` before the softmax (broadcast over
    the leading axes, e.g. a causal ``(T, T)`` mask of 0 and a large negative).
    """
    if mask is None:
        y = a.data - a.data.max(axis=-1, keepdims=True)
    else:
        y = a.data + mask
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        ga = g * y
        s = ga.sum(axis=-1, keepdims=True)
        np.subtract(g, s, out=ga)
        ga *= y
        return (ga,)

    return _record(out, (a,), vjp)


def _mean_last(x: np.ndarray, n: int) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` for a last axis of length ``n``, without ``ndarray.mean``'s wrapper.

    The same sum divided the same way, so the bits are equal in float32 and float64.
    """
    s = np.add.reduce(x, axis=-1, keepdims=True)
    s /= n
    return s


_LN_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError("layer_norm", a.data.shape, gain.data.shape)
    gd = gain.data
    xhat = a.data - _mean_last(a.data, d)
    y = xhat * xhat  # then the output
    inv = _mean_last(y, d)  # the variance, then 1 / sqrt(var + eps)
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += bias.data
    out = Tensor(y)

    def vjp(g):
        ga = gg = gb = None
        scratch = None
        if _tracked(a):
            # d/dx of (x - mu)/sigma: remove the mean and the xhat projection
            ga = g * gd
            scratch = ga * xhat
            proj = _mean_last(scratch, d)
            ga -= _mean_last(ga, d)
            np.multiply(xhat, proj, out=scratch)
            ga -= scratch
            ga *= inv
        if _tracked(gain):
            gg = np.multiply(g, xhat, out=scratch).reshape(-1, d).sum(axis=0)
        if _tracked(bias):
            gb = g.reshape(-1, d).sum(axis=0)
        return ga, gg, gb

    return _record(out, (a, gain, bias), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; ``ids`` is a plain integer array (not differentiable)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    rows, dim = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(f"embedding: id out of range [0, {rows})")
    out = Tensor(table.data[ids])

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, dim))
        return (gt,)

    return _record(out, (table,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    old = a.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _record(out, (a,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    inv = [0] * len(axes)
    for i, ax in enumerate(axes):
        inv[ax] = i  # a negative axis counts from the end, as in numpy

    def vjp(g):
        return (g.transpose(inv),)

    return _record(out, (a,), vjp)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -1) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under row softmax.

    Rows whose target equals ``ignore_index`` are excluded from the mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy", logits.data.shape)
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError("cross_entropy", logits.data.shape, targets.shape)
    n, v = logits.data.shape
    valid = targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: no valid targets")
    safe_t = np.where(valid, targets, 0)
    if safe_t.min() < 0 or safe_t.max() >= v:
        raise ValueError(f"cross_entropy: target out of range [0, {v})")
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    nll = -logp[rows, safe_t]
    out = Tensor(np.asarray((nll * valid).sum() / n_valid, dtype=logits.data.dtype))

    def vjp(g):
        p = np.exp(logp)
        p[rows, safe_t] -= 1.0
        p[~valid] = 0.0
        p *= g / n_valid
        return (p,)

    return _record(out, (logits,), vjp)
