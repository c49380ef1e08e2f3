"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Ops executed inside a ``with Tape():`` block are recorded; ``backward(loss)``
then walks the recording in reverse and returns, for every reachable leaf (a
tensor with ``requires_grad`` and no recording node), its gradient
contributions in the order the VJPs produced them. ``accumulate`` folds them
into one gradient per leaf. No gradient is ever stored on a tensor.

Nodes own the graph. A node links each input to the node that produced it,
or to the input itself when it is a tracked leaf; it never holds an
intermediate tensor. Each op decides when it is recorded which arrays its VJP
will read, and its closure holds only those, so an intermediate tensor is
freed as soon as the forward drops it unless a VJP reads its data. The loss
owns the graph through its node, and a tape holds its nodes weakly, so the
graph is freed by reference count, without waiting for the cyclic garbage
collector. Backward releases the graph as it goes: once a node's VJP has run,
the node drops its closure and its links, so the arrays it held can be freed
before ``backward`` returns, and a loss can be backpropagated only once.

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


class _Node:
    """One recorded op: its VJP and, per input, the link backward follows."""

    __slots__ = ("parents", "vjp", "tape", "__weakref__")

    def __init__(self, parents: list[_Link], vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]], tape: "Tape"):
        self.parents: list[_Link] | None = parents  # None, like vjp, once the VJP has run
        self.vjp = vjp
        self.tape = tape


# What a node keeps of one input: the node that produced it, the input itself
# when it is a tracked leaf, or None when it is not tracked.
_Link = _Node | Tensor | None


class Tape:
    """Ordered recording of ops; recording order is a topological order."""

    def __init__(self):
        self.ops: list[weakref.ref[_Node]] = []  # weak: the graph is owned by the loss, not by its tape

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


def _links(inputs: tuple[Tensor, ...]) -> list[_Link] | None:
    """Each input's link for a node over ``inputs``, or None when no tape would record that op.

    An op is recorded on this thread's innermost tape when any input is
    tracked: it requires gradients or was itself produced by a recorded op.
    """
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return None
    links: list[_Link] = []
    for t in inputs:
        node = t.node
        links.append(node if node is not None else t if t.requires_grad else None)
    if links.count(None) == len(links):
        return None
    return links


def _record(out: Tensor, links: list[_Link], vjp) -> Tensor:
    """Make ``out`` the output of a node over ``links`` (from ``_links``) on the current tape.

    ``vjp`` maps the output's gradient to one gradient (or None) per input; it
    must hold only the arrays it reads, never a ``Tensor``.
    """
    tape = _LOCAL.stack[-1]
    out.node = node = _Node(links, vjp, tape)
    tape.ops.append(weakref.ref(node))
    return out


def backward(loss: Tensor) -> dict[Tensor, list[np.ndarray]]:
    """Propagate dL/dx from ``loss``; returns ``{leaf: [contributions]}`` for every tracked leaf reached.

    Contributions across fan-out into an inner node sum in the order the VJPs
    produce them; a leaf's contributions are listed in that order, unsummed
    (see ``accumulate``). Each node drops its closure and its links once its
    VJP has run, so the graph cannot be walked twice. Requires ``loss`` to be
    a scalar recorded on a tape.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    root = loss.node
    if root is None or root.vjp is None:
        raise ValueError("backward: loss is not recorded on a tape")
    loss.node = None
    store: dict[Tensor, list[np.ndarray]] = {}
    # the tape refs are weak: this map keeps each node alive until its gradient has propagated
    pending: dict[_Node, np.ndarray] = {root: np.ones((), dtype=loss.data.dtype)}
    ops = root.tape.ops
    del root
    for ref in reversed(ops):
        node = ref()
        if node is None:
            continue
        g = pending.pop(node, None)
        vjp = node.vjp
        if g is None or vjp is None:  # not on the loss's graph, or walked by an earlier backward
            continue
        links = node.parents
        node.vjp = node.parents = None
        for link, g_in in zip(links, vjp(g)):
            if g_in is None or link is None:
                continue
            if type(link) is _Node:
                prev = pending.get(link)
                pending[link] = g_in if prev is None else prev + g_in
            else:
                store.setdefault(link, []).append(g_in)
        del node, vjp, links, g  # hold nothing of this node while the next VJP runs
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
        n = None
    elif b.data.ndim == 1 and a.data.ndim >= 2 and b.data.shape[0] == a.data.shape[-1]:
        n = b.data.shape[0]
    else:
        raise ShapeError("add", a.data.shape, b.data.shape)
    out = Tensor(a.data + b.data)
    links = _links((a, b))
    if links is None:
        return out

    def vjp(g):
        return g, (g if n is None else g.reshape(-1, n).sum(axis=0))

    return _record(out, links, vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    links = _links((a,))
    if links is None:
        return out

    def vjp(g):
        return (g * c,)

    return _record(out, links, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. ``b`` may be 2-D (shared weight) or match ``a``'s batch dims."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul", ad.shape, bd.shape)
    stacked = bd.ndim > 2
    if ad.shape[-1] != bd.shape[-2] or (stacked and ad.shape[:-2] != bd.shape[:-2]):
        raise ShapeError("matmul", ad.shape, bd.shape)
    out = Tensor(ad @ bd)
    links = _links((a, b))
    if links is None:
        return out
    # a's gradient reads only b, and b's only a: keep each operand only for the other's gradient
    ak = ad if links[1] is not None else None
    bk = bd if links[0] is not None else None
    k, n = bd.shape[-2:]

    def vjp(g):
        ga = gb = None
        if bk is not None:
            ga = g @ bk.swapaxes(-1, -2) if stacked else g @ bk.T
        if ak is not None:
            gb = ak.swapaxes(-1, -2) @ g if stacked else ak.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, gb

    return _record(out, links, vjp)


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
    links = _links((x, w) if b is None else (x, w, b))
    if links is None:
        return out
    # x's gradient reads only w, and w's only x: a frozen weight keeps no input alive
    xk = xd if links[1] is not None else None
    wk = wd if links[0] is not None else None
    x_shape = xd.shape
    b_tracked = b is not None and links[2] is not None

    def vjp(g):
        gx = gw = gb = None
        if wk is not None:
            gx = (g.reshape(-1, n_out) @ wk).reshape(x_shape) if flat else g @ wk
        if xk is not None:
            gw = g.reshape(-1, n_out).T @ xk.reshape(-1, n_in)  # row-major, like w
        if b_tracked:
            gb = g.reshape(-1, n_out).sum(axis=0)
        return gx, gw, gb

    return _record(out, links, vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU; the derivative is computed here, and kept, only when recording.

    ``0.5 * x * (1 + t)`` with ``t = tanh(c * (x + 0.044715 * x**3))``; the
    derivative is ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x**2)``.
    """
    x = a.data
    links = _links((a,))
    recording = links is not None
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

    return _record(out, links, vjp)


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
    links = _links((a,))
    if links is None:
        return out

    def vjp(g):
        ga = g * y
        s = ga.sum(axis=-1, keepdims=True)
        np.subtract(g, s, out=ga)
        ga *= y
        return (ga,)

    return _record(out, links, vjp)


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
    links = _links((a, gain, bias))
    if links is None:
        return out
    a_tracked, gain_tracked, bias_tracked = links[0] is not None, links[1] is not None, links[2] is not None

    def vjp(g):
        ga = gg = gb = None
        scratch = None
        if a_tracked:
            # d/dx of (x - mu)/sigma: remove the mean and the xhat projection
            ga = g * gd
            scratch = ga * xhat
            proj = _mean_last(scratch, d)
            ga -= _mean_last(ga, d)
            np.multiply(xhat, proj, out=scratch)
            ga -= scratch
            ga *= inv
        if gain_tracked:
            gg = np.multiply(g, xhat, out=scratch).reshape(-1, d).sum(axis=0)
        if bias_tracked:
            gb = g.reshape(-1, d).sum(axis=0)
        return ga, gg, gb

    return _record(out, links, vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; ``ids`` is a plain integer array (not differentiable)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    rows, dim = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(f"embedding: id out of range [0, {rows})")
    out = Tensor(table.data[ids])
    links = _links((table,))
    if links is None:
        return out
    dtype = table.data.dtype

    def vjp(g):
        gt = np.zeros((rows, dim), dtype=dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, dim))
        return (gt,)

    return _record(out, links, vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    links = _links((a,))
    if links is None:
        return out
    old = a.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _record(out, links, vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    links = _links((a,))
    if links is None:
        return out
    inv = [0] * len(axes)
    for i, ax in enumerate(axes):
        inv[ax] = i  # a negative axis counts from the end, as in numpy

    def vjp(g):
        return (g.transpose(inv),)

    return _record(out, links, vjp)


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
    links = _links((logits,))
    if links is None:
        return out

    def vjp(g):
        p = np.exp(logp)
        p[rows, safe_t] -= 1.0
        p[~valid] = 0.0
        p *= g / n_valid
        return (p,)

    return _record(out, links, vjp)
