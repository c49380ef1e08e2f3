"""The learnable sparse update: flat coordinate indices plus values per tensor.

Indices are row-major flat coordinates, kept strictly increasing. The global
budget is sized to match a low-rank adapter's trainable parameter count at a
given rank, split per tensor. Per-entry optimizer moments stay aligned with
the index vector through every insert and remove.
"""

from __future__ import annotations

import numpy as np

from .models import ParamTree
from .pruning import Mask


class TensorDelta:
    """Sparse update entries for one tensor."""

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray | None = None, values: np.ndarray | None = None, dtype=np.float32):
        self.indices = np.asarray(indices, dtype=np.int64) if indices is not None else np.zeros(0, dtype=np.int64)
        self.values = np.asarray(values, dtype=dtype) if values is not None else np.zeros(0, dtype=dtype)
        if self.indices.shape != self.values.shape:
            raise ValueError("TensorDelta: indices and values must align")
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ValueError("TensorDelta: indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.size)


def top_k(scores: np.ndarray, k: int, eligible: np.ndarray | None = None) -> np.ndarray:
    """Sorted flat positions of the ``k`` largest scores among the eligible ones.

    Ties go to the lower position and NaN ranks last, so the result is the set
    ``np.argsort(-scores, kind="stable")`` filtered by ``eligible`` and cut at
    ``k`` would give, found in linear time: a partition locates the k-th value,
    then every score above it is taken plus the lowest-position ties. Fewer
    than ``k`` eligible positions returns all of them.
    """
    scores = np.asarray(scores).reshape(-1)
    cand = None
    if eligible is not None:
        cand = np.flatnonzero(eligible)
        scores = scores[cand]
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k >= scores.size:
        return cand if cand is not None else np.arange(scores.size, dtype=np.int64)
    neg = -scores  # ascending order of neg is the ranking; partition puts NaN last
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        above = ~np.isnan(neg)
        tied = np.flatnonzero(~above)
    else:
        above = neg < kth
        tied = np.flatnonzero(neg == kth)
    above[tied[: k - int(np.count_nonzero(above))]] = True
    picks = np.flatnonzero(above)
    return cand[picks] if cand is not None else picks


def merged_support(bits: np.ndarray, td: TensorDelta | None) -> np.ndarray:
    """Bitmap of the merged model's active coordinates: mask bits or delta entries, shaped like ``bits``."""
    out = np.array(bits, dtype=bool)
    if td is not None:
        out.reshape(-1)[td.indices] = True
    return out


class SparseDelta:
    """Per-tensor sparse updates under a global entry budget."""

    def __init__(self, budgets: dict[str, int], dtype=np.float32):
        self.budgets = dict(budgets)
        self.dtype = dtype
        self.slices: dict[str, TensorDelta] = {name: TensorDelta(dtype=dtype) for name in budgets}

    @property
    def budget_total(self) -> int:
        return sum(self.budgets.values())

    def support_size(self) -> int:
        return sum(len(td) for td in self.slices.values())

    def per_tensor_sizes(self) -> dict[str, int]:
        return {name: len(td) for name, td in self.slices.items()}


class DeltaOptimState:
    """AdamW moments aligned entry-for-entry with the delta indices."""

    def __init__(self, delta: SparseDelta):
        self.m = {name: np.zeros(len(td), dtype=np.float64) for name, td in delta.slices.items()}
        self.v = {name: np.zeros(len(td), dtype=np.float64) for name, td in delta.slices.items()}
        self.step = 0


def allocate_budget(tree: ParamTree, rank: int) -> dict[str, int]:
    """Per-tensor entry budgets matching a rank-r adapter's parameter count."""
    if rank < 1:
        raise ValueError(f"allocate_budget: rank must be >= 1, got {rank}")
    budgets: dict[str, int] = {}
    for name, tensor in tree.named_prunable():
        rows, cols = tensor.data.shape
        budget = rank * (rows + cols)
        if budget > tensor.data.size:
            raise ValueError(
                f"allocate_budget: budget {budget} exceeds numel {tensor.data.size} for {name} at rank {rank}"
            )
        budgets[name] = budget
    return budgets


def init_support(
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    budgets: dict[str, int],
    restrict_to_mask: bool = False,
    dtype=np.float32,
) -> SparseDelta:
    """Seed the delta support at the largest-magnitude surviving base weights.

    Values start at zero. With ``restrict_to_mask`` (structured or
    mask-constrained training) candidates never leave the mask support.
    """
    delta = SparseDelta(budgets, dtype=dtype)
    for name, budget in budgets.items():
        live = np.abs(theta_dense[name].reshape(-1)) * masks[name].bits.reshape(-1)
        if restrict_to_mask:
            available = int(masks[name].bits.sum())
            if budget > available:
                raise ValueError(
                    f"init_support: budget {budget} exceeds {available} active coordinates for {name}"
                )
        idx = top_k(live, budget)
        delta.slices[name] = TensorDelta(idx, np.zeros(budget, dtype=dtype), dtype=dtype)
    return delta


def effective_weights(theta: np.ndarray, bits: np.ndarray, td: TensorDelta | None) -> np.ndarray:
    """Merged weights: masked base plus the sparse delta at its coordinates."""
    if bits.shape != theta.shape:
        raise ValueError(f"effective_weights: mask shape {bits.shape} != theta shape {theta.shape}")
    w = np.where(bits, theta, np.zeros((), dtype=theta.dtype))
    if td is not None and len(td):
        if td.indices[-1] >= theta.size:
            raise IndexError(f"effective_weights: delta index {td.indices[-1]} out of range for numel {theta.size}")
        flat = w.reshape(-1)
        flat[td.indices] += td.values.astype(theta.dtype)
    return w


def materialize(tree: ParamTree, theta_dense: dict[str, np.ndarray], masks: dict[str, Mask], delta: SparseDelta | None) -> None:
    """Write merged weights into the live tree for every prunable tensor."""
    for name, tensor in tree.named_prunable():
        td = delta.slices.get(name) if delta is not None else None
        tensor.data = effective_weights(theta_dense[name], masks[name].bits, td)


def _check_aligned(delta: SparseDelta, grads: dict[str, np.ndarray]) -> None:
    for name, td in delta.slices.items():
        g = grads.get(name)
        if g is None or g.shape != td.values.shape:
            got = None if g is None else g.shape
            raise ValueError(f"optimizer step: gradient for {name} misaligned (got {got}, need {td.values.shape})")


def adamw_step(
    delta: SparseDelta,
    optim: DeltaOptimState,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One AdamW step over the delta values; indices never change here."""
    _check_aligned(delta, grads)
    optim.step += 1
    for name, td in delta.slices.items():
        td.values = adamw_update(td.values, grads[name], optim.m[name], optim.v[name], optim.step, lr, beta1, beta2, eps, weight_decay)


def adamw_update(
    w: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
) -> np.ndarray:
    """AdamW for one array: updates the float64 moments ``m``/``v`` in place, returns the new ``w`` in its dtype.

    The math runs in float64 with bias correction for 1-based ``step`` and
    decoupled weight decay; the sparse delta and the dense adapters share it.
    """
    g = np.asarray(g, dtype=np.float64)
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    update = (m / (1.0 - beta1**step)) / (np.sqrt(v / (1.0 - beta2**step)) + eps)
    w64 = w.astype(np.float64)
    return (w64 - lr * (update + weight_decay * w64)).astype(w.dtype)


def insert_entries(delta: SparseDelta, name: str, new_indices: np.ndarray, optim: DeltaOptimState | None = None) -> None:
    """Insert zero-valued entries (and zero moments) at new coordinates."""
    new_indices = np.asarray(new_indices, dtype=np.int64)
    if new_indices.size == 0:
        return
    new_indices = np.sort(new_indices)
    if np.any(np.diff(new_indices) == 0):
        raise ValueError(f"insert_entries: duplicate indices for {name}")
    td = delta.slices[name]
    pos = np.searchsorted(td.indices, new_indices)
    inb = pos < len(td)
    if np.any(td.indices[pos[inb]] == new_indices[inb]):
        raise ValueError(f"insert_entries: index already present for {name}")
    # one merged layout for the four aligned arrays: new entries land at `at`
    at = pos + np.arange(new_indices.size)
    old = np.ones(len(td) + new_indices.size, dtype=bool)
    old[at] = False

    def merged(arr: np.ndarray) -> np.ndarray:
        out = np.zeros(old.size, dtype=arr.dtype)
        out[old] = arr
        return out

    td.indices = merged(td.indices)
    td.indices[at] = new_indices
    td.values = merged(td.values)
    if optim is not None:
        optim.m[name] = merged(optim.m[name])
        optim.v[name] = merged(optim.v[name])


def remove_entries(delta: SparseDelta, name: str, drop_indices: np.ndarray, optim: DeltaOptimState | None = None) -> None:
    """Discard entries (values and moments) at existing coordinates."""
    drop_indices = np.asarray(drop_indices, dtype=np.int64)
    if drop_indices.size == 0:
        return
    drop_indices = np.sort(drop_indices)
    td = delta.slices[name]
    pos = np.searchsorted(td.indices, drop_indices)
    if np.any(pos >= len(td)) or np.any(td.indices[pos] != drop_indices):
        raise ValueError(f"remove_entries: index not present for {name}")
    keep = np.ones(len(td), dtype=bool)
    keep[pos] = False
    td.indices = td.indices[keep]
    td.values = td.values[keep]
    if optim is not None:
        optim.m[name] = optim.m[name][keep]
        optim.v[name] = optim.v[name][keep]


def gather_grads(delta: SparseDelta, dense_grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Slice dense gradients at the delta coordinates (chain rule through the merge)."""
    out = {}
    for name, td in delta.slices.items():
        out[name] = dense_grads[name].reshape(-1)[td.indices]
    return out
