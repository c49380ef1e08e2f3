"""The learnable sparse update: flat coordinate indices plus values per tensor.

Indices are row-major flat coordinates, kept strictly increasing. The global
budget is sized to match a low-rank adapter's trainable parameter count at a
given rank, split per tensor. Per-entry optimizer moments stay aligned with
the index vector through every edit.

Editing. A topology event, evolution then adaptation, edits each tensor's
entries on one ``EditMap``: a dense live-entry bitmap plus a bitmap of reset
coordinates, those grown in the event (including dropped-then-regrown ones),
whose value and both moments restart at zero. Grows and drops only flip bits
(and refuse present, absent or repeated coordinates). ``EditMap.gather`` reads
the current entries off the untouched pre-event arrays, and at the end of the
event ``EditMap.rebuild`` writes the sorted indices, values and moments back
once through it: no sort, no search, no per-edit merge. ``insert_entries``
and ``remove_entries`` are one grow or drop each on such a map.

Flat layout. ``DenseAdamW`` keeps all trained values in one contiguous
vector, and each AdamW moment in another, laid out from named parts: for the
delta one part per tensor, in ``delta.slices`` order. Every
``TensorDelta.values``, ``optim.m[name]`` and ``optim.v[name]`` is a view of
its part of those buffers, so callers and checkpoint records still see one
array per tensor. A rebuild hands the delta and the moments new arrays, so a
topology event ends with one ``optim.relayout()``: it packs the buffers anew
from the parts' current arrays and keeps the step count (parts of mixed
dtypes are rejected). One AdamW update then runs over the whole buffers and
writes the new values into them in place, so an array kept across a step
sees the step; copy it to keep a snapshot.

Merging. ``effective_weights`` copies a masked base (``pruning.masked_base``:
the dense base with its pruned coordinates zeroed) and adds the delta at its
coordinates: the one merge of base and delta. A masked base is a cache of the
mask bits. In training the only code that clears bits, the adaptation trim
(``adaptation.rebuild_mask``), zeroes the cached base at the coordinates it
clears, so the base is computed once, after pruning.

Optimizer. ``adamw_update`` is the one AdamW formula and ``DenseAdamW`` the
one optimizer: the sparse delta and the low-rank adapters each step through
one, on a flat float64 gradient. The betas, epsilon and weight decay every
run uses are the module constants below.
"""

from __future__ import annotations

import numpy as np

from .models import ParamTree
from .pruning import Mask

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.0


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
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    scores = np.asarray(scores).reshape(-1)
    cand = None
    if eligible is not None:
        cand = np.asarray(eligible).reshape(-1).nonzero()[0]
        scores = scores[cand]
    if k >= scores.size:
        return cand if cand is not None else np.arange(scores.size, dtype=np.int64)
    neg = -scores  # ascending order of neg is the ranking; partition puts NaN last
    neg.partition(k - 1)
    kth = -neg[k - 1]
    if np.isnan(kth):
        above = ~np.isnan(scores)
        tied = (~above).nonzero()[0]
    else:
        above = scores > kth
        tied = (scores == kth).nonzero()[0]
    above[tied[: k - int(np.count_nonzero(above))]] = True
    picks = above.nonzero()[0]
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
        self.slices: dict[str, TensorDelta] = {name: TensorDelta(dtype=dtype) for name in budgets}

    @property
    def budget_total(self) -> int:
        return sum(self.budgets.values())

    def support_size(self) -> int:
        return sum(len(td) for td in self.slices.values())


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


def effective_weights(base: np.ndarray, td: TensorDelta | None) -> np.ndarray:
    """Merged weights as a new array: a masked base plus the sparse delta at its coordinates."""
    w = base.copy()
    if td is not None and len(td):
        if td.indices[-1] >= w.size:
            raise IndexError(f"effective_weights: delta index {td.indices[-1]} out of range for numel {w.size}")
        flat = w.reshape(-1)
        flat[td.indices] += td.values.astype(w.dtype, copy=False)
    return w


def materialize(tree: ParamTree, base: dict[str, np.ndarray], delta: SparseDelta | None) -> None:
    """Write merged weights, from a ``masked_base``, into the live tree for every prunable tensor."""
    for name, tensor in tree.named_prunable():
        td = delta.slices.get(name) if delta is not None else None
        tensor.data = effective_weights(base[name], td)


def _check_aligned(delta: SparseDelta, grads: dict[str, np.ndarray]) -> None:
    for name, td in delta.slices.items():
        g = grads.get(name)
        if g is None or g.shape != td.values.shape:
            got = None if g is None else g.shape
            raise ValueError(f"optimizer step: gradient for {name} misaligned (got {got}, need {td.values.shape})")


def adamw_step(delta: SparseDelta, optim: DenseAdamW, grads: dict[str, np.ndarray], lr: float) -> None:
    """One AdamW step over the delta values from their gradients in slice order; indices never change here."""
    _check_aligned(delta, grads)
    optim.step(np.concatenate([grads[name] for name in delta.slices], dtype=np.float64), lr)


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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """AdamW for one array: updates the float64 moments ``m``/``v`` in place, returns the new ``w`` in its dtype.

    The math runs in float64 with bias correction for 1-based ``step`` and
    decoupled weight decay; the sparse delta and the dense adapters share it.
    It is ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``w - lr*((m/(1-b1**step)) / (sqrt(v/(1-b2**step)) + eps) + wd*w)``,
    computed in that association order with in-place ufuncs. With ``out``
    (which may be ``w`` itself) the new weights are written there.
    """
    g = np.asarray(g, dtype=np.float64)
    tmp = np.multiply(1.0 - beta1, g)
    m *= beta1
    m += tmp
    np.multiply(1.0 - beta2, g, out=tmp)
    tmp *= g
    v *= beta2
    v += tmp
    np.divide(v, 1.0 - beta2**step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    update = np.divide(m, 1.0 - beta1**step)
    update /= tmp
    np.multiply(weight_decay, w, out=tmp, dtype=np.float64)  # w is read as float64, exactly
    update += tmp
    update *= lr
    np.subtract(w, update, out=update, dtype=np.float64)
    if out is None:
        return update.astype(w.dtype)
    np.copyto(out, update, casting="same_kind")
    return out


class DenseAdamW:
    """AdamW over one flat vector of trained values, laid out from named parts.

    ``parts`` maps a name to the ``(owner, attribute)`` holding the part's
    array: a ``TensorDelta`` and ``"values"``, or an adapter's ``Tensor`` and
    ``"data"``. ``relayout`` packs the parts end to end into ``w`` and their
    float64 moments into one buffer each, then binds every owner's attribute,
    ``m[name]`` and ``v[name]`` to that part's view, so each step, one
    ``adamw_update`` over ``w`` in place, is seen through every part. An
    owner handed a new array, as a rebuild does, is stepped only after the
    next ``relayout``.
    """

    def __init__(self, parts: dict[str, tuple[object, str]]):
        self.parts = parts
        self.m = {name: np.zeros(getattr(owner, attr).shape) for name, (owner, attr) in parts.items()}
        self.v = {name: np.zeros(getattr(owner, attr).shape) for name, (owner, attr) in parts.items()}
        self.step_count = 0
        self.relayout()

    def relayout(self) -> None:
        """Pack the parts' current arrays and moments into fresh buffers, each bound to its view; the step count stays."""
        arrays = {name: getattr(owner, attr) for name, (owner, attr) in self.parts.items()}
        for name, arr in arrays.items():
            if self.m[name].shape != arr.shape or self.v[name].shape != arr.shape:
                raise ValueError(f"optimizer layout: moments for {name} misaligned with its {arr.size} values")
        dtypes = {arr.dtype for arr in arrays.values()}
        if len(dtypes) > 1:
            raise ValueError(f"optimizer layout: parts mix dtypes {sorted(map(str, dtypes))}")
        self.w = np.concatenate(list(arrays.values()), axis=None)
        self._m = np.concatenate([self.m[name] for name in arrays], axis=None)
        self._v = np.concatenate([self.v[name] for name in arrays], axis=None)
        start = 0
        for name, (owner, attr) in self.parts.items():
            shape = arrays[name].shape
            end = start + arrays[name].size
            setattr(owner, attr, self.w[start:end].reshape(shape))
            self.m[name], self.v[name] = self._m[start:end].reshape(shape), self._v[start:end].reshape(shape)
            start = end

    def step(self, g: np.ndarray, lr: float) -> None:
        """One AdamW update of ``w`` in place from ``g``, its float64 gradient laid out the same way."""
        if g.shape != self.w.shape:
            raise ValueError(f"optimizer step: gradient misaligned (got {g.shape}, need {self.w.shape})")
        self.step_count += 1
        adamw_update(self.w, g, self._m, self._v, self.step_count, lr, BETA1, BETA2, EPS, WEIGHT_DECAY, out=self.w)


class EditMap:
    """One tensor's delta entries as dense bitmaps, edited through a whole topology event.

    ``live`` marks the coordinates that hold an entry; ``reset`` marks those
    grown during the event (a dropped-then-regrown one included), whose value
    and both moments restart at zero. ``origin``, the indices the map was
    built from, stays aligned with the tensor's values and moments until
    ``rebuild`` writes the event's result back once.
    """

    __slots__ = ("name", "origin", "live", "reset", "count", "edited")

    def __init__(self, name: str, indices: np.ndarray, numel: int):
        self.name = name
        self.origin = indices
        self.live = np.zeros(numel, dtype=bool)
        self.live[indices] = True
        self.reset = np.zeros(numel, dtype=bool)
        self.count = int(indices.size)  # live entries
        self.edited = False

    def _set(self, coords: np.ndarray, to: bool) -> None:
        """Set ``live`` at coordinates that all hold ``not to``; a repeated coordinate is refused."""
        self.live[coords] = to
        count = self.count + (coords.size if to else -coords.size)
        if np.count_nonzero(self.live) != count:
            self.live[coords] = not to
            raise ValueError(f"duplicate indices for {self.name}")
        self.count = count
        self.edited = True

    def grow(self, coords: np.ndarray) -> None:
        """New entries, zero-valued with zero moments, at coordinates (non-negative) that hold none."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return
        if self.live[coords].any():
            raise ValueError(f"grow: index already present for {self.name}")
        self._set(coords, True)
        self.reset[coords] = True

    def drop(self, coords: np.ndarray) -> None:
        """Discard the entries (values and moments) at these coordinates (non-negative)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return
        if not self.live[coords].all():
            raise ValueError(f"drop: index not present for {self.name}")
        self._set(coords, False)

    def gather(self, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        """The live coordinates in order, then each array (aligned with ``origin``) carried onto them, reset ones at 0.

        Every live coordinate that is not reset held an entry at ``origin``,
        so the origin entries kept (live, not reset) and the entries carried
        (not reset) are the same ones, both in coordinate order.
        """
        kept = (self.live[self.origin] & ~self.reset[self.origin]).nonzero()[0]
        indices = self.live.nonzero()[0]
        carried = (~self.reset[indices]).nonzero()[0]
        out = [indices]
        for arr in arrays:
            new = np.zeros(indices.size, dtype=arr.dtype)
            new[carried] = arr[kept]
            out.append(new)
        return tuple(out)

    def rebuild(self, delta: SparseDelta, optim: DenseAdamW | None = None) -> None:
        """Write the edited entries back into ``delta`` (and ``optim``): one gather per array, nothing if unedited."""
        if not self.edited:
            return
        td = delta.slices[self.name]
        if optim is None:
            td.indices, td.values = self.gather(td.values)
        else:
            td.indices, td.values, optim.m[self.name], optim.v[self.name] = self.gather(
                td.values, optim.m[self.name], optim.v[self.name]
            )


def _edit_once(delta: SparseDelta, name: str, coords: np.ndarray, optim: DenseAdamW | None, edit) -> None:
    """``edit`` (``EditMap.grow`` or ``EditMap.drop``) on a map just large enough, rebuilt and laid out at once."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.size == 0:
        return
    if coords.min() < 0:
        raise ValueError(f"negative index for {name}")  # would alias the end of the map
    td = delta.slices[name]
    edits = EditMap(name, td.indices, 1 + int(max(coords.max(), td.indices[-1] if len(td) else 0)))
    edit(edits, coords)
    edits.rebuild(delta, optim)
    if optim is not None:
        optim.relayout()


def insert_entries(delta: SparseDelta, name: str, new_indices: np.ndarray, optim: DenseAdamW | None = None) -> None:
    """Insert zero-valued entries (and zero moments) at new coordinates: one ``EditMap`` grow and rebuild."""
    _edit_once(delta, name, new_indices, optim, EditMap.grow)


def remove_entries(delta: SparseDelta, name: str, drop_indices: np.ndarray, optim: DenseAdamW | None = None) -> None:
    """Discard entries (values and moments) at existing coordinates: one ``EditMap`` drop and rebuild."""
    _edit_once(delta, name, drop_indices, optim, EditMap.drop)


def gather_grads(delta: SparseDelta, dense_grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Slice dense gradients at the delta coordinates (chain rule through the merge)."""
    out = {}
    for name, td in delta.slices.items():
        out[name] = dense_grads[name].reshape(-1)[td.indices]
    return out
