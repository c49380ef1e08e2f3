"""Post-training pruning: build the initial mask at a target sparsity.

Scores are either plain weight magnitude or the activation-aware product
|W[i,j]| * norm(x_j), where norm(x_j) is the L2 norm of input feature j over
a calibration set. Masks are unstructured (per-output-row budgets) or N:M
structured (at most N of every M consecutive input-dim weights survive).
``prune_model`` is the one path from scores to masks, retained dense weights
and the masked live tree; the LoRA* re-prune goes through it too.

``masked_base`` is the one place that zeroes pruned coordinates,
``np.where(bits, theta, 0)``: applying a mask, the LoRA* fold, the training
loop's cached base, a checkpoint merge and an eval all take it from here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import parallel
from .models import ParamTree

SCORERS = ("magnitude", "wanda")


@dataclass
class Mask:
    """Binary indicator of active base weights for one tensor."""

    name: str
    bits: np.ndarray  # bool, same shape as the weight matrix

    def nm_violations(self, n: int, m: int) -> list[tuple[int, int]]:
        """(row, group) offsets of aligned groups with more than n set bits."""
        if m <= 0:
            raise ValueError("nm_violations: m must be positive")
        rows, cols = self.bits.shape
        if cols % m != 0:
            raise ValueError(f"nm_violations: input dim {cols} not divisible by {m}")
        counts = self.bits.reshape(rows, cols // m, m).sum(axis=2)
        bad = np.argwhere(counts > n)
        return [(int(r), int(g)) for r, g in bad]


def masked_base(theta_dense: dict[str, np.ndarray], masks: dict[str, Mask]) -> dict[str, np.ndarray]:
    """Per masked tensor, the dense base with its pruned coordinates zeroed.

    A cache of the mask bits: whatever clears bits must zero them here too.
    """
    base = {}
    for name, mask in masks.items():
        theta = theta_dense[name]
        if mask.bits.shape != theta.shape:
            raise ValueError(f"masked_base: mask shape {mask.bits.shape} != theta shape {theta.shape} for {name}")
        base[name] = np.where(mask.bits, theta, np.zeros((), dtype=theta.dtype))
    return base


def _tap_sums(forward, tree: ParamTree, names: list[str], batch) -> dict[str, list[np.ndarray]]:
    """One calibration batch: for each tap of a prunable matrix's input, its
    float64 per-feature sum of squares."""
    taps: dict[str, list[np.ndarray]] = {n: [] for n in names}
    forward(tree, batch, taps=taps)
    sums: dict[str, list[np.ndarray]] = {}
    for name in names:
        sums[name] = []
        for arr in taps[name]:
            a64 = arr.astype(np.float64)  # always a fresh copy, so it can be squared in place
            sums[name].append(np.multiply(a64, a64, out=a64).sum(axis=0))
    return sums


def collect_activation_norms(forward, tree: ParamTree, batches) -> dict[str, np.ndarray]:
    """Run calibration batches and collect per-feature activation norms.

    ``norms[name][j]`` is the L2 norm over all calibration tokens of the input
    feature j feeding the prunable matrix ``name``. The batches run through
    ``parallel.ordered_map``; their sums are folded in batch, then tap order,
    so the norms are bitwise those of a one-thread loop.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("collect_activation_norms: empty calibration set")
    names = tree.prunable_names()
    run = functools.partial(_tap_sums, forward, tree, names)
    sumsq: dict[str, np.ndarray] = {}
    for sums in parallel.ordered_map(run, batches, parallel.batch_elements(tree, batches[0])):
        for name in names:
            for s in sums[name]:
                if name not in sumsq:
                    sumsq[name] = np.zeros(s.shape[0], dtype=np.float64)
                sumsq[name] += s
    return {n: np.sqrt(sumsq[n]) for n in names}


def score_wanda(w: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """score[i, j] = |W[i, j]| * norms[j]."""
    w = np.asarray(w)
    norms = np.asarray(norms)
    if norms.ndim != 1 or norms.shape[0] != w.shape[-1]:
        raise ValueError(f"score_wanda: norms length {norms.shape} does not match input dim of {w.shape}")
    return np.abs(w) * norms


def build_mask(scores: np.ndarray, sparsity: float, nm: tuple[int, int] | None = None, name: str = "") -> Mask:
    """Keep the highest-scoring coordinates subject to the sparsity budget.

    Unstructured (``nm`` None) clears the lowest floor(sparsity*row_len)
    scores within each output row. ``nm=(n, m)`` keeps the n best of every
    aligned group of m consecutive input-dim weights. Ties always break
    toward the lower coordinate index.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"build_mask: scores must be 2-D, got shape {scores.shape}")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"build_mask: sparsity must be in [0, 1), got {sparsity}")
    rows, cols = scores.shape
    bits = np.zeros_like(scores, dtype=bool)

    if nm is None:
        keep = cols - int(np.floor(sparsity * cols))
        order = np.argsort(-scores, axis=1, kind="stable")
        np.put_along_axis(bits, order[:, :keep], True, axis=1)
    else:
        n, m = nm
        if m < 1 or n < 0:
            raise ValueError(f"build_mask: invalid N:M parameters {n}:{m}")
        if n > m:
            raise ValueError(f"build_mask: N={n} exceeds M={m}")
        if cols % m != 0:
            raise ValueError(f"build_mask: input dim {cols} not divisible by M={m}")
        grouped = scores.reshape(rows, cols // m, m)
        order = np.argsort(-grouped, axis=2, kind="stable")
        gbits = np.zeros_like(grouped, dtype=bool)
        np.put_along_axis(gbits, order[:, :, :n], True, axis=2)
        bits = gbits.reshape(rows, cols)

    return Mask(name=name, bits=bits)


def apply_mask(tree: ParamTree, masks: dict[str, Mask]) -> dict[str, np.ndarray]:
    """Zero masked coordinates of the live weights; return retained dense copies.

    The returned dict holds the original dense values, which later mask
    rebuilds multiply back against.
    """
    retained: dict[str, np.ndarray] = {}
    for name, tensor in tree.named_prunable():
        if name not in masks:
            raise KeyError(f"apply_mask: missing mask for prunable tensor {name}")
        retained[name] = tensor.data.copy()
    for name, w in masked_base(retained, {name: masks[name] for name in retained}).items():
        tree[name].data = w
    return retained


def prune_model(
    tree: ParamTree,
    forward,
    calib_batches,
    sparsity: float,
    scorer: str = "wanda",
    nm: tuple[int, int] | None = None,
) -> tuple[dict[str, Mask], dict[str, np.ndarray]]:
    """Score the live weights, build the masks (N:M when ``nm`` is given) and apply them;
    returns (masks, retained dense weights)."""
    if scorer not in SCORERS:
        raise ValueError(f"prune_model: unknown scorer {scorer!r}")
    norms = collect_activation_norms(forward, tree, calib_batches) if scorer == "wanda" else None
    masks: dict[str, Mask] = {}
    for name, tensor in tree.named_prunable():
        w = tensor.data
        scores = score_wanda(w, norms[name]) if norms is not None else np.abs(w)
        masks[name] = build_mask(scores, sparsity, nm=nm, name=name)
    return masks, apply_mask(tree, masks)
