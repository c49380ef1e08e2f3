"""Low-rank adapter baselines over the sparse base model.

Standard LoRA (adapters ride on frozen sparse matrices) and the merge-then-
re-prune variant that restores the sparsity budget after fine-tuning. The
adapter parameter count at rank r is r*(rows+cols) per target matrix, the
same formula the sparse-delta budget uses, so the two methods always train
the same number of parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .models import INIT_STD, ParamTree
from .pruning import Mask, build_mask, collect_activation_norms, score_wanda


@dataclass
class LoraAdapter:
    """Down/up projection pair for one target matrix; only these train."""

    name: str
    a: Tensor  # [rank, in_dim]
    b: Tensor  # [out_dim, rank], zero-initialized so the adapter starts silent
    rank: int
    scale: float = 1.0

    def param_count(self) -> int:
        return self.a.data.size + self.b.data.size

    def delta_matrix(self) -> np.ndarray:
        return (self.b.data @ self.a.data) * self.scale


def build_adapters(tree: ParamTree, rank: int, seed: int = 0, scale: float = 1.0, dtype=np.float32) -> dict[str, LoraAdapter]:
    """One adapter per prunable matrix; A ~ normal(0, 0.02), B = 0."""
    if rank < 1:
        raise ValueError(f"build_adapters: rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    adapters: dict[str, LoraAdapter] = {}
    for name, tensor in tree.named_prunable():
        out_dim, in_dim = tensor.data.shape
        a = Tensor(rng.normal(0.0, INIT_STD, size=(rank, in_dim)).astype(dtype), requires_grad=True)
        b = Tensor(np.zeros((out_dim, rank), dtype=dtype), requires_grad=True)
        adapters[name] = LoraAdapter(name=name, a=a, b=b, rank=rank, scale=scale)
    return adapters


def trainable_count(adapters: dict[str, LoraAdapter]) -> int:
    return sum(ad_.param_count() for ad_ in adapters.values())


def merge_adapters(theta_sparse: dict[str, np.ndarray], adapters: dict[str, LoraAdapter]) -> dict[str, np.ndarray]:
    """Fold each adapter into its sparse base matrix; the result is dense."""
    merged: dict[str, np.ndarray] = {}
    for name, w in theta_sparse.items():
        if name in adapters:
            merged[name] = (w + adapters[name].delta_matrix()).astype(w.dtype)
        else:
            merged[name] = w.copy()
    return merged


def merge_and_reprune(
    tree: ParamTree,
    forward,
    masks: dict[str, Mask],
    adapters: dict[str, LoraAdapter],
    calib_batches,
    sparsity: float,
    scorer: str = "wanda",
    grouping: str = "row",
) -> tuple[dict[str, np.ndarray], dict[str, Mask]]:
    """LoRA*: merge adapters into the sparse base, then prune back to budget.

    The merged dense matrices become the new retained weights; scoring runs on
    the merged model (fresh calibration pass for the activation-aware scorer).
    Returns (merged dense weights, new masks); the live tree is left holding
    the re-pruned weights.
    """
    for name, tensor in tree.named_prunable():
        sparse_w = np.where(masks[name].bits, tensor.data, np.zeros((), dtype=tensor.data.dtype))
        tensor.data = sparse_w + adapters[name].delta_matrix().astype(tensor.data.dtype)
    if scorer == "wanda":
        acts = collect_activation_norms(forward, tree, calib_batches)
    elif scorer == "magnitude":
        acts = None
    else:
        raise ValueError(f"merge_and_reprune: unknown scorer {scorer!r}")
    merged_dense: dict[str, np.ndarray] = {}
    new_masks: dict[str, Mask] = {}
    for name, tensor in tree.named_prunable():
        merged_dense[name] = tensor.data.copy()
        pat = masks[name].pattern
        scores = score_wanda(tensor.data, acts[name].norms) if acts is not None else np.abs(tensor.data)
        new_masks[name] = build_mask(
            scores, sparsity, pattern=pat, grouping=grouping, n=masks[name].n, m=masks[name].m, name=name
        )
        tensor.data = np.where(new_masks[name].bits, tensor.data, np.zeros((), dtype=tensor.data.dtype))
    return merged_dense, new_masks

