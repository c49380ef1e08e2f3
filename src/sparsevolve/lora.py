"""Low-rank adapter baselines over the sparse base model.

Standard LoRA (adapters ride on frozen sparse matrices) and the merge-then-
re-prune variant that restores the sparsity budget after fine-tuning. The
adapter parameter count at rank r is r*(rows+cols) per target matrix, the
same formula the sparse-delta budget uses, so the two methods always train
the same number of parameters. A checkpoint stores each adapter as two dense
records, ``<name>.lora_a`` and ``<name>.lora_b``; this module writes and reads
that format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .models import INIT_STD, ParamTree
from .pruning import Mask, masked_base, prune_model
from .pruning import collect_activation_norms  # noqa: F401  unused here; only bench/tracing.py patches it


@dataclass
class LoraAdapter:
    """Down/up projection pair for one target matrix; only these train."""

    a: Tensor  # [rank, in_dim]
    b: Tensor  # [out_dim, rank], zero-initialized so the adapter starts silent

    def delta_matrix(self) -> np.ndarray:
        return self.b.data @ self.a.data


def build_adapters(tree: ParamTree, rank: int, seed: int = 0, dtype=np.float32) -> dict[str, LoraAdapter]:
    """One adapter per prunable matrix; A ~ normal(0, 0.02), B = 0."""
    if rank < 1:
        raise ValueError(f"build_adapters: rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    adapters: dict[str, LoraAdapter] = {}
    for name, tensor in tree.named_prunable():
        out_dim, in_dim = tensor.data.shape
        a = Tensor(rng.normal(0.0, INIT_STD, size=(rank, in_dim)).astype(dtype), requires_grad=True)
        b = Tensor(np.zeros((out_dim, rank), dtype=dtype), requires_grad=True)
        adapters[name] = LoraAdapter(a=a, b=b)
    return adapters


def adapter_records(adapters: dict[str, LoraAdapter]) -> dict[str, np.ndarray]:
    """The adapters as dense checkpoint records, ``<name>.lora_a`` and ``<name>.lora_b`` each."""
    records = {}
    for name, adapter in adapters.items():
        records[f"{name}.lora_a"] = adapter.a.data
        records[f"{name}.lora_b"] = adapter.b.data
    return records


def adapters_from_records(dense: dict[str, np.ndarray]) -> dict[str, LoraAdapter]:
    """The adapters that ``adapter_records`` wrote, rebuilt from a checkpoint's dense records."""
    adapters = {}
    for key, a in dense.items():
        name = key.removesuffix(".lora_a")
        if name != key and f"{name}.lora_b" in dense:
            adapters[name] = LoraAdapter(Tensor(a), Tensor(dense[f"{name}.lora_b"]))
    return adapters


def merge_and_reprune(
    tree: ParamTree,
    forward,
    masks: dict[str, Mask],
    adapters: dict[str, LoraAdapter],
    calib_batches,
    sparsity: float,
    scorer: str = "wanda",
    nm: tuple[int, int] | None = None,
) -> tuple[dict[str, Mask], dict[str, np.ndarray]]:
    """LoRA*: fold the adapters into the masked base, then prune back to budget.

    The fold leaves the live tree dense; ``prune_model`` then scores the merged
    model (a fresh calibration pass for the activation-aware scorer) and masks
    it. Returns ``prune_model``'s (new masks, merged dense weights).
    """
    base = masked_base({name: tensor.data for name, tensor in tree.named_prunable()}, masks)
    for name, tensor in tree.named_prunable():
        tensor.data = base[name] + adapters[name].delta_matrix().astype(tensor.data.dtype)
    return prune_model(tree, forward, calib_batches, sparsity, scorer=scorer, nm=nm)
