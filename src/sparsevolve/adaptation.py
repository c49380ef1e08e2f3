"""Restore the merged model to the target sparsity after growth densifies it.

The merged support (mask union delta coordinates) is ranked by sensitivity,
|accumulated gradient * weight value|, and trimmed to the per-tensor budget
round((1 - sparsity) * numel). Removed coordinates lose both their mask bit
and any delta entry. Adaptation never creates support; when drops have left a
tensor under budget, a separate repair stage refills it through the growth
ranking so the merged model sits exactly on budget after every event.

The weight value feeding the sensitivity product is the retained dense base
weight by default; the merged value is available behind a flag, as is a plain
|merged weight| magnitude criterion.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .delta import DeltaOptimState, SparseDelta, effective_weights, insert_entries, masked_base, merged_support, remove_entries, top_k
from .pruning import Mask

log = logging.getLogger(__name__)

SOURCE_PRETRAINED = "pretrained"
SOURCE_MERGED = "merged"
CRITERION_SENSITIVITY = "sensitivity"
CRITERION_MAGNITUDE = "magnitude"


def keep_budget(numel: int, sparsity: float) -> int:
    """Active coordinates allowed per tensor: round((1 - sparsity) * numel)."""
    return int(np.floor((1.0 - sparsity) * numel + 0.5))


def support_coords(mask: Mask, td) -> np.ndarray:
    """Sorted union of mask coordinates and delta coordinates."""
    return np.flatnonzero(merged_support(mask.bits, td))


def compute_sensitivity(
    window: dict[str, np.ndarray],
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    source: str = SOURCE_PRETRAINED,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-tensor (support coordinates, |g * w|) over the merged support.

    ``source`` selects the weight value in the product: the retained dense
    base value, or the merged effective value.
    """
    if source not in (SOURCE_PRETRAINED, SOURCE_MERGED):
        raise ValueError(f"compute_sensitivity: unknown source {source!r}")
    base = masked_base(theta_dense, masks) if source == SOURCE_MERGED else None
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, td in delta.slices.items():
        coords = support_coords(masks[name], td)
        if coords.size == 0:
            raise ValueError(f"compute_sensitivity: empty support for {name}")
        g = window[name].reshape(-1)[coords]
        if base is None:
            w = theta_dense[name].reshape(-1)[coords]
        else:
            w = effective_weights(base[name], td).reshape(-1)[coords]
        out[name] = (coords, np.abs(g * w.astype(np.float64)))
    return out


def magnitude_scores(
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """|merged weight| over the support; the classic dynamic-sparse criterion."""
    base = masked_base(theta_dense, masks)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, td in delta.slices.items():
        coords = support_coords(masks[name], td)
        if coords.size == 0:
            raise ValueError(f"magnitude_scores: empty support for {name}")
        w = effective_weights(base[name], td).reshape(-1)[coords]
        out[name] = (coords, np.abs(w.astype(np.float64)))
    return out


def rebuild_mask(
    coords: np.ndarray,
    scores: np.ndarray,
    sparsity: float,
    mask: Mask,
    delta: SparseDelta,
    name: str,
    optim: DeltaOptimState | None = None,
) -> tuple[int, int, bool]:
    """Trim the support of one tensor to its keep budget by score rank.

    Keeps the highest-scoring coordinates (ties to lower index). Every removed
    coordinate loses its mask bit and any delta entry; kept delta-only
    coordinates stay mask=0 with their entries intact. Returns
    (pruned_base, pruned_delta, trimmed). A support already at or below budget
    is left untouched.
    """
    budget = keep_budget(mask.bits.size, sparsity)
    if coords.size < budget:
        log.debug("rebuild_mask: %s support %d below keep budget %d (already at/below target)", name, coords.size, budget)
        return 0, 0, False
    if coords.size == budget:
        return 0, 0, False
    kept = np.zeros(coords.size, dtype=bool)
    kept[top_k(scores, budget)] = True
    removed = coords[~kept]
    flat_bits = mask.bits.reshape(-1)
    pruned_base = int(flat_bits[removed].sum())
    flat_bits[removed] = False
    td = delta.slices[name]
    dead = removed[np.isin(removed, td.indices, assume_unique=True)]
    remove_entries(delta, name, dead, optim)
    return pruned_base, int(dead.size), True


def repair_support(
    window: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    optim: DeltaOptimState | None,
    sparsity: float,
    restrict_to_mask: bool = False,
) -> int:
    """Refill tensors whose support fell under budget (dropped delta-only entries).

    New entries follow the growth ranking (largest |accumulated gradient|
    outside the support). When the global entry budget is exhausted, room is
    made by discarding the smallest-magnitude entries at coordinates the mask
    already covers, which leaves the support unchanged. Entry slots freed by
    the trim stage are refilled the same way at mask-covered coordinates, so
    the delta sits at its full budget between events. Returns the number of
    repaired support coordinates.
    """
    repaired = 0
    for name, td in delta.slices.items():
        bits = masks[name].bits.reshape(-1)
        support = support_coords(masks[name], td)
        deficit = keep_budget(bits.size, sparsity) - support.size
        if deficit > 0:
            flat = np.abs(window[name].reshape(-1))
            eligible = np.ones(flat.size, dtype=bool)
            eligible[support] = False
            if restrict_to_mask:
                eligible &= bits
            n_picks = min(deficit, int(np.count_nonzero(eligible)))
            if n_picks < deficit:
                log.warning("repair_support: %s lacks candidates for %d of %d repairs", name, deficit - n_picks, deficit)
            slack = delta.budgets[name] - len(td)
            overflow = n_picks - slack
            if overflow > 0:
                covered = bits[td.indices]
                n_sac = min(overflow, int(covered.sum()))
                if n_sac < overflow:
                    log.warning(
                        "repair_support: %s entry budget exhausted, repairing %d of %d", name, slack + n_sac, n_picks
                    )
                    n_picks = slack + n_sac
                if n_sac > 0:
                    vals = np.abs(td.values.astype(np.float64))
                    vals[~covered] = np.inf  # only sacrifice entries the mask still covers
                    remove_entries(delta, name, td.indices[top_k(-vals, n_sac)], optim)
            insert_entries(delta, name, top_k(flat, n_picks, eligible), optim)
            repaired += n_picks
        free = delta.budgets[name] - len(td)
        if free > 0:
            # support-neutral refill: new entries only at mask-covered coordinates
            eligible = bits.copy()
            eligible[td.indices] = False
            insert_entries(delta, name, top_k(np.abs(window[name].reshape(-1)), free, eligible), optim)
    return repaired


@dataclass
class AdaptationReport:
    step: int
    pruned_base: int = 0
    pruned_delta: int = 0
    repaired: int = 0
    under_budget: int = 0  # tensors whose support was already below budget before the trim (normal after drops)
    merged_sparsity: float = 0.0
    per_tensor_sparsity: dict[str, float] = field(default_factory=dict)


def adaptation_step(
    window: dict[str, np.ndarray],
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    optim: DeltaOptimState | None,
    sparsity: float,
    step: int = 0,
    criterion: str = CRITERION_SENSITIVITY,
    source: str = SOURCE_PRETRAINED,
    restrict_to_mask: bool = False,
) -> AdaptationReport:
    """Trim every tensor's merged support back to the sparsity budget.

    Runs immediately after a drop/grow cycle on the same accumulated-gradient
    window, then repairs any under-budget tensors. The live masked weights are
    re-derivable from the retained dense base afterwards.
    """
    if criterion == CRITERION_SENSITIVITY:
        scored = compute_sensitivity(window, theta_dense, masks, delta, source=source)
    elif criterion == CRITERION_MAGNITUDE:
        scored = magnitude_scores(theta_dense, masks, delta)
    else:
        raise ValueError(f"adaptation_step: unknown criterion {criterion!r}")
    report = AdaptationReport(step=step)
    for name in delta.slices:
        coords, scores = scored[name]
        report.under_budget += int(coords.size < keep_budget(masks[name].bits.size, sparsity))
        pb, pd, _ = rebuild_mask(coords, scores, sparsity, masks[name], delta, name, optim)
        report.pruned_base += pb
        report.pruned_delta += pd
    report.repaired = repair_support(window, masks, delta, optim, sparsity, restrict_to_mask)
    report.merged_sparsity, report.per_tensor_sparsity = merged_support_sparsity(masks, delta)
    return report


def merged_support_sparsity(masks: dict[str, Mask], delta: SparseDelta | None) -> tuple[float, dict[str, float]]:
    """Global and per-tensor sparsity counting mask-or-delta coordinates as active."""
    total = 0
    active = 0
    per: dict[str, float] = {}
    for name, mask in masks.items():
        numel = mask.bits.size
        if delta is not None and name in delta.slices:
            sup = support_coords(mask, delta.slices[name]).size
        else:
            sup = mask.popcount()
        per[name] = 1.0 - sup / numel
        total += numel
        active += sup
    return 1.0 - active / total, per
