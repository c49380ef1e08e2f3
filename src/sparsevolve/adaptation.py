"""Restore the merged model to the target sparsity after growth densifies it.

The merged support (mask union delta coordinates) is ranked by one scorer,
``compute_sensitivity``, and trimmed to the per-tensor budget
round((1 - sparsity) * numel). Removed coordinates lose both their mask bit
and any delta entry. Adaptation never creates support; when drops have left a
tensor under budget, a separate repair stage refills it through the growth
ranking so the merged model sits exactly on budget after every event.

The default score is sensitivity, |accumulated gradient * weight value|, with
the retained dense base weight as the value; the merged value is available
behind a flag, as is a plain |merged weight| magnitude criterion. Merged
values come from the training loop's cached masked base plus the event's
current entries, so an event never recomputes the base.

Adaptation continues the topology event on the ``delta.EditMap`` per tensor
that evolution edited. The scorer, the trim, the repair, its sacrifice and
the refill read the support as ``mask.bits | live`` and the current entries
through ``EditMap.gather``, and edit the same maps; the caller rebuilds each
tensor's entries once when the event ends. The trim also zeroes the cached
masked base at every coordinate whose mask bit it clears, so the base never
needs recomputing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .delta import EditMap, SparseDelta, TensorDelta, effective_weights, merged_support, top_k
from .delta import insert_entries, remove_entries  # noqa: F401  unused here; only bench/tracing.py patches them
from .pruning import Mask

log = logging.getLogger(__name__)

SOURCE_PRETRAINED = "pretrained"
SOURCE_MERGED = "merged"
SOURCES = (SOURCE_PRETRAINED, SOURCE_MERGED)
CRITERION_SENSITIVITY = "sensitivity"
CRITERION_MAGNITUDE = "magnitude"
CRITERIA = (CRITERION_SENSITIVITY, CRITERION_MAGNITUDE)


def keep_budget(numel: int, sparsity: float) -> int:
    """Active coordinates allowed per tensor: round((1 - sparsity) * numel)."""
    return int(np.floor((1.0 - sparsity) * numel + 0.5))


def support_coords(mask: Mask, entries: EditMap) -> np.ndarray:
    """Sorted coordinates of the merged support: the mask's bits or the map's live entries."""
    return (mask.bits.reshape(-1) | entries.live).nonzero()[0]


def compute_sensitivity(
    window: dict[str, np.ndarray],
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    edits: dict[str, EditMap],
    base: dict[str, np.ndarray],
    criterion: str = CRITERION_SENSITIVITY,
    source: str = SOURCE_PRETRAINED,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-tensor (support coordinates, scores) over the merged support; the one adaptation scorer.

    The sensitivity criterion scores |g * w|, where ``source`` selects ``w``:
    the retained dense base value, or the merged effective value. The
    magnitude criterion scores |merged value|, the classic dynamic-sparse
    criterion. Merged values are ``base``, the masked base of ``theta_dense``
    under ``masks``, plus the current entries on ``edits``, the event's maps
    over ``delta`` (grown entries are zero).
    """
    if criterion not in CRITERIA:
        raise ValueError(f"compute_sensitivity: unknown criterion {criterion!r}")
    if source not in SOURCES:
        raise ValueError(f"compute_sensitivity: unknown source {source!r}")
    merged = criterion == CRITERION_MAGNITUDE or source == SOURCE_MERGED
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, td in delta.slices.items():
        entries = edits[name]
        coords = support_coords(masks[name], entries)
        if coords.size == 0:
            raise ValueError(f"compute_sensitivity: empty support for {name}")
        if merged:
            current = TensorDelta(*entries.gather(td.values), dtype=td.values.dtype)
            w = effective_weights(base[name], current).reshape(-1)[coords].astype(np.float64)
        else:
            w = theta_dense[name].reshape(-1)[coords].astype(np.float64)
        if criterion == CRITERION_SENSITIVITY:
            w = window[name].reshape(-1)[coords] * w
        out[name] = (coords, np.abs(w))
    return out


def rebuild_mask(
    coords: np.ndarray,
    scores: np.ndarray,
    sparsity: float,
    mask: Mask,
    edits: EditMap,
    base: np.ndarray,
) -> tuple[int, int]:
    """Trim the support of one tensor to its keep budget by score rank.

    Keeps the highest-scoring coordinates (ties to lower index). Every removed
    coordinate loses its mask bit and any delta entry (dropped on ``edits``),
    and is zeroed in ``base``, the tensor's cached masked base; kept
    delta-only coordinates stay mask=0 with their entries intact. Returns
    (pruned_base, pruned_delta). A support already at or below budget is left
    untouched.
    """
    budget = keep_budget(mask.bits.size, sparsity)
    if coords.size <= budget:
        log.debug("rebuild_mask: %s support %d at or below keep budget %d", edits.name, coords.size, budget)
        return 0, 0
    kept = np.zeros(coords.size, dtype=bool)
    kept[top_k(scores, budget)] = True
    removed = coords[~kept]
    flat_bits = mask.bits.reshape(-1)
    pruned_base = int(flat_bits[removed].sum())
    flat_bits[removed] = False
    base.reshape(-1)[removed] = 0
    dead = removed[edits.live[removed]]
    edits.drop(dead)
    return pruned_base, int(dead.size)


def repair_support(
    window: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    edits: dict[str, EditMap],
    sparsity: float,
    restrict_to_mask: bool = False,
) -> int:
    """Refill tensors whose support fell under budget (dropped delta-only entries).

    New entries follow the growth ranking (largest |accumulated gradient|
    outside the support). When the global entry budget is exhausted, room is
    made by discarding the smallest-magnitude entries at coordinates the mask
    already covers, which leaves the support unchanged. Entry slots freed by
    the trim stage are refilled the same way at mask-covered coordinates, so
    the delta sits at its full budget between events. Edits go on each
    tensor's map in ``edits``, which already holds the event's drops and
    grows so far (evolution's, then the trim's drops); the support is
    ``mask.bits | live``, and the sacrifice candidates are the current
    entries, grown ones at value 0. Returns the number of repaired support
    coordinates.
    """
    repaired = 0
    for name, td in delta.slices.items():
        entries = edits[name]
        bits = masks[name].bits.reshape(-1)
        support = bits | entries.live
        deficit = keep_budget(bits.size, sparsity) - int(np.count_nonzero(support))
        if deficit > 0:
            flat = np.abs(window[name].reshape(-1))
            eligible = ~support
            if restrict_to_mask:
                eligible &= bits
            n_picks = min(deficit, int(np.count_nonzero(eligible)))
            if n_picks < deficit:
                log.warning("repair_support: %s lacks candidates for %d of %d repairs", name, deficit - n_picks, deficit)
            slack = delta.budgets[name] - entries.count
            overflow = n_picks - slack
            if overflow > 0:
                idx, values = entries.gather(td.values)
                covered = bits[idx]
                n_sac = min(overflow, int(covered.sum()))
                if n_sac < overflow:
                    log.warning(
                        "repair_support: %s entry budget exhausted, repairing %d of %d", name, slack + n_sac, n_picks
                    )
                    n_picks = slack + n_sac
                if n_sac > 0:
                    vals = np.abs(values.astype(np.float64))
                    vals[~covered] = np.inf  # only sacrifice entries the mask still covers
                    entries.drop(idx[top_k(-vals, n_sac)])
            entries.grow(top_k(flat, n_picks, eligible))
            repaired += n_picks
        free = delta.budgets[name] - entries.count
        if free > 0:
            # support-neutral refill: new entries only at mask-covered coordinates
            entries.grow(top_k(np.abs(window[name].reshape(-1)), free, bits & ~entries.live))
    return repaired


@dataclass
class AdaptationReport:
    pruned_base: int = 0
    pruned_delta: int = 0
    repaired: int = 0
    merged_sparsity: float = 0.0
    per_tensor_sparsity: dict[str, float] = field(default_factory=dict)


def adaptation_step(
    window: dict[str, np.ndarray],
    theta_dense: dict[str, np.ndarray],
    masks: dict[str, Mask],
    delta: SparseDelta,
    edits: dict[str, EditMap],
    sparsity: float,
    base: dict[str, np.ndarray],
    criterion: str = CRITERION_SENSITIVITY,
    source: str = SOURCE_PRETRAINED,
    restrict_to_mask: bool = False,
) -> AdaptationReport:
    """Trim every tensor's merged support back to the sparsity budget.

    Runs immediately after a drop/grow cycle on the same accumulated-gradient
    window and on the same maps, ``edits``, then repairs any under-budget
    tensors on them; the caller rebuilds each tensor's entries once after.
    ``base``, the ``pruning.masked_base`` of ``theta_dense`` under ``masks``,
    feeds the merged values of the scores and is kept in step with the trimmed
    masks in place.
    """
    scored = compute_sensitivity(window, theta_dense, masks, delta, edits, base, criterion=criterion, source=source)
    report = AdaptationReport()
    for name in delta.slices:
        coords, scores = scored[name]
        pb, pd = rebuild_mask(coords, scores, sparsity, masks[name], edits[name], base[name])
        report.pruned_base += pb
        report.pruned_delta += pd
    report.repaired = repair_support(window, masks, delta, edits, sparsity, restrict_to_mask)
    active = {name: int(np.count_nonzero(mask.bits.reshape(-1) | edits[name].live)) for name, mask in masks.items()}
    report.merged_sparsity, report.per_tensor_sparsity = _sparsity(masks, active)
    return report


def merged_support_sparsity(masks: dict[str, Mask], delta: SparseDelta | None) -> tuple[float, dict[str, float]]:
    """Global and per-tensor sparsity counting mask-or-delta coordinates as active."""
    slices = delta.slices if delta is not None else {}
    active = {name: int(np.count_nonzero(merged_support(mask.bits, slices.get(name)))) for name, mask in masks.items()}
    return _sparsity(masks, active)


def _sparsity(masks: dict[str, Mask], active: dict[str, int]) -> tuple[float, dict[str, float]]:
    """(global, per-tensor) sparsity of active counts: 1 - active/numel each, 1 - sum(active)/sum(numel) overall."""
    numel = {name: mask.bits.size for name, mask in masks.items()}
    per = {name: 1.0 - active[name] / numel[name] for name in masks}
    return 1.0 - sum(active.values()) / sum(numel.values()), per
