"""Drop/grow evolution of the sparse-delta support.

Every k steps the entries with the smallest update magnitudes are dropped and
the same number of new entries is grown at the coordinates with the largest
accumulated-gradient magnitudes. Growth may reactivate masked (pruned base)
coordinates unless the run is structured or mask-constrained. The per-cycle
turnover follows a cosine decay of the initial drop rate over the run.

Each tensor's drops and grows are edits on the event's dense
``delta.EditMap``: a drop clears live bits, a grow sets live and reset bits
(so a dropped coordinate that is regrown restarts from zero value and zero
moments). The tensor's arrays are not touched: sparsity adaptation goes on
editing the same maps, and one rebuild per tensor ends the event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delta import EditMap, SparseDelta, TensorDelta, top_k
from .delta import insert_entries, remove_entries  # noqa: F401  unused here; only bench/tracing.py patches them
from .pruning import Mask


@dataclass
class EvolutionSchedule:
    drop_rate: float = 0.2
    total_steps: int = 1000
    every: int = 10
    restrict_growth: bool = False  # growth stays in the mask support: N:M safety, or the constrained ablation
    cosine: bool = True

    def __post_init__(self):
        if not 0.0 < self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in (0, 1), got {self.drop_rate}")
        if self.every < 1 or self.total_steps < 1:
            raise ValueError(f"invalid schedule: every={self.every}, total_steps={self.total_steps}")


def drop_quota(step: int, schedule: EvolutionSchedule, budget: int) -> int:
    """Number of entries to drop (and grow) at this step.

    Cosine decay: round(drop_rate/2 * (1 + cos(pi*step/total)) * budget),
    so the quota starts at drop_rate*budget and reaches zero at the end.
    """
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"drop_quota: step {step} outside [0, {schedule.total_steps}]")
    if schedule.cosine:
        frac = 0.5 * schedule.drop_rate * (1.0 + math.cos(math.pi * step / schedule.total_steps))
    else:
        frac = schedule.drop_rate
    return int(math.floor(frac * budget + 0.5))


class GradAccumulator:
    """Dense sum of gradients per tensor since the last topology update.

    The sums are the window an event reads; the training loop zeroes them in
    place once the event is over.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.sums: dict[str, np.ndarray] = {n: np.zeros(s, dtype=np.float64) for n, s in shapes.items()}

    def accumulate(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            acc = self.sums[name]
            if g.shape != acc.shape:
                raise ValueError(f"accumulate: grad shape {g.shape} != {acc.shape} for {name}")
            acc += g


def select_drop(td: TensorDelta, count: int) -> np.ndarray:
    """Coordinates of the ``count`` entries with smallest |value|, ties to lower index."""
    if count > len(td):
        raise ValueError(f"select_drop: count {count} exceeds support {len(td)}")
    return td.indices[top_k(-np.abs(td.values), count)]


def select_grow(
    acc: np.ndarray,
    live: np.ndarray,
    mask_bits: np.ndarray | None,
    count: int,
    restrict_to_mask: bool = False,
) -> tuple[np.ndarray, int]:
    """Coordinates with the largest |accumulated gradient| outside the active set.

    ``live`` is the bitmap of coordinates that hold a delta entry (shaped like
    ``acc`` or flat). Masked coordinates are eligible (reactivation) unless
    ``restrict_to_mask``. Returns (sorted coordinates, shortfall) where
    shortfall counts how many of the requested entries had no eligible
    candidate.
    """
    flat = np.abs(acc.reshape(-1))
    eligible = ~live.reshape(-1)
    if restrict_to_mask:
        if mask_bits is None:
            raise ValueError("select_grow: mask required when growth is restricted")
        eligible &= mask_bits.reshape(-1)
    picks = top_k(flat, count, eligible)
    return picks, int(count - picks.size)


@dataclass
class EvolutionReport:
    quota: int
    dropped: int
    grown: int
    reactivations: int
    shortfall: int = 0

    @property
    def reactivation_fraction(self) -> float:
        return self.reactivations / self.grown if self.grown else 0.0


def apportion(total: int, sizes: list[int]) -> list[int]:
    """Split ``total`` proportionally to ``sizes``; no slot gets more than its size.

    Largest-remainder rounding: every slot gets the floor of its exact share,
    and the ``total - sum(floors)`` slots with the largest remainders one more,
    ties by slot order. A slot gets one more only when its share has a
    fractional part, so with ``total <= sum(sizes)`` it stays within its size.
    """
    weight = sum(sizes)
    if not 0 <= total <= weight:
        raise ValueError(f"apportion: total {total} outside [0, {weight}]")
    if total == 0:
        return [0] * len(sizes)
    exact = [total * s / weight for s in sizes]
    out = [math.floor(e) for e in exact]
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - out[i]), i))
    for i in order[: total - sum(out)]:
        out[i] += 1
    return out


def evolve(
    delta: SparseDelta,
    edits: dict[str, EditMap],
    window: dict[str, np.ndarray],
    masks: dict[str, Mask],
    schedule: EvolutionSchedule,
    step: int,
) -> EvolutionReport:
    """One drop-then-grow cycle, growing from ``window``, the accumulated gradients.

    The global quota is apportioned per tensor proportionally to its current
    support. Dropped coordinates remain eligible for an immediate regrow, with
    zero value and zero moments. The edits go on each tensor's map in
    ``edits``, built from the delta's entries at the start of the event; the
    caller rebuilds the entries once the event is over. The window is only
    read: the sparsity-adaptation stage reuses it, and the caller resets it
    after the event.
    """
    if step % schedule.every != 0:
        raise ValueError(f"evolve: step {step} is not a multiple of every={schedule.every}")
    quota = min(drop_quota(step, schedule, delta.budget_total), delta.support_size())
    names = list(delta.slices)
    sizes = [len(delta.slices[n]) for n in names]
    shares = apportion(quota, sizes)
    report = EvolutionReport(quota=quota, dropped=0, grown=0, reactivations=0)
    for name, share in sorted(zip(names, shares)):
        bits = masks[name].bits
        entries = edits[name]
        dropped = select_drop(delta.slices[name], share)
        entries.drop(dropped)
        grown, shortfall = select_grow(window[name], entries.live, bits, share, schedule.restrict_growth)
        entries.grow(grown)
        react = int((~bits.reshape(-1)[grown]).sum())
        report.dropped += dropped.size
        report.grown += grown.size
        report.reactivations += react
        report.shortfall += shortfall
    return report
