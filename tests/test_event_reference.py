"""The topology event against its per-edit reference, bitwise.

``evolve`` and ``adaptation_step`` edit each tensor's entries on one dense map
per event, and the entries are rebuilt once when the event ends. The
reference below is the earlier formulation: every drop and grow is its own
sorted merge of the index, value and moment arrays (``searchsorted`` plus
four copies), and every stage recomputes the support. It scores with its own formulas over an
``np.union1d`` support, not with the scorer under test. Both run the same
events on copies of random states, and every array, mask bit and report field
must match bit for bit.
"""

import copy
import dataclasses
import sys

import numpy as np
import pytest

from sparsevolve import train as train_mod
from sparsevolve.adaptation import (
    CRITERION_MAGNITUDE,
    CRITERION_SENSITIVITY,
    SOURCE_MERGED,
    SOURCE_PRETRAINED,
    AdaptationReport,
    adaptation_step,
    keep_budget,
)
from sparsevolve.delta import DenseAdamW, EditMap, SparseDelta, TensorDelta, top_k
from sparsevolve.evolution import (
    EvolutionReport,
    EvolutionSchedule,
    GradAccumulator,
    apportion,
    drop_quota,
    evolve,
    select_drop,
)
from sparsevolve.pruning import Mask, masked_base

# --- the reference: one sorted merge per edit ---


def ref_insert(delta, name, new, optim, seen):
    new = np.sort(np.asarray(new, dtype=np.int64))
    if new.size == 0:
        return
    td = delta.slices[name]
    pos = np.searchsorted(td.indices, new)
    inb = pos < len(td)
    assert not np.any(np.diff(new) == 0) and not np.any(td.indices[pos[inb]] == new[inb])
    seen["regrown"] += int(np.isin(new, list(seen["dropped"].get(name, ()))).sum())
    td.indices = np.insert(td.indices, pos, new)
    td.values = np.insert(td.values, pos, np.zeros(new.size, dtype=td.values.dtype))
    if optim is not None:
        optim.m[name] = np.insert(optim.m[name], pos, 0.0)
        optim.v[name] = np.insert(optim.v[name], pos, 0.0)


def ref_remove(delta, name, drop, optim, seen):
    drop = np.sort(np.asarray(drop, dtype=np.int64))
    if drop.size == 0:
        return
    td = delta.slices[name]
    pos = np.searchsorted(td.indices, drop)
    assert np.all(pos < len(td)) and np.all(td.indices[pos] == drop)
    seen["dropped"].setdefault(name, set()).update(drop.tolist())
    keep = np.ones(len(td), dtype=bool)
    keep[pos] = False
    td.indices, td.values = td.indices[keep], td.values[keep]
    if optim is not None:
        optim.m[name], optim.v[name] = optim.m[name][keep], optim.v[name][keep]


def ref_evolve(delta, optim, window, masks, schedule, step, seen):
    quota = min(drop_quota(step, schedule, delta.budget_total), delta.support_size())
    names = list(delta.slices)
    sizes = [len(delta.slices[n]) for n in names]
    report = EvolutionReport(quota=quota, dropped=0, grown=0, reactivations=0)
    for name, share in sorted(zip(names, apportion(quota, sizes))):
        td = delta.slices[name]
        bits = masks[name].bits.reshape(-1)
        dropped = select_drop(td, share)
        ref_remove(delta, name, dropped, optim, seen)
        eligible = np.ones(bits.size, dtype=bool)
        eligible[td.indices] = False
        if schedule.restrict_growth:
            eligible &= bits
        grown = top_k(np.abs(window[name].reshape(-1)), share, eligible)
        ref_insert(delta, name, grown, optim, seen)
        report.dropped += dropped.size
        report.grown += grown.size
        report.reactivations += int((~bits[grown]).sum())
        report.shortfall += share - grown.size
    return report


def ref_support(mask, td):
    return np.union1d(np.flatnonzero(mask.bits), td.indices)


def ref_scores(g, theta, mask, td, criterion, source):
    """(support, scores): |g*theta|, |g*merged| or |merged|, merged being theta where the mask holds, plus the delta."""
    coords = ref_support(mask, td)
    w = theta.reshape(-1)[coords]
    if criterion == CRITERION_MAGNITUDE or source == SOURCE_MERGED:
        w[~mask.bits.reshape(-1)[coords]] = 0
        w[np.searchsorted(coords, td.indices)] += td.values
    w = w.astype(np.float64)
    if criterion == CRITERION_SENSITIVITY:
        w = g.reshape(-1)[coords] * w
    return coords, np.abs(w)


def ref_adaptation_step(window, theta, masks, delta, optim, sparsity, criterion, source, restrict, seen):
    scored = {n: ref_scores(window[n], theta[n], masks[n], td, criterion, source) for n, td in delta.slices.items()}
    report = AdaptationReport()
    for name, td in delta.slices.items():
        coords, scores = scored[name]
        budget = keep_budget(masks[name].bits.size, sparsity)
        if coords.size <= budget:
            continue
        kept = np.zeros(coords.size, dtype=bool)
        kept[top_k(scores, budget)] = True
        removed = coords[~kept]
        flat_bits = masks[name].bits.reshape(-1)
        report.pruned_base += int(flat_bits[removed].sum())
        flat_bits[removed] = False
        dead = removed[np.isin(removed, td.indices, assume_unique=True)]
        ref_remove(delta, name, dead, optim, seen)
        report.pruned_delta += int(dead.size)
    for name, td in delta.slices.items():
        bits = masks[name].bits.reshape(-1)
        support = ref_support(masks[name], td)
        deficit = keep_budget(bits.size, sparsity) - support.size
        if deficit > 0:
            flat = np.abs(window[name].reshape(-1))
            eligible = np.ones(flat.size, dtype=bool)
            eligible[support] = False
            if restrict:
                eligible &= bits
            n_picks = min(deficit, int(np.count_nonzero(eligible)))
            slack = delta.budgets[name] - len(td)
            overflow = n_picks - slack
            if overflow > 0:
                covered = bits[td.indices]
                n_sac = min(overflow, int(covered.sum()))
                if n_sac < overflow:
                    n_picks = slack + n_sac
                if n_sac > 0:
                    seen["sacrificed"] += n_sac
                    vals = np.abs(td.values.astype(np.float64))
                    vals[~covered] = np.inf
                    ref_remove(delta, name, td.indices[top_k(-vals, n_sac)], optim, seen)
            ref_insert(delta, name, top_k(flat, n_picks, eligible), optim, seen)
            report.repaired += n_picks
        free = delta.budgets[name] - len(td)
        if free > 0:
            eligible = bits.copy()
            eligible[td.indices] = False
            ref_insert(delta, name, top_k(np.abs(window[name].reshape(-1)), free, eligible), optim, seen)
    total = active = 0
    for name, mask in masks.items():
        sup = ref_support(mask, delta.slices[name]).size
        report.per_tensor_sparsity[name] = 1.0 - sup / mask.bits.size
        total += mask.bits.size
        active += sup
    report.merged_sparsity = 1.0 - active / total
    return report


# --- random states ---

SHAPES = {"b": (6, 8), "a": (4, 12), "c": (9, 7)}  # not in name order: evolve sorts, the other stages do not


def random_state(rng, sparsity):
    """Masks and entries around the keep budget, so events trim, repair and fall short."""
    theta, masks, delta = {}, {}, SparseDelta({n: 1 for n in SHAPES}, dtype=np.float32)
    m, v = {}, {}
    for name, shape in SHAPES.items():
        numel = shape[0] * shape[1]
        theta[name] = rng.normal(size=shape).astype(np.float32)
        keep = keep_budget(numel, sparsity)
        support = np.sort(rng.choice(numel, size=min(numel, keep + int(rng.integers(-4, 5))), replace=False))
        entries = np.sort(rng.choice(support, size=int(rng.integers(1, support.size + 1)), replace=False))
        bits = np.zeros(numel, dtype=bool)
        bits[support] = True
        bits[entries[rng.random(entries.size) < rng.random()]] = False  # some entries delta-only
        masks[name] = Mask(name, bits.reshape(shape))
        vals = (rng.integers(-3, 4, size=entries.size) * 0.25).astype(np.float32)  # ties and zeros
        delta.slices[name] = TensorDelta(entries, vals)
        delta.budgets[name] = entries.size + int(rng.integers(0, 3))
        m[name] = rng.normal(size=entries.size)
        v[name] = rng.random(entries.size) + 0.5
    optim = DenseAdamW({name: (td, "values") for name, td in delta.slices.items()})
    optim.m.update(m)
    optim.v.update(v)
    optim.relayout()
    return theta, masks, delta, optim


def random_window(rng, delta):
    """Gradient sums with ties; the smallest entries often get large ones, so dropped coordinates regrow."""
    window = {}
    for name, shape in SHAPES.items():
        g = rng.integers(-3, 4, size=shape[0] * shape[1]).astype(np.float64)
        td = delta.slices[name]
        if len(td) and rng.random() < 0.7:
            g[td.indices[np.argsort(np.abs(td.values), kind="stable")[:2]]] = 9.0
        window[name] = g.reshape(shape)
    return window


def perturb(rng, delta, optim):
    """Stand-in for the steps between events: every value and moment moves."""
    for name, td in delta.slices.items():
        noise = rng.normal(size=len(td))
        td.values = (td.values + noise.astype(np.float32) * np.float32(0.5)).astype(np.float32)
        optim.m[name] = optim.m[name] + noise
        optim.v[name] = optim.v[name] + noise * noise


def assert_same(new, ref, where):
    (d1, o1, k1), (d2, o2, k2) = new, ref
    for name in SHAPES:
        for got, want in (
            (d1.slices[name].indices, d2.slices[name].indices),
            (d1.slices[name].values, d2.slices[name].values),
            (o1.m[name], o2.m[name]),
            (o1.v[name], o2.v[name]),
            (k1[name].bits, k2[name].bits),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape, (where, name)
            assert got.tobytes() == want.tobytes(), (where, name)


def report_fields(report):
    return repr(dataclasses.asdict(report))  # repr: floats compared to the last bit


CASES = [  # (restrict growth, criterion, source)
    (False, CRITERION_SENSITIVITY, SOURCE_PRETRAINED),
    (True, CRITERION_SENSITIVITY, SOURCE_PRETRAINED),
    (False, CRITERION_SENSITIVITY, SOURCE_MERGED),
    (True, CRITERION_MAGNITUDE, SOURCE_PRETRAINED),
    (False, CRITERION_MAGNITUDE, SOURCE_PRETRAINED),
]


def test_event_equals_the_per_edit_reference_bitwise():
    seen = {"events": 0, "regrown": 0, "sacrificed": 0, "shortfall": 0, "pruned_base": 0, "repaired": 0}
    for case, (restrict, criterion, source) in enumerate(CASES):
        rng = np.random.default_rng(case)
        schedule = EvolutionSchedule(drop_rate=0.45, total_steps=200, every=5, restrict_growth=restrict)
        regrown = seen["regrown"]
        for trial in range(10):
            sparsity = float(rng.uniform(0.3, 0.7))
            theta, masks, delta, optim = random_state(rng, sparsity)
            ref = copy.deepcopy((delta, optim, masks))
            base = masked_base(theta, masks)
            for step in (5, 10, 15):  # consecutive events on one state
                where = (case, trial, step)
                window = random_window(rng, delta)
                seen["dropped"] = {}
                acc = GradAccumulator(SHAPES)
                acc.accumulate(window)
                edits = {n: EditMap(n, td.indices, masks[n].bits.size) for n, td in delta.slices.items()}
                er = evolve(delta, edits, acc.sums, masks, schedule, step)
                ar = adaptation_step(acc.sums, theta, masks, delta, edits, sparsity, base, criterion, source, restrict)
                for entries in edits.values():
                    entries.rebuild(delta, optim)
                optim.relayout()
                ref_er = ref_evolve(*ref[:2], window, ref[2], schedule, step, seen)
                ref_ar = ref_adaptation_step(window, theta, ref[2], *ref[:2], sparsity, criterion, source, restrict, seen)
                assert report_fields(er) == report_fields(ref_er), where
                assert report_fields(ar) == report_fields(ref_ar), where
                assert_same((delta, optim, masks), ref, where)
                for name, b in masked_base(theta, masks).items():
                    assert base[name].tobytes() == b.tobytes(), (where, name)  # the trim patched the base
                seen["events"] += 1
                seen["shortfall"] += er.shortfall
                seen["pruned_base"] += ar.pruned_base
                seen["repaired"] += ar.repaired
                seed = int(rng.integers(2**32))
                perturb(np.random.default_rng(seed), delta, optim)
                perturb(np.random.default_rng(seed), *ref[:2])
        assert seen["regrown"] > regrown, f"case {case}: no dropped coordinate was regrown"
    assert seen["events"] >= 40
    for what in ("sacrificed", "shortfall", "pruned_base", "repaired"):
        assert seen[what] > 0, f"no event exercised {what}"


def test_cached_base_equals_a_fresh_masked_base_after_every_event(tmp_path, monkeypatch):
    # the trim zeroes the cached base where it clears mask bits; nothing recomputes it
    seen = {"checked": 0, "pruned_base": 0}
    real_prune, real_materialize = train_mod._prune, train_mod.materialize

    def prune(*args):
        seen["masks"], seen["theta"] = out = real_prune(*args)
        return out

    def materialize(tree, base, delta):
        fresh = masked_base(seen["theta"], seen["masks"])
        for name, b in fresh.items():
            assert base[name].tobytes() == b.tobytes(), (seen["checked"], name)
        seen["checked"] += 1
        real_materialize(tree, base, delta)

    def on_event(ev):
        seen["pruned_base"] += ev.adaptation.pruned_base

    monkeypatch.setattr(train_mod, "_prune", prune)
    monkeypatch.setattr(train_mod, "materialize", materialize)
    cfg = train_mod.TrainConfig(
        task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=1, rank=8,
        every=5, drop_rate=0.3, sparsity=0.6, steps=30, eval_every=0, out_dir=str(tmp_path),
    )
    train_mod.train(cfg, on_event=on_event)
    assert seen["checked"] == 1 + cfg.steps  # every event step's merge comes after its event
    assert seen["pruned_base"] > 0


@pytest.mark.parametrize(
    "criterion,source",
    [(CRITERION_SENSITIVITY, SOURCE_PRETRAINED), (CRITERION_SENSITIVITY, SOURCE_MERGED), (CRITERION_MAGNITUDE, SOURCE_PRETRAINED)],
)
def test_a_fine_tune_computes_the_masked_base_once(tmp_path, monkeypatch, criterion, source):
    # after pruning, the loop computes the base once; every event scores from that cache
    calls = []
    real_prune = train_mod._prune

    def prune(*args):
        out = real_prune(*args)
        calls.clear()  # applying the pruning masks is the pruning's own call
        return out

    for name, mod in list(sys.modules.items()):  # every binding of the name in the package
        if name.startswith("sparsevolve.") and hasattr(mod, "masked_base"):
            real = mod.masked_base
            monkeypatch.setattr(mod, "masked_base", lambda *args, real=real: calls.append(1) or real(*args))
    monkeypatch.setattr(train_mod, "_prune", prune)
    cfg = train_mod.TrainConfig(
        task="copy", vocab=32, dim=64, context=12, ff_mult=2, batch_size=2, grad_accum=1, rank=8, every=5,
        drop_rate=0.3, sparsity=0.6, steps=20, eval_every=0, adapt_criterion=criterion, adapt_source=source,
        out_dir=str(tmp_path),
    )
    events = []
    train_mod.train(cfg, on_event=events.append)
    assert len(events) == 4
    assert len(calls) == 1
