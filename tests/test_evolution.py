import numpy as np
import pytest

from sparsevolve.delta import DenseAdamW, EditMap, SparseDelta, TensorDelta, insert_entries, remove_entries
from sparsevolve.evolution import (
    EvolutionSchedule,
    GradAccumulator,
    apportion,
    drop_quota,
    evolve,
    select_drop,
    select_grow,
)
from sparsevolve.pruning import Mask


def make_delta(entries: dict[str, tuple], budgets=None, dtype=np.float64):
    budgets = budgets or {n: len(e[0]) for n, e in entries.items()}
    d = SparseDelta(budgets, dtype=dtype)
    for n, (idx, vals) in entries.items():
        d.slices[n] = TensorDelta(np.asarray(idx), np.asarray(vals, dtype=dtype), dtype=dtype)
    return d


def evolve_and_rebuild(delta, optim, window, masks, schedule, step):
    """``evolve`` on fresh edit maps, each rebuilt once after, as the training loop runs an event."""
    edits = {n: EditMap(n, td.indices, masks[n].bits.size) for n, td in delta.slices.items()}
    report = evolve(delta, edits, window, masks, schedule, step)
    for entries in edits.values():
        entries.rebuild(delta, optim)
    if optim is not None:
        optim.relayout()
    return report


def live(indices, numel):
    """The live-entry bitmap ``select_grow`` reads: True at the delta's coordinates."""
    out = np.zeros(numel, dtype=bool)
    out[np.asarray(indices, dtype=np.int64)] = True
    return out


# --- quota schedule ---


def test_quota_start_is_drop_rate_times_budget():
    sched = EvolutionSchedule(drop_rate=0.2, total_steps=1000, every=10)
    assert drop_quota(0, sched, 1000) == 200


def test_quota_end_is_zero():
    sched = EvolutionSchedule(drop_rate=0.2, total_steps=1000)
    assert drop_quota(1000, sched, 1000) == 0


def test_quota_midpoint_is_half():
    sched = EvolutionSchedule(drop_rate=0.2, total_steps=1000)
    assert drop_quota(500, sched, 1000) == 100


def test_quota_monotone_non_increasing():
    sched = EvolutionSchedule(drop_rate=0.3, total_steps=500)
    vals = [drop_quota(t, sched, 3333) for t in range(0, 501, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_quota_constant_without_cosine():
    sched = EvolutionSchedule(drop_rate=0.25, total_steps=100, cosine=False)
    assert drop_quota(0, sched, 400) == drop_quota(90, sched, 400) == 100


def test_quota_rejects_out_of_range_step():
    sched = EvolutionSchedule(total_steps=10)
    with pytest.raises(ValueError):
        drop_quota(11, sched, 100)


def test_schedule_validation():
    with pytest.raises(ValueError):
        EvolutionSchedule(drop_rate=0.0)
    with pytest.raises(ValueError):
        EvolutionSchedule(every=0)


# --- accumulator ---


def test_accumulate_cancellation():
    acc = GradAccumulator({"t": (2, 2)})
    g = np.ones((2, 2))
    acc.accumulate({"t": g})
    acc.accumulate({"t": -g})
    np.testing.assert_array_equal(acc.sums["t"], 0.0)


def test_accumulate_k_constant_steps():
    acc = GradAccumulator({"t": (3,)})
    for _ in range(5):
        acc.accumulate({"t": np.array([1.0, -2.0, 0.5])})
    np.testing.assert_allclose(acc.sums["t"], [5.0, -10.0, 2.5])


def test_accumulate_matches_running_sum_oracle():
    rng = np.random.default_rng(2)
    acc = GradAccumulator({"t": (4, 3)})
    total = np.zeros((4, 3))
    for _ in range(20):
        g = rng.normal(size=(4, 3))
        acc.accumulate({"t": g})
        total += g
    np.testing.assert_allclose(acc.sums["t"], total)


def test_accumulate_shape_mismatch():
    acc = GradAccumulator({"t": (2, 2)})
    with pytest.raises(ValueError, match="shape"):
        acc.accumulate({"t": np.zeros(3)})


# --- selection ---


def test_select_drop_spec_instance():
    td = TensorDelta([10, 20, 30, 40], np.array([0.5, -0.01, 0.3, 0.002]), dtype=np.float64)
    np.testing.assert_array_equal(select_drop(td, 2), [20, 40])


def test_select_drop_zero_count():
    td = TensorDelta([1], np.array([1.0]), dtype=np.float64)
    assert select_drop(td, 0).size == 0


def test_select_drop_ties_prefer_lower_index():
    td = TensorDelta([5, 9, 11], np.array([0.5, 0.5, 0.5]), dtype=np.float64)
    np.testing.assert_array_equal(select_drop(td, 2), [5, 9])


def test_select_drop_count_exceeds_support():
    td = TensorDelta([1], np.array([1.0]), dtype=np.float64)
    with pytest.raises(ValueError):
        select_drop(td, 2)


def test_select_grow_spec_instance():
    acc = np.array([9.0, 1.0, 5.0, 7.0])
    grown, short = select_grow(acc, live([0], 4), None, 2)
    np.testing.assert_array_equal(grown, [2, 3])
    assert short == 0


def test_select_grow_structured_forces_mask():
    acc = np.array([9.0, 1.0, 5.0, 7.0])
    bits = np.array([False, True, False, False])
    grown, short = select_grow(acc, live([], 4), bits, 1, restrict_to_mask=True)
    np.testing.assert_array_equal(grown, [1])


def test_select_grow_all_zero_ties_lowest_indices():
    grown, _ = select_grow(np.zeros(6), live([], 6), None, 2)
    np.testing.assert_array_equal(grown, [0, 1])


def test_select_grow_shortfall():
    grown, short = select_grow(np.ones(3), live([0, 1], 3), None, 3)
    np.testing.assert_array_equal(grown, [2])
    assert short == 2


def brute_force_drop(indices, values, count):
    order = sorted(range(len(indices)), key=lambda i: (abs(values[i]), indices[i]))
    return sorted(indices[i] for i in order[:count])


def brute_force_grow(acc_flat, active, bits, count, restrict):
    active = set(active.tolist())
    cands = []
    for i, a in enumerate(np.abs(acc_flat)):
        if i in active:
            continue
        if restrict and not bits[i]:
            continue
        cands.append((-a, i))
    cands.sort()
    return sorted(i for _, i in cands[:count])


def test_selection_matches_brute_force_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        numel = int(rng.integers(4, 64))
        support = int(rng.integers(1, numel + 1))
        idx = np.sort(rng.choice(numel, size=support, replace=False))
        vals = rng.integers(-3, 4, size=support).astype(float)  # ties likely
        td = TensorDelta(idx, vals, dtype=np.float64)
        count = int(rng.integers(0, support + 1))
        np.testing.assert_array_equal(select_drop(td, count), brute_force_drop(idx, vals, count))

        acc = rng.integers(-3, 4, size=numel).astype(float)
        bits = rng.random(numel) < 0.5
        restrict = bool(rng.integers(0, 2))
        want = brute_force_grow(acc, idx, bits, count, restrict)
        got, short = select_grow(acc, live(idx, numel), bits, count, restrict)
        np.testing.assert_array_equal(got, want)
        assert short == count - len(want)


# --- apportion ---


def test_apportion_exact_and_capped():
    assert apportion(10, [50, 50]) == [5, 5]
    assert apportion(10, [90, 10]) == [9, 1]
    assert apportion(0, [5, 5]) == [0, 0]
    assert sum(apportion(7, [3, 3, 3])) == 7


def test_apportion_deterministic_tie_order():
    a = apportion(1, [5, 5])
    assert a == [1, 0]


@pytest.mark.parametrize("total", [-1, 11])
def test_apportion_refuses_a_total_outside_zero_to_the_sizes_sum(total):
    with pytest.raises(ValueError, match="outside"):
        apportion(total, [5, 5])


# --- evolve ---


def test_evolve_budget_conservation_randomized():
    rng = np.random.default_rng(19)
    for trial in range(100):
        numel = int(rng.integers(32, 256))
        support = int(rng.integers(8, numel // 2))
        idx = np.sort(rng.choice(numel, size=support, replace=False))
        vals = rng.normal(size=support)
        d = make_delta({"a": (idx, vals)})
        opt = DenseAdamW({"a": (d.slices["a"], "values")})
        acc = GradAccumulator({"a": (numel,)})
        acc.accumulate({"a": rng.normal(size=numel)})
        masks = {"a": Mask("a", (rng.random(numel) < 0.5).reshape(1, -1))}
        sched = EvolutionSchedule(drop_rate=rng.uniform(0.05, 0.5), total_steps=100, every=10)
        step = int(rng.integers(1, 10)) * 10
        before = d.support_size()
        report = evolve_and_rebuild(d, opt, acc.sums, masks, sched, step)
        assert d.support_size() == before
        assert report.dropped == report.grown == report.quota
        td = d.slices["a"]
        assert np.all(np.diff(td.indices) > 0)


def test_evolve_zero_quota_leaves_entries_and_window():
    d = make_delta({"a": (np.array([1, 2]), np.array([1.0, 2.0]))})
    window = {"a": np.ones(8)}
    sched = EvolutionSchedule(drop_rate=0.2, total_steps=10, every=10)
    report = evolve_and_rebuild(d, None, window, {"a": Mask("a", np.ones((1, 8), bool))}, sched, 10)  # cos(pi)=-1
    assert report.quota == 0
    np.testing.assert_array_equal(d.slices["a"].indices, [1, 2])
    np.testing.assert_array_equal(window["a"], 1.0)  # only read: the training loop resets it


def test_evolve_requires_cycle_boundary():
    d = make_delta({"a": (np.array([0]), np.array([1.0]))})
    acc = GradAccumulator({"a": (4,)})
    sched = EvolutionSchedule(every=10, total_steps=100)
    with pytest.raises(ValueError, match="multiple"):
        evolve_and_rebuild(d, None, acc.sums, {"a": Mask("a", np.ones((1, 4), bool))}, sched, 7)


def test_evolve_matches_sequential_reference():
    # full evolve vs hand-sequenced select_drop/remove/select_grow/insert
    rng = np.random.default_rng(23)
    numel = 64
    idx = np.sort(rng.choice(numel, size=16, replace=False))
    vals = rng.normal(size=16)
    grads = rng.normal(size=numel)
    bits = (rng.random(numel) < 0.5).reshape(4, 16)

    d1 = make_delta({"a": (idx, vals)})
    acc = GradAccumulator({"a": (numel,)})
    acc.accumulate({"a": grads.copy()})
    sched = EvolutionSchedule(drop_rate=0.25, total_steps=100, every=10)
    report = evolve_and_rebuild(d1, None, acc.sums, {"a": Mask("a", bits)}, sched, 10)

    d2 = make_delta({"a": (idx, vals)})
    quota = drop_quota(10, sched, 16)
    dropped = select_drop(d2.slices["a"], quota)
    remove_entries(d2, "a", dropped)
    grown, _ = select_grow(grads, live(d2.slices["a"].indices, numel), bits, quota)
    insert_entries(d2, "a", grown)

    np.testing.assert_array_equal(d1.slices["a"].indices, d2.slices["a"].indices)
    np.testing.assert_array_equal(d1.slices["a"].values, d2.slices["a"].values)
    assert report.quota == quota


def test_dropped_coordinate_may_regrow_immediately():
    # entry 3 has the smallest value but towers in accumulated gradient
    d = make_delta({"a": (np.array([3, 7]), np.array([1e-6, 5.0]))})
    acc = GradAccumulator({"a": (10,)})
    g = np.zeros(10)
    g[3] = 100.0
    acc.accumulate({"a": g})
    sched = EvolutionSchedule(drop_rate=0.5, total_steps=200, every=10, cosine=False)
    report = evolve_and_rebuild(d, None, acc.sums, {"a": Mask("a", np.ones((1, 10), bool))}, sched, 10)
    assert report.quota == 1
    assert 3 in d.slices["a"].indices.tolist()


def test_structured_growth_stays_in_mask():
    rng = np.random.default_rng(29)
    bits = (rng.random(32) < 0.4).reshape(2, 16)
    active = np.flatnonzero(bits.reshape(-1))[:4]
    d = make_delta({"a": (active, rng.normal(size=4))})
    sched = EvolutionSchedule(drop_rate=0.5, total_steps=100, every=5, restrict_growth=True)
    for step in range(5, 55, 5):
        acc = GradAccumulator({"a": (32,)})
        acc.accumulate({"a": rng.normal(size=32)})
        evolve_and_rebuild(d, None, acc.sums, {"a": Mask("a", bits)}, sched, step % 100)
        assert bits.reshape(-1)[d.slices["a"].indices].all()


def test_reactivation_fraction_counts_masked_grows():
    bits = np.zeros(8, dtype=bool)
    bits[:2] = True  # coords 0,1 active; rest masked
    d = make_delta({"a": (np.array([0]), np.array([1e-9]))})
    acc = GradAccumulator({"a": (8,)})
    g = np.zeros(8)
    g[5] = 10.0
    acc.accumulate({"a": g})
    sched = EvolutionSchedule(drop_rate=0.9, total_steps=1000, every=10, cosine=False)
    report = evolve_and_rebuild(d, None, acc.sums, {"a": Mask("a", bits.reshape(1, -1))}, sched, 10)
    assert report.grown == 1 and report.reactivations == 1
    assert report.reactivation_fraction == 1.0
