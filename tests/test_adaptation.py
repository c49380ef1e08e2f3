import numpy as np
import pytest

from sparsevolve.adaptation import (
    adaptation_step,
    compute_sensitivity,
    keep_budget,
    merged_support_sparsity,
    rebuild_mask,
    repair_support,
    support_coords,
)
from sparsevolve.delta import DenseAdamW, EditMap, SparseDelta, TensorDelta, insert_entries, remove_entries
from sparsevolve.pruning import Mask, masked_base


def state(numel, mask_coords, delta_coords, delta_vals, theta=None, budget=None, shape=None):
    shape = shape or (1, numel)
    bits = np.zeros(numel, dtype=bool)
    bits[list(mask_coords)] = True
    mask = Mask("t", bits.reshape(shape))
    d = SparseDelta({"t": budget or max(len(delta_coords), 1)})
    d.slices["t"] = TensorDelta(np.asarray(delta_coords, dtype=np.int64), np.asarray(delta_vals, dtype=np.float32))
    theta = theta if theta is not None else np.arange(1, numel + 1, dtype=np.float64).reshape(shape)
    return theta, mask, d


def edit_maps(d, masks):
    return {n: EditMap(n, td.indices, masks[n].bits.size) for n, td in d.slices.items()}


def support_of(mask, td):
    """``support_coords`` over a fresh edit map of ``td``'s entries."""
    return support_coords(mask, EditMap(mask.name, td.indices, mask.bits.size))


def base_of(theta, mask):
    return masked_base({"t": theta}, {"t": mask})


def scores_of(window, theta, mask, d, **kw):
    edits = edit_maps(d, {"t": mask})
    return compute_sensitivity(window, {"t": theta}, {"t": mask}, d, edits, base_of(theta, mask), **kw)


def adapt(window, theta, mask, d, optim, sparsity, **kw):
    """``adaptation_step`` on fresh edit maps, rebuilt straight after, as one event."""
    edits = edit_maps(d, {"t": mask})
    report = adaptation_step(window, {"t": theta}, {"t": mask}, d, edits, sparsity, base_of(theta, mask), **kw)
    for entries in edits.values():
        entries.rebuild(d, optim)
    if optim is not None:
        optim.relayout()
    return report


def trim_and_rebuild(coords, scores, sparsity, mask, d, theta, base=None):
    """``rebuild_mask`` on a fresh edit map, rebuilt straight after, as a whole event.

    ``base`` is the tensor's cached masked base; a fresh one of ``theta`` by default.
    """
    edits = edit_maps(d, {"t": mask})["t"]
    base = base_of(theta, mask)["t"] if base is None else base
    out = rebuild_mask(coords, scores, sparsity, mask, edits, base)
    edits.rebuild(d)
    return out


def repair_and_rebuild(window, masks, d, optim, sparsity, restrict_to_mask=False):
    """``repair_support`` on fresh edit maps, rebuilt straight after, as a whole event."""
    edits = edit_maps(d, masks)
    repaired = repair_support(window, masks, d, edits, sparsity, restrict_to_mask)
    for entries in edits.values():
        entries.rebuild(d, optim)
    if optim is not None:
        optim.relayout()
    return repaired


def test_sensitivity_hand_product():
    theta, mask, d = state(3, [0, 1, 2], [], [], theta=np.array([[2.0, -1.0, 0.5]]))
    window = {"t": np.array([[0.1, 1.0, -0.2]])}
    scored = scores_of(window, theta, mask, d)
    coords, s = scored["t"]
    np.testing.assert_array_equal(coords, [0, 1, 2])
    np.testing.assert_allclose(s, [0.2, 1.0, 0.1])


def test_sensitivity_zero_gradient_zero_score():
    theta, mask, d = state(2, [0, 1], [], [], theta=np.array([[5.0, 5.0]]))
    scored = scores_of({"t": np.array([[0.0, 3.0]])}, theta, mask, d)
    assert scored["t"][1][0] == 0.0


def test_sensitivity_zero_weight_zero_score():
    theta, mask, d = state(2, [0, 1], [], [], theta=np.array([[0.0, 1.0]]))
    scored = scores_of({"t": np.array([[9.0, 9.0]])}, theta, mask, d)
    assert scored["t"][1][0] == 0.0


def test_sensitivity_merged_source_uses_effective_value():
    # masked coordinate with a delta entry: merged value is the delta value alone
    theta, mask, d = state(2, [1], [0], [0.5], theta=np.array([[4.0, 1.0]]))
    window = {"t": np.array([[1.0, 1.0]])}
    merged = scores_of(window, theta, mask, d, source="merged")
    pretrained = scores_of(window, theta, mask, d, source="pretrained")
    np.testing.assert_allclose(merged["t"][1], [0.5, 1.0])
    np.testing.assert_allclose(pretrained["t"][1], [4.0, 1.0])


def test_sensitivity_empty_support_errors():
    theta, mask, d = state(2, [], [], [])
    with pytest.raises(ValueError, match="empty support"):
        scores_of({"t": np.zeros((1, 2))}, theta, mask, d)


def test_magnitude_scores_use_merged_weight():
    theta, mask, d = state(3, [0, 1], [2], [0.25], theta=np.array([[3.0, -2.0, 9.0]]))
    scored = scores_of({"t": np.zeros((1, 3))}, theta, mask, d, criterion="magnitude")
    np.testing.assert_allclose(scored["t"][1], [3.0, 2.0, 0.25])


def test_support_is_union():
    theta, mask, d = state(6, [0, 3], [3, 5], [0.1, 0.2])
    np.testing.assert_array_equal(support_of(mask, d.slices["t"]), [0, 3, 5])


# --- rebuild ---


def test_rebuild_keeps_top_four_of_ten():
    theta, mask, d = state(10, range(10), [], [])
    scores = np.array([9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 0.0])
    coords = support_of(mask, d.slices["t"])
    pb, pd = trim_and_rebuild(coords, scores, 0.6, mask, d, theta)
    assert keep_budget(10, 0.6) == 4
    np.testing.assert_array_equal(np.flatnonzero(mask.bits), [0, 2, 4, 6])
    assert pb == 6 and pd == 0


def test_rebuild_matches_sort_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(200):
        numel = int(rng.integers(6, 64))
        sparsity = float(rng.uniform(0.1, 0.9))
        mask_coords = np.flatnonzero(rng.random(numel) < 0.6)
        extra = np.setdiff1d(np.arange(numel), mask_coords)
        n_delta = int(rng.integers(0, max(1, extra.size)))
        delta_coords = np.sort(rng.choice(extra, size=n_delta, replace=False)) if n_delta else []
        theta, mask, d = state(numel, mask_coords, delta_coords, np.ones(len(delta_coords)))
        coords = support_of(mask, d.slices["t"])
        if coords.size == 0:
            continue
        scores = rng.integers(0, 5, size=coords.size).astype(float)
        budget = keep_budget(numel, sparsity)
        # oracle: full sort by (-score, coord)
        order = sorted(range(coords.size), key=lambda i: (-scores[i], coords[i]))
        expect_keep = sorted(coords[i] for i in order[:budget]) if coords.size >= budget else sorted(coords)
        trim_and_rebuild(coords, scores, sparsity, mask, d, theta)
        got = support_of(mask, d.slices["t"])
        np.testing.assert_array_equal(got, expect_keep)


def test_rebuild_removed_coordinate_loses_both():
    theta, mask, d = state(4, [0, 1], [1, 2], [0.5, 0.75], budget=2)
    coords = support_of(mask, d.slices["t"])  # 0,1,2
    scores = np.array([5.0, 0.1, 4.0])  # coordinate 1 is weakest
    pb, pd = trim_and_rebuild(coords, scores, 0.5, mask, d, theta)  # keep 2
    assert pb == 1 and pd == 1
    np.testing.assert_array_equal(np.flatnonzero(mask.bits), [0])
    np.testing.assert_array_equal(d.slices["t"].indices, [2])


def test_rebuild_zeroes_the_cached_base_where_it_clears_bits():
    theta, mask, d = state(6, [0, 1, 2, 3], [1, 5], [0.5, 0.75], budget=2)
    base = base_of(theta, mask)["t"]
    coords = support_of(mask, d.slices["t"])  # 0,1,2,3,5
    pb, pd = trim_and_rebuild(coords, np.array([5.0, 0.1, 4.0, 0.2, 3.0]), 0.5, mask, d, theta, base=base)
    assert pb == 2 and pd == 1  # bits 1 and 3 cleared; entry 1 dropped
    assert base.tobytes() == base_of(theta, mask)["t"].tobytes()


def test_rebuild_kept_delta_only_coordinate_stays_unmasked():
    theta, mask, d = state(4, [0], [3], [9.0], budget=1)
    coords = support_of(mask, d.slices["t"])  # 0,3
    scores = np.array([1.0, 2.0])
    trim_and_rebuild(coords, scores, 0.5, mask, d, theta)  # keep both
    assert not mask.bits.reshape(-1)[3]
    np.testing.assert_array_equal(d.slices["t"].indices, [3])


def test_rebuild_below_budget_is_noop_logged_at_debug(caplog):
    theta, mask, d = state(10, [0, 1], [], [])
    coords = support_of(mask, d.slices["t"])
    with caplog.at_level("DEBUG", logger="sparsevolve.adaptation"):
        pb, pd = trim_and_rebuild(coords, np.ones(2), 0.6, mask, d, theta)
    assert pb == pd == 0
    assert [r.levelname for r in caplog.records] == ["DEBUG"]  # normal after drops: no WARNING
    assert "below keep budget" in caplog.text
    np.testing.assert_array_equal(np.flatnonzero(mask.bits), [0, 1])


def test_adaptation_repairs_under_budget_tensors():
    theta, mask, d = state(10, [0, 1], [5], [0.5], budget=4)  # support 3, keep budget 5
    window = {"t": np.arange(10, dtype=np.float64).reshape(1, 10)}
    rep = adapt(window, theta, mask, d, None, 0.5)
    assert rep.repaired == 2
    theta, mask, d = state(10, range(5), [6], [0.5], budget=1)  # support 6: trimmed, not repaired
    assert adapt(window, theta, mask, d, None, 0.5).repaired == 0


def test_rebuild_never_creates_support():
    rng = np.random.default_rng(9)
    for _ in range(50):
        numel = 32
        mask_coords = np.flatnonzero(rng.random(numel) < 0.5)
        theta, mask, d = state(numel, mask_coords, [], [])
        coords = support_of(mask, d.slices["t"])
        if coords.size == 0:
            continue
        before = set(coords.tolist())
        trim_and_rebuild(coords, rng.normal(size=coords.size) ** 2, 0.7, mask, d, theta)
        after = set(support_of(mask, d.slices["t"]).tolist())
        assert after <= before


def test_grown_coordinates_survive_weak_base_pruned():
    # constructed recovery instance: reactivated coords score above the weakest base
    theta = np.array([[10.0, 0.01, 0.02, 9.0]])
    mask_coords = [0, 1, 2]
    theta_d, mask, d = state(4, mask_coords, [3], [0.5], theta=theta, budget=1)
    window = {"t": np.array([[1.0, 1.0, 1.0, 1.0]])}
    scored = scores_of(window, theta, mask, d)
    coords, scores = scored["t"]
    trim_and_rebuild(coords, scores, 0.5, mask, d, theta)  # keep 2 of 4
    kept = support_of(mask, d.slices["t"])
    np.testing.assert_array_equal(kept, [0, 3])  # reactivated 3 survives, weak base 1,2 pruned
    assert 3 in d.slices["t"].indices


# --- repair ---


def test_repair_refills_under_budget_support():
    theta, mask, d = state(10, [0, 1], [5], [0.5], budget=4)
    window = {"t": np.arange(10, dtype=np.float64).reshape(1, 10)}
    repaired = repair_and_rebuild(window, {"t": mask}, d, None, 0.5)  # keep budget 5, support 3
    assert repaired == 2
    got = support_of(mask, d.slices["t"])
    np.testing.assert_array_equal(got, [0, 1, 5, 8, 9])  # largest |window| outside support


def test_repair_swaps_when_entry_budget_full():
    # budget 2, both entries in use; one entry sits on a mask-covered coordinate
    theta, mask, d = state(8, [0, 1, 2], [1, 6], [1e-6, 2.0], budget=2)
    window = {"t": np.array([[0.0, 0.0, 0.0, 5.0, 4.0, 0.0, 0.0, 0.0]])}
    repaired = repair_and_rebuild(window, {"t": mask}, d, None, 0.25)  # keep budget 6, support 4
    # only the mask-covered entry may be sacrificed, so exactly one swap lands
    assert repaired == 1
    td = d.slices["t"]
    assert len(td) == 2  # entry budget still respected
    assert 6 in td.indices  # off-mask entry was not sacrificed
    got = support_of(mask, td)
    np.testing.assert_array_equal(got, [0, 1, 2, 3, 6])


def test_repair_swap_full_when_all_entries_covered():
    theta, mask, d = state(8, [0, 1, 2], [1, 2], [1e-6, 2.0], budget=2)
    window = {"t": np.array([[0.0, 0.0, 0.0, 5.0, 4.0, 0.0, 0.0, 0.0]])}
    repaired = repair_and_rebuild(window, {"t": mask}, d, None, 0.375)  # keep budget 5, support 3
    assert repaired == 2
    np.testing.assert_array_equal(support_of(mask, d.slices["t"]), [0, 1, 2, 3, 4])
    assert len(d.slices["t"]) == 2


def test_repair_noop_when_at_budget():
    theta, mask, d = state(4, [0, 1], [], [])
    window = {"t": np.ones((1, 4))}
    assert repair_and_rebuild(window, {"t": mask}, d, None, 0.5) == 0


def reference_repair(window, masks, delta, optim, sparsity, restrict_to_mask=False):
    """Full-sort repair: stable argsort rankings, picks truncated in rank order."""
    repaired = 0
    for name, td in delta.slices.items():
        bits = masks[name].bits.reshape(-1)
        support = np.union1d(np.flatnonzero(bits), td.indices)
        deficit = keep_budget(bits.size, sparsity) - support.size
        flat = np.abs(window[name].reshape(-1))
        order = np.argsort(-flat, kind="stable")
        if deficit > 0:
            eligible = np.ones(flat.size, dtype=bool)
            eligible[support] = False
            if restrict_to_mask:
                eligible &= bits
            picks = order[eligible[order]][:deficit]
            slack = delta.budgets[name] - len(td)
            overflow = picks.size - slack
            if overflow > 0:
                covered = bits[td.indices]
                n_sac = min(overflow, int(covered.sum()))
                picks = picks[: slack + n_sac]
                if n_sac > 0:
                    vals = np.abs(td.values.astype(np.float64))
                    vals[~covered] = np.inf
                    sacrifice = td.indices[np.argsort(vals, kind="stable")[:n_sac]]
                    remove_entries(delta, name, sacrifice, optim)
            insert_entries(delta, name, picks, optim)
            repaired += picks.size
        free = delta.budgets[name] - len(td)
        if free > 0:
            eligible = bits.copy()
            eligible[td.indices] = False
            insert_entries(delta, name, order[eligible[order]][:free], optim)
    return repaired


def test_repair_matches_full_sort_reference_randomized():
    rng = np.random.default_rng(17)
    for _ in range(400):
        numel = int(rng.integers(4, 48))
        mask_coords = np.flatnonzero(rng.random(numel) < rng.random())
        n_delta = int(rng.integers(0, numel // 2 + 1))
        delta_coords = np.sort(rng.choice(numel, size=n_delta, replace=False))
        vals = rng.integers(-2, 3, size=n_delta) * 0.5  # ties, zeros
        budget = n_delta + int(rng.integers(0, 4))
        sparsity = float(rng.uniform(0.1, 0.9))
        restrict = bool(rng.integers(0, 2))
        window = {"t": rng.integers(-2, 3, size=(1, numel)).astype(np.float64)}
        runs = []
        for repair in (repair_and_rebuild, reference_repair):
            _, mask, d = state(numel, mask_coords, delta_coords, vals, budget=max(budget, 1))
            opt = DenseAdamW({"t": (d.slices["t"], "values")})
            opt.m["t"] += np.arange(n_delta)
            n = repair(window, {"t": mask}, d, opt, sparsity, restrict)
            td = d.slices["t"]
            runs.append((n, mask.bits.copy(), td.indices, td.values, opt.m["t"], opt.v["t"]))
        got, want = runs
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(a, b)


# --- adaptation step ---


def test_adaptation_noop_when_support_at_budget():
    theta, mask, d = state(10, range(5), [0], [0.5], budget=1)
    window = {"t": np.ones((1, 10))}
    rep = adapt(window, theta, mask, d, None, 0.5)
    assert rep.pruned_base == 0 and rep.pruned_delta == 0 and rep.repaired == 0
    assert rep.merged_sparsity == pytest.approx(0.5)


def test_adaptation_removes_exactly_m_grown():
    # support grew by 3 masked coordinates beyond the keep budget of 5
    theta, mask, d = state(10, range(5), [6, 7, 8], [0.1, 0.2, 0.3], budget=3)
    window = {"t": np.ones((1, 10))}
    rep = adapt(window, theta, mask, d, None, 0.5)
    assert rep.pruned_base + rep.pruned_delta == 3
    assert support_of(mask, d.slices["t"]).size == 5
    assert rep.merged_sparsity == pytest.approx(0.5)


def test_adaptation_magnitude_criterion_flag():
    # magnitude keeps the largest merged values regardless of gradient
    theta = np.array([[0.1, 5.0, 0.2, 4.0]])
    theta_d, mask, d = state(4, [0, 1, 2, 3], [], [], theta=theta)
    window = {"t": np.array([[100.0, 0.0, 100.0, 0.0]])}
    rep = adapt(window, theta, mask, d, None, 0.5, criterion="magnitude")
    np.testing.assert_array_equal(np.flatnonzero(mask.bits), [1, 3])
    assert rep.merged_sparsity == pytest.approx(0.5)


def test_adaptation_per_tensor_budget_and_optimizer_alignment():
    rng = np.random.default_rng(33)
    numel = 40
    mask_coords = np.arange(16)
    delta_coords = np.array([2, 17, 25, 33])
    theta, mask, d = state(numel, mask_coords, delta_coords, rng.normal(size=4), budget=4)
    opt = DenseAdamW({"t": (d.slices["t"], "values")})
    opt.m["t"] += 1.0
    window = {"t": rng.normal(size=(1, numel))}
    rep = adapt(window, theta, mask, d, opt, 0.6)
    td = d.slices["t"]
    assert opt.m["t"].shape == td.indices.shape == opt.v["t"].shape
    assert support_of(mask, td).size == keep_budget(numel, 0.6)


def test_merged_support_sparsity_global():
    theta, mask, d = state(8, [0, 1], [5], [1.0])
    g, per = merged_support_sparsity({"t": mask}, d)
    assert g == pytest.approx(1 - 3 / 8)
    assert per["t"] == pytest.approx(1 - 3 / 8)
