"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sparsevolve import autodiff as ad
from sparsevolve import checkpoint as ck
from sparsevolve.adaptation import keep_budget, rebuild_mask, support_coords
from sparsevolve.autodiff import Tape, Tensor
from sparsevolve.delta import (
    DenseAdamW,
    EditMap,
    SparseDelta,
    TensorDelta,
    allocate_budget,
    effective_weights,
    init_support,
)
from sparsevolve.evolution import EvolutionSchedule, GradAccumulator, evolve, select_drop, select_grow
from sparsevolve.lora import LoraAdapter, adapter_records, build_adapters, merge_and_reprune
from sparsevolve.models import ModelConfig, _linear, build_transformer
from sparsevolve.pruning import Mask, build_mask, masked_base, prune_model, score_wanda
from sparsevolve.train import TrainConfig, train

from oracles import grad_check, grads_of, scatter_add


def report(criterion: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def map_on_cores(fn, items: list) -> list:
    """``fn`` over independent ``items``, one process per core, spawned so no worker inherits this one's threads."""
    workers = min(len(items), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items))


@pytest.fixture(scope="module")
def word_corpus(tmp_path_factory):
    """Deterministic ~1 MB byte corpus with learnable word structure."""
    rng = np.random.default_rng(1234)
    words = [
        b"the", b"quick", b"brown", b"fox", b"jumps", b"over", b"lazy", b"dog",
        b"a", b"stone", b"river", b"runs", b"deep", b"and", b"slow", b"wind",
        b"north", b"gate", b"opens", b"at", b"dawn", b"every", b"watch", b"ends",
    ]
    chunks = []
    size = 0
    while size < 1_000_000:
        n = int(rng.integers(4, 9))
        sentence = b" ".join(words[i] for i in rng.integers(0, len(words), size=n)) + b". "
        chunks.append(sentence)
        size += len(sentence)
    path = tmp_path_factory.mktemp("corpus") / "words.txt"
    path.write_bytes(b"".join(chunks))
    return str(path)


@pytest.fixture(scope="module")
def copy_base(tmp_path_factory):
    """A transformer trained to copy, then its merged dense checkpoint.

    Training runs with a dense (all-ones) mask so the evolving delta reaches
    every coordinate; merging folds the learned update into the base weights.
    """
    out = tmp_path_factory.mktemp("copybase")
    cfg = TrainConfig(
        vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=16,
        task="copy", copy_vocab=16, sparsity=0.0, pruner="magnitude",
        method="seft", rank=16, lr=2e-3, steps=700, every=10, drop_rate=0.2,
        grad_accum=1, batch_size=8, seed=7, eval_every=700, calib_batches=2,
        out_dir=str(out), run_name="copy-pretrain",
    )
    res = train(cfg)
    merged = str(out / "copy-base.ckpt")
    ck.merge_checkpoint(res.checkpoint, merged)
    return cfg, merged, res.final_ppl


def planted_masks(cfg: TrainConfig, base_ckpt: str, sparsity: float):
    """Adversarial masks that remove the highest-scoring (copy-critical) weights."""
    mc = cfg.model_config()
    tree, forward = build_transformer(mc, dtype=np.float32)
    state = ck.load_state(base_ckpt)
    for name, t in tree.items():
        t.data = state.dense[name].astype(t.data.dtype)
    from sparsevolve.data import make_task
    from sparsevolve.pruning import collect_activation_norms

    task = make_task("copy", cfg.context, cfg.batch_size, cfg.seed, copy_vocab=cfg.copy_vocab)
    acts = collect_activation_norms(forward, tree, task.calib(2))
    masks = {}
    for name, t in tree.named_prunable():
        scores = score_wanda(t.data, acts[name])
        masks[name] = build_mask(-scores, sparsity, name=name)  # keep the weakest
    return masks


def write_planted_base(tmp_path, cfg, base_ckpt, masks):
    records = []
    for rec in ck.read_checkpoint(base_ckpt):
        records.append(rec)
        if rec.name in masks:
            records.append(ck.Record(rec.name, ck.KIND_MASK, rec.shape, bits=masks[rec.name].bits))
    path = str(tmp_path / "planted.ckpt")
    ck.write_checkpoint(path, records)
    ck.save_meta(path, {"config": cfg.to_dict()})
    return path


# ---------------------------------------------------------------------------
# 1. sparsity restoration
# ---------------------------------------------------------------------------


def _criterion_1_run(cfg: TrainConfig) -> tuple[int, float, list]:
    """One criterion-1 fine-tune: its event count, worst error x numel, and the (step, tensor, error) failures."""
    events = 0
    worst = 0.0
    failures = []

    def check(ev):
        nonlocal worst, events
        events += 1
        for name, mask in ev.masks.items():
            numel = mask.bits.size
            sup = support_coords(mask, EditMap(name, ev.delta.slices[name].indices, numel)).size
            err = abs((1.0 - sup / numel) - cfg.sparsity)
            worst = max(worst, err * numel)
            if err > 1.0 / numel:
                failures.append((ev.step, name, err))

    train(cfg, on_event=check)
    return events, worst, failures


def test_criterion_1_sparsity_restoration(tmp_path):
    t0 = time.time()
    rho = 0.6
    rng = np.random.default_rng(99)
    cfgs = [
        TrainConfig(
            vocab=32, dim=64, heads=4, blocks=int(rng.integers(1, 3)), ff_mult=2,
            context=12, task="copy", copy_vocab=16, sparsity=rho,
            pruner=["wanda", "magnitude"][run_idx % 2], method="seft",
            rank=int(rng.choice([4, 8])), lr=1e-3, steps=2000,
            every=int(rng.choice([5, 10, 20])), drop_rate=float(rng.choice([0.1, 0.2, 0.3])),
            grad_accum=1, batch_size=2, seed=int(rng.integers(0, 10_000)),
            eval_every=0, calib_batches=2, out_dir=str(tmp_path), run_name=f"c1-{run_idx}",
        )
        for run_idx in range(20)
    ]
    runs = map_on_cores(_criterion_1_run, cfgs)
    for run_idx, (_, _, failures) in enumerate(runs):
        assert not failures, f"run {run_idx}: {failures[:3]}"
    events_total = sum(events for events, _, _ in runs)
    worst = max(run_worst for _, run_worst, _ in runs)
    report(1, events_total > 1000 and worst <= 1.0, f"20 runs x 2000 steps, {events_total} adaptation events, worst error {worst:.3f}/numel", t0)


# ---------------------------------------------------------------------------
# 2. budget conservation
# ---------------------------------------------------------------------------


def test_criterion_2_budget_conservation():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        numel = int(rng.integers(32, 512))
        support = int(rng.integers(4, numel // 2))
        idx = np.sort(rng.choice(numel, size=support, replace=False))
        delta = SparseDelta({"t": support})
        delta.slices["t"] = TensorDelta(idx, rng.normal(size=support).astype(np.float32))
        optim = DenseAdamW({"t": (delta.slices["t"], "values")})
        acc = GradAccumulator({"t": (numel,)})
        acc.accumulate({"t": rng.normal(size=numel)})
        masks = {"t": Mask("t", (rng.random(numel) < 0.5).reshape(1, -1))}
        sched = EvolutionSchedule(
            drop_rate=float(rng.uniform(0.05, 0.6)),
            total_steps=int(rng.integers(10, 1000)),
            every=1,
            cosine=bool(rng.integers(0, 2)),
        )
        step = int(rng.integers(0, sched.total_steps + 1))
        before = delta.support_size()
        edits = {"t": EditMap("t", idx, numel)}
        evolve(delta, edits, acc.sums, masks, sched, step)
        edits["t"].rebuild(delta, optim)
        optim.relayout()
        assert delta.support_size() == before
    report(2, True, "|support| conserved across 1000 randomized evolve cycles", t0)


# ---------------------------------------------------------------------------
# 3. top-k semantics against brute-force full sort
# ---------------------------------------------------------------------------


def brute_drop(idx, vals, count):
    order = sorted(range(len(idx)), key=lambda i: (abs(vals[i]), idx[i]))
    return sorted(idx[i] for i in order[:count])


def brute_grow(acc, active, bits, count, restrict):
    active = set(active.tolist())
    cands = sorted((-abs(a), i) for i, a in enumerate(acc) if i not in active and (not restrict or bits[i]))
    return sorted(i for _, i in cands[:count])


def brute_row_mask(scores, sparsity):
    rows, cols = scores.shape
    keep = cols - int(np.floor(sparsity * cols))
    bits = np.zeros_like(scores, dtype=bool)
    for r in range(rows):
        order = sorted(range(cols), key=lambda j: (-scores[r, j], j))
        bits[r, order[:keep]] = True
    return bits


def brute_nm_mask(scores, n, m):
    rows, cols = scores.shape
    bits = np.zeros_like(scores, dtype=bool)
    for r in range(rows):
        for g in range(cols // m):
            seg = scores[r, g * m : (g + 1) * m]
            order = sorted(range(m), key=lambda j: (-seg[j], j))
            for j in order[:n]:
                bits[r, g * m + j] = True
    return bits


def brute_rebuild_keep(coords, scores, budget):
    order = sorted(range(len(coords)), key=lambda i: (-scores[i], coords[i]))
    return sorted(coords[i] for i in order[:budget])


def test_criterion_3_topk_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    n_instances = 10_000
    for _ in range(n_instances):
        numel = int(rng.integers(2, 65))
        # select_drop
        support = int(rng.integers(1, numel + 1))
        idx = np.sort(rng.choice(numel, size=support, replace=False))
        vals = rng.integers(-3, 4, size=support).astype(float)
        count = int(rng.integers(0, support + 1))
        td = TensorDelta(idx, vals, dtype=np.float64)
        np.testing.assert_array_equal(select_drop(td, count), brute_drop(idx, vals, count))
        # select_grow
        acc = rng.integers(-3, 4, size=numel).astype(float)
        bits = rng.random(numel) < 0.5
        restrict = bool(rng.integers(0, 2))
        live = np.zeros(numel, dtype=bool)
        live[idx] = True
        got, _ = select_grow(acc, live, bits, count, restrict)
        np.testing.assert_array_equal(got, brute_grow(acc, idx, bits, count, restrict))
        # build_mask
        cols = int(rng.integers(1, 17))
        rows = max(1, numel // cols)
        scores = rng.integers(0, 4, size=(rows, cols)).astype(float)
        sparsity = float(rng.uniform(0, 0.95))
        np.testing.assert_array_equal(build_mask(scores, sparsity).bits, brute_row_mask(scores, sparsity))
        if cols % 4 == 0:
            np.testing.assert_array_equal(
                build_mask(scores, 0.5, nm=(2, 4)).bits, brute_nm_mask(scores, 2, 4)
            )
        # rebuild_mask
        sup_n = int(rng.integers(1, numel + 1))
        coords = np.sort(rng.choice(numel, size=sup_n, replace=False))
        s = rng.integers(0, 4, size=sup_n).astype(float)
        mask_bits = np.zeros(numel, dtype=bool)
        mask_bits[coords] = rng.random(sup_n) < 0.7
        mask = Mask("t", mask_bits.reshape(1, -1))
        dcoords = coords[~mask_bits[coords]]
        d = SparseDelta({"t": max(1, len(dcoords))})
        d.slices["t"] = TensorDelta(dcoords, np.ones(len(dcoords), dtype=np.float32))
        budget = keep_budget(numel, sparsity)
        expect = brute_rebuild_keep(coords, s, budget) if sup_n >= budget else sorted(coords)
        edits = EditMap("t", d.slices["t"].indices, numel)
        base = masked_base({"t": np.ones((1, numel))}, {"t": mask})["t"]
        rebuild_mask(coords, s, sparsity, mask, edits, base)
        edits.rebuild(d)
        np.testing.assert_array_equal(support_coords(mask, EditMap("t", d.slices["t"].indices, numel)), expect)
    report(3, True, f"drop/grow/build/rebuild match brute-force sort on {n_instances} instances each", t0)


# ---------------------------------------------------------------------------
# 4. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_correctness():
    t0 = time.time()
    mc = ModelConfig(vocab=16, dim=64, heads=4, blocks=2, ff_mult=2, context=8, seed=5)
    tree, forward = build_transformer(mc, dtype=np.float64)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 16, size=(2, 8))
    y = rng.integers(0, 16, size=16)
    tree.set_requires_grad(True)

    def loss_fn():
        return ad.cross_entropy(ad.reshape(forward(tree, ids), (-1, 16)), y)

    fd = grad_check(loss_fn, dict(tree.items()), eps=1e-5, tol=1e-4, samples=3, rng=rng)
    assert fd.checked >= 64

    # delta gradient vs dense merged-weight gradient, via two independent graphs
    masks, theta = prune_model(tree, forward, [ids], 0.5, scorer="magnitude")
    budgets = allocate_budget(tree, 4)
    delta = init_support(theta, masks, budgets, dtype=np.float64)
    for td in delta.slices.values():
        td.values = rng.normal(scale=0.05, size=len(td))

    phi = {}
    with Tape():
        for name, td in delta.slices.items():
            base = Tensor(np.where(masks[name].bits, theta[name], 0.0))
            phi[name] = Tensor(td.values.copy(), requires_grad=True)
            tree[name] = scatter_add(base, td.indices, phi[name])
        loss = ad.cross_entropy(ad.reshape(forward(tree, ids), (-1, 16)), y)
        grads = grads_of(loss)

    tree2, forward2 = build_transformer(mc, dtype=np.float64)
    for name, t in tree2.items():
        t.data = tree[name].data.copy() if tree.is_prunable(name) else t.data
        t.requires_grad = tree2.is_prunable(name)
    with Tape():
        loss2 = ad.cross_entropy(ad.reshape(forward2(tree2, ids), (-1, 16)), y)
        grads2 = grads_of(loss2)

    worst = 0.0
    for name, td in delta.slices.items():
        dense_grad = grads2[tree2[name]].reshape(-1)[td.indices]
        worst = max(worst, float(np.abs(grads[phi[name]] - dense_grad).max()))
    ok = fd.passed and worst <= 1e-10
    report(4, ok, f"FD max rel err {fd.max_rel_err:.2e} over {fd.checked} coords; delta-vs-dense grad max diff {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# 5. N:M feasibility through a structured run
# ---------------------------------------------------------------------------


def test_criterion_5_nm_feasibility(tmp_path):
    t0 = time.time()
    violations = []
    events = 0

    def check(ev):
        nonlocal events
        events += 1
        for name, mask in ev.masks.items():
            flat = mask.bits.reshape(-1).copy()
            flat[ev.delta.slices[name].indices] = True
            merged = Mask(name, flat.reshape(mask.bits.shape))
            violations.extend((ev.step, name, r, g) for r, g in merged.nm_violations(2, 4))

    cfg = TrainConfig(
        vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=12, task="copy",
        copy_vocab=16, sparsity=0.5, nm="2:4", method="seft",
        rank=4, lr=1e-3, steps=1000, every=10, grad_accum=1, batch_size=2, seed=2,
        eval_every=0, calib_batches=2, out_dir=str(tmp_path), run_name="c5",
    )
    res = train(cfg, on_event=check)
    rep = ck.inspect_checkpoint(res.checkpoint, nm=(2, 4))
    ok = not violations and not rep.nm_violations and events == 100
    report(5, ok, f"zero violations across {events} evolve+adapt cycles of a 1000-step 2:4 run", t0)


# ---------------------------------------------------------------------------
# 6. recovery direction: tuned beats frozen on a real corpus
# ---------------------------------------------------------------------------


def test_criterion_6_recovery_direction(word_corpus, tmp_path):
    t0 = time.time()
    base_cfg = TrainConfig(
        vocab=256, dim=64, heads=4, blocks=2, ff_mult=2, context=32, task="char-lm",
        corpus=word_corpus, sparsity=0.0, pruner="magnitude", method="seft", rank=16,
        lr=2e-3, steps=700, every=10, grad_accum=1, batch_size=8, seed=0,
        eval_every=700, calib_batches=4, out_dir=str(tmp_path), run_name="c6-pretrain",
    )
    pre = train(base_cfg)
    base = str(tmp_path / "c6-base.ckpt")
    ck.merge_checkpoint(pre.checkpoint, base)

    frozen_cfg = TrainConfig(
        vocab=256, dim=64, heads=4, blocks=2, ff_mult=2, context=32, task="char-lm",
        corpus=word_corpus, sparsity=0.6, pruner="wanda", method="frozen",
        batch_size=8, seed=0, calib_batches=4, base_checkpoint=base,
        out_dir=str(tmp_path), run_name="c6-frozen", steps=0,
    )
    frozen = train(frozen_cfg)

    cfgs = [
        TrainConfig(
            vocab=256, dim=64, heads=4, blocks=2, ff_mult=2, context=32, task="char-lm",
            corpus=word_corpus, sparsity=0.6, pruner="wanda", method="seft", rank=16,
            lr=1e-3, steps=400, every=10, drop_rate=0.2, grad_accum=1, batch_size=8,
            seed=seed, eval_every=400, calib_batches=4, base_checkpoint=base,
            out_dir=str(tmp_path), run_name=f"c6-seft-{seed}",
        )
        for seed in (0, 1, 2)
    ]
    wins = []
    for res in map_on_cores(train, cfgs):
        wins.append(res.final_ppl < frozen.final_ppl)
        assert abs(res.final_sparsity - 0.6) < 1e-3
    ok = all(wins)
    report(6, ok, f"tuned < frozen in {sum(wins)}/3 seeds (frozen ppl {frozen.final_ppl:.2f}, pretrain ppl {pre.final_ppl:.2f})", t0)


# ---------------------------------------------------------------------------
# 7. mask-constraint ablation on the planted recovery task
# ---------------------------------------------------------------------------


PLANT_SPARSITY = 0.6


def _planted_run(cfg_base, planted, tmp_path, method, seed, criterion="sensitivity"):
    cfg = TrainConfig(
        vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=16, task="copy",
        copy_vocab=16, sparsity=PLANT_SPARSITY, method=method, rank=8, lr=1e-3, steps=200,
        every=10, drop_rate=0.2, grad_accum=1, batch_size=8, seed=seed,
        eval_every=200, calib_batches=2, base_checkpoint=planted,
        adapt_criterion=criterion, out_dir=str(tmp_path), run_name=f"c78-{method}-{criterion}-{seed}",
    )
    return train(cfg)


def test_criterion_7_constraint_ablation(copy_base, tmp_path):
    t0 = time.time()
    cfg_base, base_ckpt, base_ppl = copy_base
    masks = planted_masks(cfg_base, base_ckpt, PLANT_SPARSITY)
    planted = write_planted_base(tmp_path, cfg_base, base_ckpt, masks)

    unc, con = [], []
    react_unc, react_con = [], []
    for seed in (0, 1, 2):
        r1 = _planted_run(cfg_base, planted, tmp_path, "seft", seed)
        r2 = _planted_run(cfg_base, planted, tmp_path, "seft-constrained", seed)
        unc.append(r1.final_ppl)
        con.append(r2.final_ppl)
        react_unc.append(r1.reactivation_fraction)
        react_con.append(r2.reactivation_fraction)
    ok = (
        np.mean(unc) <= np.mean(con)
        and all(r > 0 for r in react_unc)
        and all(r == 0 for r in react_con)
    )
    report(
        7,
        ok,
        f"unconstrained mean ppl {np.mean(unc):.3f} <= constrained {np.mean(con):.3f}; "
        f"reactivation {np.mean(react_unc):.2f} vs {react_con}",
        t0,
    )


# ---------------------------------------------------------------------------
# 8. sensitivity vs magnitude adaptation criterion
# ---------------------------------------------------------------------------


def test_criterion_8_criterion_ablation(copy_base, tmp_path):
    t0 = time.time()
    cfg_base, base_ckpt, _ = copy_base
    masks = planted_masks(cfg_base, base_ckpt, PLANT_SPARSITY)
    planted = write_planted_base(tmp_path, cfg_base, base_ckpt, masks)

    sens, mag = [], []
    for seed in (0, 1, 2):
        sens.append(_planted_run(cfg_base, planted, tmp_path, "seft", seed, criterion="sensitivity").final_ppl)
        mag.append(_planted_run(cfg_base, planted, tmp_path, "seft", seed, criterion="magnitude").final_ppl)
    ok = np.mean(sens) <= 1.01 * np.mean(mag)
    report(8, ok, f"sensitivity mean ppl {np.mean(sens):.3f} vs magnitude {np.mean(mag):.3f} (tolerance 1%)", t0)


# ---------------------------------------------------------------------------
# 9. budget parity with the low-rank baseline
# ---------------------------------------------------------------------------


def test_criterion_9_budget_parity():
    t0 = time.time()
    mc = ModelConfig(vocab=256, dim=128, heads=4, blocks=2, context=16, seed=0)
    tree, _ = build_transformer(mc)
    for rank in (8, 16, 32, 64):
        budgets = allocate_budget(tree, rank)
        adapters = build_adapters(tree, rank)
        assert sum(budgets.values()) == sum(w.size for w in adapter_records(adapters).values())
    report(9, True, "delta budget equals adapter parameter count exactly for ranks 8/16/32/64", t0)


# ---------------------------------------------------------------------------
# 10. merge-then-reprune pipeline and adapter forward equivalence
# ---------------------------------------------------------------------------


def test_criterion_10_lora_star_pipeline():
    t0 = time.time()
    rng = np.random.default_rng(21)
    # forward equivalence on random instances at model weight scales, single precision
    worst = 0.0
    for _ in range(50):
        out_d, in_d, r, n = rng.integers(2, 24, size=4)
        w = Tensor(rng.normal(0, 0.02, size=(out_d, in_d)).astype(np.float32))
        a = Tensor(rng.normal(0, 0.02, size=(r, in_d)).astype(np.float32))
        b = Tensor(rng.normal(0, 0.02, size=(out_d, r)).astype(np.float32))
        x = Tensor(rng.normal(size=(n, in_d)).astype(np.float32))
        got = _linear(x, w, None, LoraAdapter(a, b)).data
        want = x.data @ (w.data + b.data @ a.data).T
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-6

    # merge + reprune lands exactly on the row-budget popcount
    mc = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, ff_mult=2, context=4, seed=9)
    tree, forward = build_transformer(mc)
    ids = np.random.default_rng(10).integers(0, 16, size=(2, 4))
    masks, _ = prune_model(tree, forward, [ids], 0.5)
    adapters = build_adapters(tree, rank=2, seed=11)
    for ad_ in adapters.values():
        ad_.b.data = rng.normal(0, 0.05, size=ad_.b.data.shape).astype(np.float32)
    new_masks, merged = merge_and_reprune(tree, forward, masks, adapters, [ids], 0.5)
    exact = all(
        int(m.bits.sum()) == m.bits.shape[0] * (m.bits.shape[1] - int(np.floor(0.5 * m.bits.shape[1])))
        for m in new_masks.values()
    )
    live_matches = all(int(np.count_nonzero(tree[n].data)) == int(new_masks[n].bits.sum()) for n in new_masks)
    report(10, exact and live_matches, f"reprune popcount exact; adapter forward max|diff| {worst:.2e} <= 1e-6", t0)


# ---------------------------------------------------------------------------
# 11. determinism and format invariants
# ---------------------------------------------------------------------------


def test_criterion_11_determinism_and_format(tmp_path):
    t0 = time.time()
    kw = dict(
        vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=12, task="copy",
        copy_vocab=16, sparsity=0.6, method="seft", rank=4, lr=1e-3, steps=60,
        every=10, grad_accum=1, batch_size=4, seed=5, eval_every=30, calib_batches=2,
    )
    r1 = train(TrainConfig(out_dir=str(tmp_path / "x"), run_name="d", **kw))
    r2 = train(TrainConfig(out_dir=str(tmp_path / "y"), run_name="d", **kw))
    same_metrics = open(r1.metrics).read() == open(r2.metrics).read()
    same_ckpt = open(r1.checkpoint, "rb").read() == open(r2.checkpoint, "rb").read()

    # round-trip byte identity
    p2 = str(tmp_path / "rt.ckpt")
    ck.write_checkpoint(p2, ck.read_checkpoint(r1.checkpoint))
    roundtrip = open(r1.checkpoint, "rb").read() == open(p2, "rb").read()

    # planted N:M violation flagged through the CLI with a nonzero exit
    from sparsevolve.cli import EXIT_INVARIANT, main

    nm_cfg = TrainConfig(
        out_dir=str(tmp_path / "nm"), run_name="nm", nm="2:4",
        **{**kw, "sparsity": 0.5, "method": "frozen", "steps": 0},
    )
    nm = train(nm_cfg)
    records = ck.read_checkpoint(nm.checkpoint)
    for rec in records:
        if rec.kind == ck.KIND_MASK and rec.name == "head.w":
            rec.bits[0, 0:4] = True
    ck.write_checkpoint(nm.checkpoint, records)
    exit_code = main(["inspect", nm.checkpoint, "--nm", "2:4"])
    ok = same_metrics and same_ckpt and roundtrip and exit_code == EXIT_INVARIANT
    report(11, ok, "bitwise-identical reruns, byte-identical round-trip, planted violation exits 2", t0)
