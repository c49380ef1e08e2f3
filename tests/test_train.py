import json
import os
import sys

import numpy as np
import pytest

import sparsevolve
from sparsevolve import autodiff as ad
from sparsevolve import checkpoint as ck
from sparsevolve import parallel
from sparsevolve import train as train_mod
from sparsevolve.data import IGNORE, make_task
from sparsevolve.lora import build_adapters
from sparsevolve.models import ModelConfig, build_transformer
from sparsevolve.train import MetricsWriter, NumericFailure, TrainConfig, train


def cfg_for(tmp_path, **kw):
    base = dict(
        dim=64,
        heads=4,
        blocks=2,
        context=16,
        task="copy",
        sparsity=0.6,
        method="seft",
        rank=8,
        lr=1e-3,
        steps=40,
        every=10,
        grad_accum=1,
        batch_size=4,
        seed=0,
        eval_every=20,
        calib_batches=2,
        out_dir=str(tmp_path),
    )
    base.update(kw)
    return TrainConfig(**base)


def test_zero_steps_outputs_pruned_model(tmp_path):
    res = train(cfg_for(tmp_path, steps=0, run_name="zero"))
    state = ck.load_state(res.checkpoint)
    assert state.masks  # pruned base saved
    assert all(len(td) == 0 for td in state.deltas.values()) or not state.deltas
    assert res.final_sparsity == pytest.approx(0.6, abs=0.02)


def test_full_run_determinism_bitwise(tmp_path):
    r1 = train(cfg_for(tmp_path / "a", run_name="det"))
    r2 = train(cfg_for(tmp_path / "b", run_name="det"))
    assert open(r1.metrics).read() == open(r2.metrics).read()
    assert open(r1.checkpoint, "rb").read() == open(r2.checkpoint, "rb").read()


def test_seed_changes_results(tmp_path):
    r1 = train(cfg_for(tmp_path / "a", run_name="s", seed=0))
    r2 = train(cfg_for(tmp_path / "b", run_name="s", seed=1))
    assert open(r1.checkpoint, "rb").read() != open(r2.checkpoint, "rb").read()


@pytest.mark.parametrize("method", ["seft", "lora"])
def test_final_ppl_is_evaluated_after_last_step(tmp_path, capsys, method):
    from sparsevolve.cli import main

    finals = []
    for steps in (10, 20):
        res = train(cfg_for(tmp_path, method=method, steps=steps, eval_every=0, run_name=f"{method}{steps}"))
        assert res.eval_history[-1][0] == steps
        assert ck.load_meta(res.checkpoint)["final_ppl"] == res.final_ppl
        capsys.readouterr()
        assert main(["eval", res.checkpoint]) == 0  # a fresh evaluate_ppl of the saved model
        assert capsys.readouterr().out.strip() == f"val perplexity {res.final_ppl:.6f}"
        finals.append(res.final_ppl)
    assert finals[0] != finals[1]


def test_seft_improves_over_frozen_quickly(tmp_path):
    frozen = train(cfg_for(tmp_path, method="frozen", run_name="fr"))
    tuned = train(cfg_for(tmp_path, steps=60, run_name="tu"))
    assert tuned.final_ppl < frozen.final_ppl


def test_metrics_rows_hold_sparsity_at_target(tmp_path):
    res = train(cfg_for(tmp_path, steps=50, run_name="rows"))
    rows = open(res.metrics).read().strip().split("\n")
    header = rows[0].split(",")
    kind_i = header.index("kind")
    spars_i = header.index("sparsity_global")
    adapt_rows = [r.split(",") for r in rows[1:] if r.split(",")[kind_i] == "adapt"]
    assert adapt_rows, "no adaptation rows logged"
    for r in adapt_rows:
        assert abs(float(r[spars_i]) - 0.6) < 1e-3
    evolve_rows = [r.split(",") for r in rows[1:] if r.split(",")[kind_i] == "evolve"]
    assert len(evolve_rows) == 5


def test_without_adaptation_model_drifts_denser(tmp_path):
    res = train(cfg_for(tmp_path, adapt=False, steps=60, run_name="drift"))
    assert res.final_sparsity < 0.6 - 1e-4  # denser than target


def test_constrained_never_reactivates(tmp_path):
    res = train(cfg_for(tmp_path, method="seft-constrained", sparsity=0.5, run_name="con"))
    assert res.reactivations == 0
    unres = train(cfg_for(tmp_path, method="seft", sparsity=0.5, run_name="uncon"))
    assert unres.reactivations > 0


def test_nan_loss_aborts_with_numeric_failure(tmp_path):
    with pytest.raises(NumericFailure, match="non-finite"):
        train(cfg_for(tmp_path, lr=1e30, steps=10, run_name="nan"))


def test_aborted_run_keeps_its_metrics_rows(tmp_path):
    # rows are buffered, not flushed one by one; train closes the writer in a finally
    with pytest.raises(NumericFailure):
        train(cfg_for(tmp_path, lr=1e30, steps=10, run_name="nan"))
    rows = (tmp_path / "nan.metrics.csv").read_text(encoding="utf-8").strip().split("\n")
    assert rows[0].startswith("kind,step,")
    assert rows[1].startswith("eval,0,")


def test_config_dict_equals_asdict(tmp_path):
    import dataclasses

    cfg = cfg_for(tmp_path, nm="2:4", sparsity=0.5, run_name="d")
    assert list(cfg.to_dict().items()) == list(dataclasses.asdict(cfg).items())


def test_structured_mode_trains(tmp_path):
    res = train(cfg_for(tmp_path, nm="2:4", sparsity=0.5, rank=4, run_name="nm"))
    report = ck.inspect_checkpoint(res.checkpoint, nm=(2, 4))
    assert not report.nm_violations


def test_checkpoint_meta_written(tmp_path):
    res = train(cfg_for(tmp_path, run_name="meta"))
    meta = json.load(open(res.checkpoint + ".json"))
    assert meta["config"]["method"] == "seft"
    assert meta["trainable_params"] == res.trainable_params


def test_checkpoint_meta_records_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda n_items, elements: 3)
    res = train(cfg_for(tmp_path, run_name="threads", steps=2, grad_accum=2, eval_every=0))
    meta = json.load(open(res.checkpoint + ".json"))
    assert meta["micro_batch_workers"] == 3
    assert meta["blas_threads"] in (1, None)  # None: no bundled OpenBLAS to ask
    assert meta["malloc_tuned"] is sparsevolve.malloc_tuned()


def test_micro_batch_workers_rule():
    cpus = len(os.sched_getaffinity(0))
    assert parallel.INLINE_BELOW == 1 << 15
    for n in (1, 2, 4, 10**6):
        assert parallel.workers(n, 0) == 1
        assert parallel.workers(n, parallel.INLINE_BELOW - 1) == 1
        assert parallel.workers(n, parallel.INLINE_BELOW) == min(n, cpus)
        assert parallel.workers(n, 10**9) == min(n, cpus)


def test_modular_add_step_sizes_its_micro_batches_by_the_drawn_batch(tmp_path, monkeypatch):
    # default dim 128 and batch 8, but a modular-add batch is 3 tokens wide: 8 x 3 x 128 = 3,072 elements
    asked = []
    workers = parallel.workers
    monkeypatch.setattr(parallel, "workers", lambda n_items, elements: asked.append(elements) or workers(n_items, elements))
    res = train(TrainConfig(task="modular-add", steps=1, eval_every=0, calib_batches=1, out_dir=str(tmp_path), run_name="mod"))
    assert set(asked) == {3072}
    assert json.load(open(res.checkpoint + ".json"))["micro_batch_workers"] == 1


def test_copy_shaped_run_records_inline_micro_batches(tmp_path):
    # 2 x 12 tokens x dim 64 = 1,536 activation elements per micro-batch: below the size gate
    res = train(cfg_for(tmp_path, run_name="inline", context=12, batch_size=2, grad_accum=4, steps=2, eval_every=0))
    meta = json.load(open(res.checkpoint + ".json"))
    assert meta["micro_batch_workers"] == 1


def test_nm_pattern_rejects_mismatched_sparsity():
    with pytest.raises(ValueError, match="1 - N/M"):
        TrainConfig(task="copy", nm="2:4", sparsity=0.6)
    TrainConfig(task="copy", nm="2:4", sparsity=0.5)
    TrainConfig(task="copy", nm="1:3", sparsity=1 - 1 / 3)


def test_timings_separate_from_metrics(tmp_path):
    res = train(cfg_for(tmp_path, run_name="times"))
    head = open(res.timings).readline().strip()
    assert head == "step,wall_ms"
    assert "wall" not in open(res.metrics).readline()


def test_char_lm_requires_corpus():
    with pytest.raises(ValueError, match="corpus"):
        TrainConfig(task="char-lm", corpus=None)


def test_config_file_round_trip(tmp_path):
    cfg = cfg_for(tmp_path, run_name="file")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    loaded = TrainConfig.from_file(str(p), overrides={"steps": 7})
    assert loaded.steps == 7 and loaded.dim == cfg.dim


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"bogus": 1})


def test_config_file_nm_shorthand(tmp_path):
    d = {"task": "copy", "sparsity": 0.5, "nm": "2:4"}
    p = tmp_path / "nm.json"
    p.write_text(json.dumps(d))
    cfg = TrainConfig.from_file(str(p))
    assert cfg.nm == "2:4"
    assert TrainConfig.from_dict(d) == cfg
    assert d == {"task": "copy", "sparsity": 0.5, "nm": "2:4"}  # the caller's dict is left as it was


def test_config_file_nm_shorthand_yields_to_overrides(tmp_path):
    p = tmp_path / "nm.json"
    p.write_text(json.dumps({"task": "copy", "sparsity": 0.5, "nm": "2:4"}))
    cfg = TrainConfig.from_file(str(p), overrides={"nm": "1:2"})
    assert cfg.nm == "1:2"
    cfg = TrainConfig.from_file(str(p), overrides={"nm": ""})
    assert cfg.nm == ""


def test_base_checkpoint_flow(tmp_path):
    pruned = train(cfg_for(tmp_path / "base", method="frozen", run_name="base"))
    res = train(cfg_for(tmp_path / "ft", base_checkpoint=pruned.checkpoint, steps=20, run_name="ft"))
    assert res.final_ppl < float("inf")
    # masks came from the base checkpoint: sparsity matches its budget
    assert res.final_sparsity == pytest.approx(0.6, abs=0.02)


def test_lora_star_final_state_is_sparse(tmp_path):
    res = train(cfg_for(tmp_path, method="lora-star", sparsity=0.5, rank=4, steps=30, run_name="ls"))
    report = ck.inspect_checkpoint(res.checkpoint)
    assert report.global_sparsity == pytest.approx(0.5, abs=1e-6)
    assert report.delta_support == 0


def test_adapter_weights_stay_views_of_the_optimizer_vector_through_a_lora_run(tmp_path, monkeypatch):
    # the adapters' .data are bound to the one flat vector, so every step is seen by the
    # forward pass without a copy back; the checkpoint holds what the last step wrote
    from sparsevolve.delta import DenseAdamW, allocate_budget

    seen = {"steps": 0}
    real_build, real_step = train_mod.build_adapters, DenseAdamW.step

    def build(*args, **kwargs):
        seen["adapters"] = real_build(*args, **kwargs)
        return seen["adapters"]

    def step(self, g, lr):
        real_step(self, g, lr)
        seen["steps"] += 1
        seen["opt"] = self
        for adapter in seen["adapters"].values():
            assert adapter.a.data.base is self.w and adapter.b.data.base is self.w, seen["steps"]

    monkeypatch.setattr(train_mod, "build_adapters", build)
    monkeypatch.setattr(DenseAdamW, "step", step)
    cfg = cfg_for(tmp_path, method="lora", steps=12, eval_every=5, run_name="views")
    res = train(cfg)
    assert seen["steps"] == cfg.steps
    dense = ck.load_state(res.checkpoint).dense
    saved = np.concatenate([dense[f"{name}.lora_{ab}"] for name in seen["adapters"] for ab in "ab"], axis=None)
    assert saved.tobytes() == seen["opt"].w.tobytes()
    tree, _ = build_transformer(cfg.model_config())
    assert res.trainable_params == seen["opt"].w.size == sum(allocate_budget(tree, cfg.rank).values())


def test_lora_star_reprune_keeps_the_nm_pattern(tmp_path, monkeypatch):
    repruned = []
    reprune = train_mod.merge_and_reprune

    def recording(*args, **kwargs):
        masks, merged = reprune(*args, **kwargs)
        repruned.append(masks)
        return masks, merged

    monkeypatch.setattr(train_mod, "merge_and_reprune", recording)
    cfg = cfg_for(tmp_path, method="lora-star", nm="2:4", sparsity=0.5, rank=4, steps=10, run_name="ls-nm")
    res = train(cfg)
    (masks,) = repruned
    assert len(masks) == 2 * (4 + 2) + 1
    assert all(mask.nm_violations(2, 4) == [] for mask in masks.values())
    saved = ck.load_state(res.checkpoint).masks
    assert all(np.array_equal(saved[name], mask.bits) for name, mask in masks.items())
    report = ck.inspect_checkpoint(res.checkpoint, nm=(2, 4))
    assert not report.nm_violations
    assert report.global_sparsity == pytest.approx(0.5, abs=1e-12)


def test_lora_star_reprune_never_helps_on_distribution(tmp_path):
    # perplexity after restoring sparsity >= perplexity of the dense-merged adapter model
    for seed in (0, 1, 2):
        res = train(
            cfg_for(tmp_path, method="lora-star", sparsity=0.5, rank=8, steps=80, seed=seed, eval_every=80, run_name=f"ls{seed}")
        )
        steps = [s for s, _ in res.eval_history]
        assert steps[-1] == steps[-2] == 80  # pre- and post-reprune rows
        before, after = res.eval_history[-2][1], res.eval_history[-1][1]
        assert after >= before


def test_delta_support_refills_to_budget(tmp_path):
    from sparsevolve.delta import allocate_budget
    from sparsevolve.models import build_transformer

    cfg = cfg_for(tmp_path, steps=60, run_name="budget")
    res = train(cfg)
    rep = ck.inspect_checkpoint(res.checkpoint)
    tree, _ = build_transformer(cfg.model_config())
    assert rep.delta_support == sum(allocate_budget(tree, cfg.rank).values())


def test_ppl_of_random_model_near_uniform(tmp_path):
    # a freshly initialized model is near the uniform-logits bound of vocab size
    from sparsevolve.data import make_task
    from sparsevolve.models import build_transformer
    from sparsevolve.train import evaluate_ppl

    cfg = cfg_for(tmp_path, run_name="uni")
    mc = cfg.model_config()  # vocab 256
    tree, forward = build_transformer(mc)
    task = make_task("copy", cfg.context, cfg.batch_size, cfg.seed, copy_vocab=256)
    ppl = evaluate_ppl(forward, tree, task.val_batches, 256)
    assert abs(ppl - 256) / 256 < 0.02


def test_ppl_memorized_sequence_approaches_one(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_bytes(b"abcabcabc" * 600)  # single repeating sequence
    cfg = cfg_for(
        tmp_path,
        task="char-lm",
        corpus=str(corpus),
        sparsity=0.0,
        steps=150,
        rank=16,
        lr=3e-3,
        batch_size=8,
        run_name="memo",
        eval_every=150,
    )
    res = train(cfg)
    assert res.final_ppl < 1.3


def test_evaluate_ppl_bitwise_deterministic(tmp_path):
    from sparsevolve.data import make_task
    from sparsevolve.models import build_transformer
    from sparsevolve.train import evaluate_ppl

    cfg = cfg_for(tmp_path, run_name="det-eval")
    tree, forward = build_transformer(cfg.model_config())
    task = make_task("copy", cfg.context, cfg.batch_size, cfg.seed, copy_vocab=16)
    p1 = evaluate_ppl(forward, tree, task.val_batches, 256)
    p2 = evaluate_ppl(forward, tree, task.val_batches, 256)
    assert p1 == p2


def test_entry_budget_invariant_through_training(tmp_path):
    from sparsevolve.delta import allocate_budget
    from sparsevolve.models import build_transformer

    cfg = cfg_for(tmp_path, steps=50, run_name="inv")
    tree, _ = build_transformer(cfg.model_config())
    budget = sum(allocate_budget(tree, cfg.rank).values())
    sizes = []

    def check(ev):
        sizes.append(ev.delta.support_size())
        assert ev.delta.support_size() <= budget

    train(cfg, on_event=check)
    assert sizes and sizes[-1] == budget  # refilled to the full budget at event end


def test_modular_add_task_trains(tmp_path):
    res = train(cfg_for(tmp_path, task="modular-add", context=4, steps=80, batch_size=16, eval_every=80, run_name="mod"))
    start = res.eval_history[0][1]
    assert res.final_ppl < start  # learning the answer distribution at all


def test_metrics_writer_float_format(tmp_path):
    w = MetricsWriter(str(tmp_path / "m.csv"), ["t"])
    w.row("eval", step=1, eval_ppl=1.5, sparsity_global=0.6)
    w.close()
    lines = open(tmp_path / "m.csv").read().strip().split("\n")
    assert lines[1].split(",")[3] == "1.5"


# --- parallel micro-batches ---


def _twice(forward):
    """Every parameter used twice in one forward: the model on the ids and on them reversed."""

    def fwd(tree, ids, adapters=None):
        return ad.add(forward(tree, ids, adapters=adapters), forward(tree, ids[:, ::-1], adapters=adapters))

    return fwd


def _sequential_reference(cfg, tree, forward, task, rng, adapters):
    """Micro-batches one after another, each gradient contribution added into its leaf's sum as it comes."""
    loss_sum = 0.0
    sums = {}
    for _ in range(cfg.grad_accum):
        x, y = task.train_batch(rng)
        with ad.Tape():
            logits = forward(tree, x, adapters=adapters)
            loss = ad.cross_entropy(ad.reshape(logits, (-1, cfg.vocab)), y.reshape(-1), ignore_index=IGNORE)
            store = ad.backward(loss)
        for leaf, grads in store.items():
            for g in grads:
                sums[leaf] = g if leaf not in sums else sums[leaf] + g
        loss_sum += loss.item()
    return loss_sum / cfg.grad_accum, sums


@pytest.mark.parametrize("method", ["seft", "lora"])
@pytest.mark.parametrize("twice", [False, True])
def test_threaded_backward_pass_bitwise_equals_single_worker(monkeypatch, method, twice):
    cfg = TrainConfig(task="copy", vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=12, batch_size=3, grad_accum=4, method=method)
    tree, forward = build_transformer(cfg.model_config())
    if twice:
        forward = _twice(forward)
    task = make_task("copy", cfg.context, cfg.batch_size, seed=0)
    adapters = None
    if method == "lora":
        tree.set_requires_grad(False)
        adapters = build_adapters(tree, 2, seed=1)
        for a in adapters.values():  # a live B so the adapter path carries gradient to A
            a.b.data = np.random.default_rng(2).normal(0, 0.05, size=a.b.data.shape).astype(np.float32)
        leaves = [t for a in adapters.values() for t in (a.a, a.b)]
    else:
        tree.set_requires_grad(True, names=tree.prunable_names())
        leaves = [t for _, t in tree.named_prunable()]

    def run(workers):
        if workers is None:
            loss, grads = _sequential_reference(cfg, tree, forward, task, np.random.default_rng(5), adapters)
        else:
            monkeypatch.setattr(parallel, "workers", lambda n_items, elements: workers)
            loss, grads = train_mod._backward_pass(cfg, tree, forward, task, np.random.default_rng(5), cfg.vocab, adapters)
        return loss, [grads[t] for t in leaves]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker threads as finely as the interpreter allows
    try:
        threaded = run(cfg.grad_accum)  # more workers than cores
    finally:
        sys.setswitchinterval(switch)
    for other in (run(1), run(None)):
        assert threaded[0] == other[0]
        for got, want in zip(threaded[1], other[1]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bench_tracer_counts_one_merge_step_and_gather_per_step(tmp_path, monkeypatch):
    # bench/tracing.py times the step through these names; work moved off them
    # would vanish from its per-layer table without failing anything else
    import importlib.util

    from sparsevolve.delta import EditMap

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    maps: dict[str, int] = {}
    rebuilds: dict[str, int] = {}
    real_init, real_rebuild = EditMap.__init__, EditMap.rebuild

    def counted_init(self, name, indices, numel):
        maps[name] = maps.get(name, 0) + 1
        real_init(self, name, indices, numel)

    def counted_rebuild(self, delta, optim=None):
        rebuilds[self.name] = rebuilds.get(self.name, 0) + 1
        real_rebuild(self, delta, optim)

    monkeypatch.setattr(EditMap, "__init__", counted_init)
    monkeypatch.setattr(EditMap, "rebuild", counted_rebuild)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    seen = []
    try:
        cfg = cfg_for(tmp_path, steps=10, every=5, eval_every=0, run_name="traced")
        tracer.wrap("job", lambda: train(cfg, on_event=seen.append))()
    finally:
        restore()
    calls = {n: c["calls"] for n, c in tracing.summarize(tracer.names, tracer.arrays())["spans"].items()}
    events = cfg.steps // cfg.every
    tensors = len(seen[0].delta.slices)
    assert calls["delta.adamw_step"] == calls["delta.gather_grads"] == cfg.steps
    assert calls["delta.materialize"] == 1 + cfg.steps  # an event step merges once, after the event
    assert calls["evolution.evolve"] == calls["adaptation.adaptation_step"] == events
    # one scorer call per event, and one support read per tensor in it: the bench's
    # per-layer rows time the scorer's support read through these names
    assert calls["adaptation.compute_sensitivity"] == events
    assert calls["adaptation.support_coords"] == events * tensors
    # evolution and adaptation edit one map per tensor per event, and its entries are
    # rebuilt once at most, when the event ends, never once per edit: per-edit merges
    # (insert_entries/remove_entries) stay off the event path
    assert maps == {name: events for name in seen[0].delta.slices}
    assert rebuilds and max(rebuilds.values()) <= events
    assert calls["delta.insert_entries"] == calls["delta.remove_entries"] == 0


@pytest.mark.parametrize("grad_accum", [1, 2])
def test_accumulated_gradients_are_the_tree_gradients_at_grad_accum_1(tmp_path, monkeypatch, grad_accum):
    # x / 1 is exact, so dividing at grad_accum 1 only costs a dense copy per tensor per step
    trees, folds, steps = [], [], []
    real_build, real_pass, real_accumulate = train_mod.build_transformer, train_mod._backward_pass, train_mod.GradAccumulator.accumulate

    def build(*args, **kwargs):
        tree, forward = real_build(*args, **kwargs)
        trees.append(tree)
        return tree, forward

    def backward_pass(*args, **kwargs):
        loss, grads = real_pass(*args, **kwargs)
        folds.append(grads)
        return loss, grads

    def accumulate(self, grads):
        for name, t in trees[-1].named_prunable():
            if grad_accum == 1:
                assert grads[name] is folds[-1][t]
            else:
                assert grads[name].tobytes() == (folds[-1][t] / grad_accum).tobytes()
        steps.append(len(grads))
        real_accumulate(self, grads)

    monkeypatch.setattr(train_mod, "build_transformer", build)
    monkeypatch.setattr(train_mod, "_backward_pass", backward_pass)
    monkeypatch.setattr(train_mod.GradAccumulator, "accumulate", accumulate)
    cfg = cfg_for(tmp_path, steps=3, every=5, eval_every=0, grad_accum=grad_accum)
    train(cfg)
    assert steps == [len(trees[-1].prunable_names())] * cfg.steps
