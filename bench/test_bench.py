"""Self-tests of the benchmark: planted violations must be reported as failed jobs.

Run from the repository root with ``python3 -m pytest bench -q`` (a few
seconds; the fixtures train a tiny copy-task model in-process).
"""

import json
import os
import shutil
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import job as job_module  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from sparsevolve.train import TrainConfig, train  # noqa: E402
from workloads import WORKLOADS, Workload, make_corpus  # noqa: E402

TINY = dict(
    task="copy", vocab=32, dim=16, heads=2, blocks=1, ff_mult=2, context=8, batch_size=2, grad_accum=1,
    rank=2, every=5, drop_rate=0.3, sparsity=0.6, eval_every=10, calib_batches=2, seed=3,
)
SEFT = Workload(name="tiny", why="test", config={"method": "seft"}, corpus=False, prune_jobs=1, eval_jobs=1, beats_frozen=True)


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A real frozen prune and a 10-step fine-tune of a tiny copy-task model."""
    out = str(tmp_path_factory.mktemp("artefacts"))
    frozen = train(TrainConfig(method="frozen", steps=0, out_dir=out, run_name="base", **TINY))
    cfg = TrainConfig(method="seft", steps=10, out_dir=out, run_name="ft", **TINY)
    res = train(cfg)
    return SimpleNamespace(out=out, cfg=cfg, frozen_ppl=frozen.final_ppl, res=res)


def finetune_job(res, name="ft0", **overrides) -> run.Job:
    result = {"ok": True, "checkpoint": res.checkpoint, "metrics": res.metrics, "timings": res.timings, "final_ppl": res.final_ppl}
    result.update(overrides)
    return run.Job("finetune", name, result)


def judge(a, jobs, ledger=None):
    return run.judge_finetunes(jobs, a.cfg, SEFT, a.frozen_ppl, None, {} if ledger is None else ledger, "key")


def test_clean_artefacts_pass(artefacts):
    a = artefacts
    ft = finetune_job(a.res)
    supports = judge(a, [ft])
    assert ft.ok, ft.errors
    ev = run.Job("eval", "eval0", {"ok": True, "stdout": f"val perplexity {a.res.final_ppl:.6f}\n"})
    run.judge_outputs([ev], run.Job("merge", "merge", {"ok": False}), run.Job("inspect", "inspect", {"ok": False}), a.res.final_ppl, supports)
    assert ev.ok, ev.errors


def test_adapt_row_one_coordinate_off_budget_fails(artefacts, tmp_path):
    a = artefacts
    with open(a.res.metrics, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    col = next(i for i, c in enumerate(header) if c.startswith("sparsity:"))
    numel = TINY["dim"] * TINY["dim"]  # the first prunable tensor is an attention projection
    row_i = next(i for i, line in enumerate(lines) if line.startswith("adapt,"))
    row = lines[row_i].split(",")
    row[col] = repr(float(row[col]) - 1.0 / numel)  # one more active coordinate
    lines[row_i] = ",".join(row)
    planted = tmp_path / "planted.metrics.csv"
    planted.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ft = finetune_job(a.res, metrics=str(planted))
    judge(a, [ft])
    assert not ft.ok
    assert any("support" in e and "budget" in e for e in ft.errors)


def test_evolve_row_breaking_conservation_fails(artefacts, tmp_path):
    a = artefacts
    with open(a.res.metrics, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    header = lines[0].split(",")
    row_i = next(i for i, line in enumerate(lines) if line.startswith("evolve,"))
    row = lines[row_i].split(",")
    row[header.index("grows")] = str(int(row[header.index("grows")]) - 1)
    lines[row_i] = ",".join(row)
    planted = tmp_path / "planted.metrics.csv"
    planted.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ft = finetune_job(a.res, metrics=str(planted))
    judge(a, [ft])
    assert not ft.ok
    assert any("drops" in e for e in ft.errors)


def test_mismatched_eval_ppl_fails(artefacts):
    a = artefacts
    ev = run.Job("eval", "eval0", {"ok": True, "stdout": f"val perplexity {a.res.final_ppl + 1e-4:.6f}\n"})
    run.judge_outputs([ev], run.Job("merge", "merge", {"ok": False}), run.Job("inspect", "inspect", {"ok": False}), a.res.final_ppl, {})
    assert not ev.ok
    assert any("eval ppl" in e for e in ev.errors)


def test_differing_artefact_hashes_fail(artefacts, tmp_path):
    a = artefacts
    changed = tmp_path / "changed.ckpt"
    shutil.copy(a.res.checkpoint, changed)
    blob = bytearray(changed.read_bytes())
    blob[-2] ^= 0x01  # low mantissa bits of the last delta value: still a valid checkpoint
    changed.write_bytes(bytes(blob))

    first, second = finetune_job(a.res, "ft0"), finetune_job(a.res, "ft1", checkpoint=str(changed))
    judge(a, [first, second])
    assert first.ok, first.errors
    assert not second.ok
    assert any("sha256" in e for e in second.errors)

    # a ledger entry from an earlier run of the same code and seed counts too
    stale = {"key": {"checkpoint": "0" * 64, "metrics": checks.sha256_file(a.res.metrics)}}
    again = finetune_job(a.res)
    judge(a, [again], ledger=stale)
    assert not again.ok


def test_not_beating_the_frozen_baseline_fails(artefacts):
    a = artefacts
    ft = finetune_job(a.res)
    run.judge_finetunes([ft], a.cfg, SEFT, a.res.final_ppl, None, {}, "key")
    assert not ft.ok


def test_unpinned_blas_fails_the_job(monkeypatch, tmp_path):
    import envinfo

    monkeypatch.setattr(envinfo, "blas_info", lambda: {"threads": 2, "config": "test"})
    result = job_module.run({"kind": "prune", "root": ROOT, "trace": False})
    assert not result["ok"]
    assert "not 1" in result["error"]


def test_invariant_checker_flags_planted_events():
    import numpy as np
    from sparsevolve.delta import SparseDelta, TensorDelta
    from sparsevolve.pruning import Mask

    bits = np.zeros((4, 4), dtype=bool)
    bits[0] = True  # 4 of 16 active: sparsity 0.75
    delta = SparseDelta({"t": 2})
    delta.slices["t"] = TensorDelta(np.array([5, 6]), np.zeros(2, dtype=np.float32))  # support 6, over budget
    ev = SimpleNamespace(
        step=5,
        masks={"t": Mask("t", bits)},
        delta=delta,
        evolution=SimpleNamespace(dropped=3, grown=2, shortfall=0),
    )
    violations = []
    job_module._invariant_checker(0.75, True, violations)(ev)
    assert any("drops" in v for v in violations)
    assert any("support 6" in v for v in violations)


def test_tracing_covers_a_real_fine_tune_and_restores(tmp_path):
    from sparsevolve import delta, train as train_mod

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        cfg = TrainConfig(method="seft", steps=10, out_dir=str(tmp_path), run_name="traced", **TINY)
        res = tracer.wrap("job", lambda: train_mod.train(cfg))()
    finally:
        restore()
    assert train_mod.materialize is delta.materialize
    summary = tracing.summarize(tracer.names, tracer.arrays())
    spans = summary["spans"]
    assert spans["data.train_batch"]["calls"] == 10
    assert spans["evolution.evolve"]["calls"] == 2
    assert spans["autodiff.matmul.vjp"]["calls"] > 0
    assert 0 < summary["steps_wall_s"] < summary["wall_s"]
    assert 1.0 - summary["root_self_s"] / summary["wall_s"] > 0.9
    assert res.final_ppl == pytest.approx(res.eval_history[-1][1])


def test_self_time_subtracts_children():
    import numpy as np

    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert tracing.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]
    assert tracing.top_ancestor(parent, 0).tolist() == [0, 1, 1, 3]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert spec["end_to_end"][[m["name"] for m in spec["end_to_end"]].index("setup_s")]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_corpus_depends_on_the_seed_only():
    assert make_corpus(7, 4096) == make_corpus(7, 4096)
    assert make_corpus(7, 4096) != make_corpus(8, 4096)
    assert len(make_corpus(7, 4096)) == 4096
