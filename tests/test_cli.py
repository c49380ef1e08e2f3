import json
import os

import pytest

from sparsevolve import checkpoint as ck
from sparsevolve.cli import ABLATION_GRIDS, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from sparsevolve.train import TrainConfig


def run(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


BASE = [
    "--task", "copy", "--dim", "64", "--context", "16", "--steps", "20",
    "--every", "10", "--grad-accum", "1", "--batch-size", "4", "--rank", "4",
    "--sparsity", "0.5", "--eval-every", "20", "--calib-batches", "2",
]


def test_finetune_and_eval_roundtrip(tmp_path, capsys):
    code = run(["finetune", *BASE, "--out-dir", str(tmp_path), "--run-name", "r1"])
    assert code == EXIT_OK
    ckpt = str(tmp_path / "r1.ckpt")
    assert os.path.exists(ckpt)
    assert run(["eval", ckpt]) == EXIT_OK
    out = capsys.readouterr().out
    assert "val perplexity" in out


def test_prune_subcommand(tmp_path):
    code = run(["prune", *BASE, "--out-dir", str(tmp_path), "--run-name", "p1"])
    assert code == EXIT_OK
    state = ck.load_state(str(tmp_path / "p1.ckpt"))
    assert state.masks and not state.deltas


def test_merge_and_inspect(tmp_path, capsys):
    run(["finetune", *BASE, "--out-dir", str(tmp_path), "--run-name", "r2"])
    ckpt = str(tmp_path / "r2.ckpt")
    merged = str(tmp_path / "r2-merged.ckpt")
    assert run(["merge", ckpt, "--out", merged]) == EXIT_OK
    assert run(["inspect", ckpt]) == EXIT_OK
    out = capsys.readouterr().out
    assert "global merged sparsity" in out


def test_inspect_planted_violation_exits_nonzero(tmp_path, capsys):
    run([
        "prune", *BASE[:-4], "--nm-n", "2", "--nm-m", "4", "--pattern", "nm",
        "--out-dir", str(tmp_path), "--run-name", "v1",
    ])
    ckpt = str(tmp_path / "v1.ckpt")
    state = ck.load_state(ckpt)
    records = ck.read_checkpoint(ckpt)
    for rec in records:
        if rec.kind == ck.KIND_MASK and rec.name == "head.w":
            rec.bits[0, 0:4] = True  # 4 nonzeros in a 2:4 group
    ck.write_checkpoint(ckpt, records)
    assert run(["inspect", ckpt, "--nm", "2:4"]) == EXIT_INVARIANT
    assert "violation" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert run(["bogus"]) == EXIT_USAGE
    assert run(["finetune", "--method", "nonsense"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "task": "copy", "dim": 64, "context": 16, "steps": 10, "every": 5,
        "grad_accum": 1, "batch_size": 4, "rank": 4, "sparsity": 0.5,
        "eval_every": 10, "calib_batches": 2, "out_dir": str(tmp_path),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = run(["finetune", "--config", str(p), "--run-name", "cfgrun", "--steps", "5"])
    assert code == EXIT_OK
    meta = json.load(open(tmp_path / "cfgrun.ckpt.json"))
    assert meta["config"]["steps"] == 5


def test_config_file_nm_shorthand(tmp_path):
    cfg = {
        "task": "copy", "dim": 64, "context": 16, "steps": 0, "batch_size": 4,
        "sparsity": 0.5, "nm": "2:4", "calib_batches": 2, "out_dir": str(tmp_path),
        "method": "frozen",
    }
    p = tmp_path / "nm.json"
    p.write_text(json.dumps(cfg))
    assert run(["prune", "--config", str(p), "--run-name", "nmshort"]) == EXIT_OK
    assert run(["inspect", str(tmp_path / "nmshort.ckpt"), "--nm", "2:4"]) == EXIT_OK


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEVOLVE_OUT", str(tmp_path))
    code = run(["finetune", *BASE, "--run-name", "envrun"])
    assert code == EXIT_OK
    assert os.path.exists(tmp_path / "envrun.ckpt")


def test_eval_lora_checkpoint_uses_adapters(tmp_path, capsys):
    run(["finetune", *BASE, "--method", "lora", "--out-dir", str(tmp_path), "--run-name", "lr1"])
    meta = json.load(open(tmp_path / "lr1.ckpt.json"))
    assert run(["eval", str(tmp_path / "lr1.ckpt")]) == EXIT_OK
    out = capsys.readouterr().out
    ppl = float(out.strip().split()[-1])
    assert ppl == pytest.approx(meta["final_ppl"], rel=1e-6)


def test_ablate_adaptation_grid(tmp_path):
    code = run([
        "ablate", "--grid", "adaptation", "--seeds", "0", *BASE,
        "--steps", "30", "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    rows = open(tmp_path / "ablate-adaptation.csv").read().strip().split("\n")
    got = {r.split(",")[0]: float(r.split(",")[3]) for r in rows[1:]}
    assert got["with-adapt"] == pytest.approx(0.5, abs=1e-3)
    assert got["without-adapt"] < 0.5  # drifts denser without the adaptation stage


def test_ablate_constraint_grid(tmp_path):
    code = run([
        "ablate", "--grid", "constraint", "--seeds", "0", *BASE,
        "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    summary = open(tmp_path / "ablate-constraint.csv").read().strip().split("\n")
    assert summary[0].startswith("variant,seed")
    assert len(summary) == 3


def test_eval_rejects_a_checkpoint_whose_shapes_disagree_with_its_meta(tmp_path, capsys):
    assert run(["prune", *BASE, "--out-dir", str(tmp_path), "--run-name", "shp"]) == EXIT_OK
    meta_path = tmp_path / "shp.ckpt.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["ff_mult"] = 2  # same tensor names, narrower MLP
    meta_path.write_text(json.dumps(meta))
    assert run(["eval", str(tmp_path / "shp.ckpt")]) == EXIT_USAGE
    assert "shape mismatch" in capsys.readouterr().err


def test_ablation_grids_are_the_parser_choices_and_valid_configs(capsys):
    base = {"task": "copy"}
    for variants in ABLATION_GRIDS.values():
        assert len({label for label, _ in variants}) == len(variants) > 1
        for _, patch in variants:
            TrainConfig.from_dict({**base, **patch})
    assert run(["ablate", "--grid", "nonsense"]) == EXIT_USAGE
    assert "droprate" in capsys.readouterr().err
