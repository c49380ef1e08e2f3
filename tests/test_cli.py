import dataclasses
import json
import os
import re
import shlex
import shutil

import numpy as np
import pytest

from sparsevolve import checkpoint as ck
from sparsevolve import cli
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
        "prune", *BASE[:-4], "--nm", "2:4",
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


@pytest.mark.parametrize("nm", ["2", "a:b", "2:4:8", "0:4", "5:4"])
def test_a_malformed_nm_flag_names_the_expected_form(tmp_path, capsys, nm):
    assert run(["inspect", str(tmp_path / "any.ckpt"), "--nm", nm]) == EXIT_USAGE  # parsed before the file is read
    assert capsys.readouterr().err == f"error: --nm expects N:M such as 2:4, got {nm!r}\n"


def test_a_malformed_nm_config_key_names_the_expected_form(tmp_path, capsys):
    p = tmp_path / "nm.json"
    p.write_text(json.dumps({"task": "copy", "sparsity": 0.5, "nm": "2", "out_dir": str(tmp_path)}))
    assert run(["prune", "--config", str(p)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: nm expects N:M such as 2:4, got '2'\n"
    with pytest.raises(ValueError, match="expects N:M such as 2:4, got 'a:b'"):
        TrainConfig.from_dict({"task": "copy", "sparsity": 0.5, "nm": "a:b"})


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--drop-rate", "1.5"], "drop_rate must be in (0, 1), got 1.5"),
        (["--drop-rate", "0"], "drop_rate must be in (0, 1), got 0.0"),
        (["--rank", "0"], "rank must be >= 1, got 0"),
        (["--lr", "-1"], "lr must be finite and > 0, got -1.0"),
        (["--lr", "0"], "lr must be finite and > 0, got 0.0"),
        (["--lr", "inf"], "lr must be finite and > 0, got inf"),
        (["--lr", "nan"], "lr must be finite and > 0, got nan"),
        (["--nm", "5:4"], "nm expects N:M such as 2:4, got '5:4'"),
        (["--adapt-criterion", "foo"], "unknown adapt_criterion 'foo'; expected one of ('sensitivity', 'magnitude')"),
        (["--adapt-source", "foo"], "unknown adapt_source 'foo'; expected one of ('pretrained', 'merged')"),
        (["--pruner", "foo"], "unknown pruner 'foo'; expected one of ('magnitude', 'wanda')"),
        (["--eval-every", "-3"], "eval_every must be >= 0, got -3"),
        (["--copy-vocab", "0"], "copy_vocab must be >= 1, got 0"),
        (["--calib-batches", "0"], "the wanda pruner needs calib_batches >= 1, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--rank", "33"], "allocate_budget: budget 4224 exceeds numel 4096 for block0.attn.wq at rank 33"),
        (
            ["--method", "seft-constrained", "--sparsity", "0.9"],
            "init_support: budget 512 exceeds 448 active coordinates for block0.attn.wq",
        ),
    ],
)
def test_an_untrainable_config_is_refused_before_any_file_is_written(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["finetune", *BASE, *flags, "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"adapt": "no"}, "adapt must be of type bool, got 'no'"),
        ({"adapt": 1}, "adapt must be of type bool, got 1"),
        ({"grad_accum": 2.0}, "grad_accum must be of type int, got 2.0"),
        ({"steps": "ten"}, "steps must be of type int, got 'ten'"),
        ({"steps": True}, "steps must be of type int, got True"),
        ({"sparsity": None}, "sparsity must be of type float, got None"),
        ({"lr": False}, "lr must be of type float, got False"),
        ({"nm": 24}, "nm must be of type str, got 24"),
        ({"run_name": 7}, "run_name must be of type str | None, got 7"),
    ],
)
def test_a_config_value_of_the_wrong_json_type_is_refused_before_any_file_is_written(tmp_path, capsys, fields, message):
    out = tmp_path / "out"
    out.mkdir()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"task": "copy", "dim": 64, "context": 16, "steps": 2, "batch_size": 4, "calib_batches": 2, **fields}))
    assert run(["finetune", "--config", str(p), "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


def test_a_config_file_that_is_not_a_json_object_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    p = tmp_path / "cfg.json"
    p.write_text("[1, 2]")
    assert run(["finetune", "--config", str(p), "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config file {p} must hold a JSON object, got list\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", [["inspect", "{d}"], ["merge", "{d}", "--out", "{x}"], ["finetune", "--config", "{d}"]])
def test_a_directory_where_a_file_is_expected_is_one_error_line(tmp_path, capsys, command):
    d, x = tmp_path / "d", tmp_path / "x"
    d.mkdir()
    assert run([a.format(d=d, x=x) for a in command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(d) in err
    assert not x.exists()


@pytest.mark.parametrize("seeds", ["x", "0,x", "0,-1", "1.5", ""])
def test_ablate_refuses_malformed_seeds_before_any_run(tmp_path, capsys, seeds):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["ablate", "--grid", "adaptation", "--seeds", seeds, *BASE, "--out-dir", str(out)]) == EXIT_USAGE
    want = f"error: --seeds expects comma-separated non-negative integers such as 0,1,2, got {seeds!r}\n"
    assert capsys.readouterr().err == want
    assert os.listdir(out) == []


def test_a_base_checkpoint_holding_a_delta_is_refused_until_merged(tmp_path, capsys):
    assert run(["finetune", *BASE, "--out-dir", str(tmp_path), "--run-name", "seft"]) == EXIT_OK
    ckpt = str(tmp_path / "seft.ckpt")
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(["finetune", *BASE, "--base-checkpoint", ckpt, "--out-dir", str(out)]) == EXIT_USAGE
    want = f"error: base checkpoint {ckpt} holds a sparse delta, which a fine-tune would drop; `merge` folds it in\n"
    assert capsys.readouterr().err == want
    assert os.listdir(out) == []
    merged = str(tmp_path / "seft.merged.ckpt")
    assert run(["merge", ckpt, "--out", merged]) == EXIT_OK
    assert run(["finetune", *BASE, "--base-checkpoint", merged, "--out-dir", str(out)]) == EXIT_OK


def test_a_base_checkpoint_holding_lora_adapters_is_refused_and_so_is_its_merge(tmp_path, capsys):
    assert run(["finetune", *BASE, "--method", "lora", "--out-dir", str(tmp_path), "--run-name", "lora"]) == EXIT_OK
    ckpt = str(tmp_path / "lora.ckpt")
    merged = str(tmp_path / "lora.merged.ckpt")
    assert run(["merge", ckpt, "--out", merged]) == EXIT_OK
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    for base in (ckpt, merged):
        assert run(["finetune", *BASE, "--base-checkpoint", base, "--out-dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: base checkpoint {base} holds LoRA adapters, which a fine-tune would drop\n"
        assert os.listdir(out) == []


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


def test_nm_flags_override_the_config_files_nm_shorthand(tmp_path):
    cfg = {
        "task": "copy", "dim": 64, "context": 16, "batch_size": 4, "sparsity": 0.5,
        "nm": "2:4", "calib_batches": 2, "out_dir": str(tmp_path),
    }
    p = tmp_path / "nm.json"
    p.write_text(json.dumps(cfg))
    assert run(["prune", "--config", str(p), "--nm", "1:2", "--run-name", "nm12"]) == EXIT_OK
    ckpt = str(tmp_path / "nm12.ckpt")
    meta = ck.load_meta(ckpt)["config"]
    assert meta["nm"] == "1:2"
    assert run(["inspect", ckpt, "--nm", "1:2"]) == EXIT_OK  # one of every two kept, not two of four


@pytest.mark.parametrize("nm", ["", "2:4"])
def test_eval_reads_a_checkpoint_whose_meta_spells_the_pattern_as_three_fields(tmp_path, capsys, nm):
    assert run(["prune", *BASE, "--nm", nm, "--out-dir", str(tmp_path), "--run-name", "old"]) == EXIT_OK
    ckpt = str(tmp_path / "old.ckpt")
    capsys.readouterr()
    assert run(["eval", ckpt]) == EXIT_OK
    before = capsys.readouterr().out
    meta = ck.load_meta(ckpt)
    config = {}
    for key, value in meta["config"].items():
        if key == "nm":  # the three fields stood where nm stands
            n, m = nm.split(":") if nm else (0, 0)
            config.update(pattern="nm" if nm else "unstructured", nm_n=int(n), nm_m=int(m))
        else:
            config[key] = value
    meta["config"] = config
    with open(ckpt + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f)
    assert run(["eval", ckpt]) == EXIT_OK
    assert capsys.readouterr().out == before
    assert before.startswith("val perplexity ")


def readme_cli_lines() -> list[str]:
    """The ``sparsevolve ...`` lines of the README's CLI code block."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        block = re.search(r"^## CLI\n\n```\n(.*?)^```", f.read(), re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("sparsevolve ")]


def test_every_readme_cli_line_parses(monkeypatch):
    lines = readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == {"prune", "finetune", "eval", "merge", "inspect", "ablate"}

    def builds_config(args):
        cli._build_config(args)
        return EXIT_OK

    for name in ("prune", "finetune", "ablate"):
        monkeypatch.setattr(cli, f"cmd_{name}", builds_config)
    for name in ("eval", "merge", "inspect"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: EXIT_OK)
    for line in lines:
        assert run(shlex.split(line)[1:]) == EXIT_OK, line


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEVOLVE_OUT", str(tmp_path))
    code = run(["finetune", *BASE, "--run-name", "envrun"])
    assert code == EXIT_OK
    assert os.path.exists(tmp_path / "envrun.ckpt")


@pytest.mark.parametrize("method", ["seft", "lora", "lora-star"])
def test_eval_prints_the_final_ppl_of_a_checkpoint_and_its_merge(tmp_path, capsys, method):
    ckpt, merged = str(tmp_path / "m.ckpt"), str(tmp_path / "m-merged.ckpt")
    assert run(["finetune", *BASE, "--method", method, "--out-dir", str(tmp_path), "--run-name", "m"]) == EXIT_OK
    assert run(["merge", ckpt, "--out", merged]) == EXIT_OK
    want = f"val perplexity {json.load(open(ckpt + '.json'))['final_ppl']:.6f}"
    for path in (ckpt, merged):
        capsys.readouterr()
        assert run(["eval", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == want, path


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


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory):
    out = tmp_path_factory.mktemp("ft")
    assert run(["finetune", *BASE, "--out-dir", str(out), "--run-name", "ft"]) == EXIT_OK
    return out / "ft.ckpt"


def plant(records, case):
    """Break the first record of the case's kind: against the dense record of its name, or by a second of its name and kind."""
    kind = {"dense": ck.KIND_DENSE, "mask": ck.KIND_MASK, "delta": ck.KIND_DELTA}[case.split("-")[0]]
    rec = next(r for r in records if r.kind == kind)
    if case.endswith("-duplicate"):  # a later record of the same name and kind; a one-entry one for a delta
        twin = dataclasses.replace(rec)
        if kind == ck.KIND_DELTA:
            twin.indices, twin.values = rec.indices[:1], rec.values[:1]
        records.append(twin)
        return
    rows, cols = rec.shape
    if case == "mask-reshaped":  # the same bits under another shape
        rec.shape = (rows // 2, cols * 2)
        rec.bits = rec.bits.reshape(rec.shape)
    elif case == "delta-enlarged":  # an index past the dense tensor's end, in range of the record's own shape
        rec.shape = (rows * 2, cols * 2)
        rec.indices = np.append(rec.indices, rows * cols + 8)
        rec.values = np.append(rec.values, np.float32(0.5))
    else:  # no dense record of its name
        rec.name = "ghost.w"


@pytest.mark.parametrize(
    "case",
    ["mask-reshaped", "delta-enlarged", "mask-orphan", "delta-orphan", "dense-duplicate", "mask-duplicate", "delta-duplicate"],
)
def test_checkpoint_records_whose_shapes_disagree_are_refused(finetuned, tmp_path, capsys, case):
    ckpt = str(tmp_path / "bad.ckpt")
    records = ck.read_checkpoint(str(finetuned))
    plant(records, case)
    ck.write_checkpoint(ckpt, records)
    shutil.copy(str(finetuned) + ".json", ckpt + ".json")
    capsys.readouterr()
    assert run(["inspect", ckpt]) == EXIT_INVARIANT
    assert "corrupt checkpoint" in capsys.readouterr().err
    for argv in (["merge", ckpt, "--out", str(tmp_path / "merged.ckpt")], ["eval", ckpt]):
        assert run(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
        assert "Traceback" not in err


def test_ablation_grids_are_the_parser_choices_and_valid_configs(capsys):
    base = {"task": "copy"}
    for variants in ABLATION_GRIDS.values():
        assert len({label for label, _ in variants}) == len(variants) > 1
        for _, patch in variants:
            TrainConfig.from_dict({**base, **patch})
    assert run(["ablate", "--grid", "nonsense"]) == EXIT_USAGE
    assert "droprate" in capsys.readouterr().err


def test_a_record_name_that_is_not_utf8_is_a_corrupt_checkpoint(finetuned, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    blob = bytearray(finetuned.read_bytes())
    blob[8] = 0xFF  # the first byte of the first record's name: never valid UTF-8
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["inspect", str(ckpt)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("corrupt checkpoint: ") and err.rstrip().endswith("(at byte offset 8)"), err


@pytest.mark.parametrize("blob", [b"SEFT", b"SEFT\x01"])
def test_a_file_shorter_than_the_header_is_a_corrupt_checkpoint(finetuned, tmp_path, capsys, blob):
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(blob)
    shutil.copy(str(finetuned) + ".json", str(ckpt) + ".json")  # eval reads the meta first, then the file
    with pytest.raises(ck.CheckpointError, match=r"truncated version \(at byte offset 4\)"):
        ck.read_checkpoint(str(ckpt))
    capsys.readouterr()
    assert run(["inspect", str(ckpt)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "corrupt checkpoint: truncated version (at byte offset 4)\n"
    for argv in (["merge", str(ckpt), "--out", str(tmp_path / "merged.ckpt")], ["eval", str(ckpt)]):
        assert run(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err == "error: truncated version (at byte offset 4)\n", argv


def test_a_task_whose_token_ids_exceed_the_model_vocabulary_is_refused(finetuned, tmp_path, capsys):
    capsys.readouterr()
    assert run(["finetune", "--task", "modular-add", "--vocab", "32", "--steps", "1", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "task 'modular-add' has 256 token ids, more than the model's vocabulary of 32" in err
    assert "embedding" not in err  # refused where the task is built, before pruning's calibration runs the model
    ckpt = str(tmp_path / "ft.ckpt")
    shutil.copy(str(finetuned), ckpt)
    meta = json.loads(open(str(finetuned) + ".json").read())
    meta["config"]["copy_vocab"] = 300  # the model's vocabulary is the default 256
    with open(ckpt + ".json", "w") as f:
        json.dump(meta, f)
    assert run(["eval", ckpt]) == EXIT_USAGE
    assert "task 'copy' has 300 token ids, more than the model's vocabulary of 256" in capsys.readouterr().err
