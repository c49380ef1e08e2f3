"""Command-line interface.

Subcommands: prune, finetune, eval, merge, inspect, ablate. Options come from
an optional JSON config file plus flag overrides; the output directory falls
back to the SPARSEVOLVE_OUT environment variable. Exit codes: 0 ok, 1 usage,
2 invariant violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .data import make_task
from .delta import materialize  # noqa: F401  unused here; only bench/tracing.py patches it
from .lora import adapters_from_records
from .models import ModelConfig, build_transformer
from .train import NumericFailure, TrainConfig, evaluate_ppl, parse_nm, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, default=None, type=_parse_bool, metavar="BOOL")
        elif f.type == "int":
            p.add_argument(flag, default=None, type=int)
        elif f.type == "float":
            p.add_argument(flag, default=None, type=float)
        else:
            p.add_argument(flag, default=None)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _build_config(args: argparse.Namespace, **forced) -> TrainConfig:
    """The config file (if any) with the given flags, then ``forced``, laid over it."""
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(TrainConfig)}
    overrides = {k: v for k, v in overrides.items() if v is not None} | forced
    return TrainConfig.from_file(args.config, overrides) if args.config else TrainConfig.from_dict(overrides)


def _model_from_meta(path: str) -> tuple[ModelConfig, TrainConfig]:
    config = ckpt.load_meta(path)["config"]
    if "pattern" in config:  # older meta spelled the N:M pattern as three fields
        pattern, n, m = config.pop("pattern"), config.pop("nm_n"), config.pop("nm_m")
        config["nm"] = f"{n}:{m}" if pattern == "nm" else ""
    cfg = TrainConfig.from_dict(config)
    return cfg.model_config(), cfg


def cmd_prune(args) -> int:
    cfg = _build_config(args, method="frozen", steps=0)
    result = train(cfg)
    print(f"pruned checkpoint: {result.checkpoint}")
    print(f"val perplexity {result.final_ppl:.4f}  merged sparsity {result.final_sparsity:.6f}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _build_config(args)
    result = train(cfg)
    print(f"checkpoint: {result.checkpoint}")
    print(f"metrics:    {result.metrics}")
    print(f"final val perplexity {result.final_ppl:.4f}", end="")
    if result.final_sparsity is not None:
        print(f"  merged sparsity {result.final_sparsity:.6f}", end="")
    print(f"  trainable params {result.trainable_params}")
    return EXIT_OK


def cmd_eval(args) -> int:
    mc, cfg = _model_from_meta(args.checkpoint)
    tree, forward = build_transformer(mc, dtype=np.float32)
    state = ckpt.load_state(args.checkpoint)
    ckpt.load_into(tree, state.merged(), args.checkpoint)
    corpus = args.corpus or cfg.corpus
    task = make_task(cfg.task, cfg.context, cfg.batch_size, cfg.seed, corpus=corpus, copy_vocab=cfg.copy_vocab)
    cfg.check_vocab(task)
    ppl = evaluate_ppl(forward, tree, task.val_batches, mc.vocab, adapters=adapters_from_records(state.dense))
    print(f"val perplexity {ppl:.6f}")
    return EXIT_OK


def cmd_merge(args) -> int:
    ckpt.merge_checkpoint(args.checkpoint, args.out)
    print(f"merged dense checkpoint: {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    nm = parse_nm(args.nm, "--nm") if args.nm else None
    try:
        report = ckpt.inspect_checkpoint(args.checkpoint, nm=nm)
    except ckpt.CheckpointError as e:
        print(f"corrupt checkpoint: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"{'tensor':32s} {'numel':>10s} {'mask':>10s} {'delta':>8s} {'support':>10s} {'sparsity':>9s}")
    for row in report.rows:
        mask = "-" if row.mask_active is None else str(row.mask_active)
        spars = "-" if row.sparsity is None else f"{row.sparsity:.6f}"
        print(f"{row.name:32s} {row.numel:>10d} {mask:>10s} {row.delta_entries:>8d} {row.support:>10d} {spars:>9s}")
    if report.global_sparsity is not None:
        print(f"global merged sparsity: {report.global_sparsity:.6f}")
    print(f"delta support size: {report.delta_support}")
    if report.nm_violations:
        for name, r, g in report.nm_violations[:20]:
            print(f"N:M violation: {name} row {r} group {g}", file=sys.stderr)
        print(f"{len(report.nm_violations)} N:M violations", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# grid name -> (variant label, TrainConfig fields the variant overrides)
ABLATION_GRIDS: dict[str, list[tuple[str, dict]]] = {
    "droprate": [(f"alpha={a}", {"drop_rate": a}) for a in (0.05, 0.1, 0.2, 0.3)],
    "frequency": [(f"every={k}", {"every": k}) for k in (5, 10, 20, 40)],
    "constraint": [("unconstrained", {"method": "seft"}), ("constrained", {"method": "seft-constrained"})],
    "adaptation": [("with-adapt", {"adapt": True}), ("without-adapt", {"adapt": False})],
    "criterion": [("sensitivity", {"adapt_criterion": "sensitivity"}), ("magnitude", {"adapt_criterion": "magnitude"})],
    "lr": [(f"lr={lr}", {"lr": lr}) for lr in (1e-3, 3e-4, 1e-4)],
}


def cmd_ablate(args) -> int:
    base = _build_config(args)
    texts = [s.strip() for s in args.seeds.split(",")]
    if not all(s.isdecimal() for s in texts):  # checked before the first run, so no half-done grid
        raise ValueError(f"--seeds expects comma-separated non-negative integers such as 0,1,2, got {args.seeds!r}")
    seeds = [int(s) for s in texts]
    grid = args.grid
    out_dir = base.resolve_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    summary = os.path.join(out_dir, f"ablate-{grid}.csv")
    with open(summary, "w", encoding="utf-8") as f:
        f.write("variant,seed,final_ppl,final_sparsity,reactivation_fraction\n")
        for label, patch in ABLATION_GRIDS[grid]:
            for seed in seeds:
                d = base.to_dict()
                d.update(patch)
                d["seed"] = seed
                d["run_name"] = f"ablate-{grid}-{label.replace('=', '')}-s{seed}"
                result = train(TrainConfig.from_dict(d))
                spars = "" if result.final_sparsity is None else repr(result.final_sparsity)
                f.write(f"{label},{seed},{result.final_ppl!r},{spars},{result.reactivation_fraction!r}\n")
                print(f"{label} seed={seed}: ppl={result.final_ppl:.4f} sparsity={result.final_sparsity}")
    print(f"summary: {summary}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="sparsevolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="prune a model and save the sparse base checkpoint")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("finetune", help="fine-tune a pruned model")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate perplexity of a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--corpus", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("merge", help="materialize a sparse checkpoint as dense tensors")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("inspect", help="audit sparsity and format invariants")
    p.add_argument("checkpoint")
    p.add_argument("--nm", default=None, help="check N:M feasibility, e.g. 2:4")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("ablate", help="run a small ablation grid")
    p.add_argument("--grid", required=True, choices=list(ABLATION_GRIDS))
    p.add_argument("--seeds", default="0")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_ablate)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FileNotFoundError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
