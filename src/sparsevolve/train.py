"""End-to-end training loop, evaluation, and metrics emission.

One loop drives every method: the evolving sparse delta (optionally
mask-constrained), low-rank adapters with optional post-hoc re-pruning, and
the frozen pruned baseline. Runs are deterministic given a config and seed:
the metrics CSV and checkpoints are bitwise reproducible. Wall-clock numbers
go to a separate timings file so they cannot perturb that guarantee.

Per-batch passes (a step's micro-batches, held-out evaluation, and the
calibration inside pruning) run through ``parallel.ordered_map``: on threads
when the batches are large enough, inline otherwise, and always folded in
batch order, so the thread count never changes a bit of the results.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas_threads, malloc_tuned
from . import checkpoint as ckpt
from . import parallel
from .adaptation import (
    CRITERIA,
    CRITERION_SENSITIVITY,
    SOURCE_PRETRAINED,
    SOURCES,
    AdaptationReport,
    adaptation_step,
    merged_support_sparsity,
)
from .autodiff import Tensor
from .data import IGNORE, Task, make_task
from .delta import (
    DenseAdamW,
    EditMap,
    SparseDelta,
    adamw_step,
    allocate_budget,
    gather_grads,
    init_support,
    materialize,
)
from .evolution import EvolutionReport, EvolutionSchedule, GradAccumulator, drop_quota, evolve
from .lora import adapter_records, adapters_from_records, build_adapters, merge_and_reprune
from .models import ModelConfig, ParamTree, build_transformer
from .pruning import SCORERS, Mask, apply_mask, masked_base, prune_model

METHODS = ("seft", "seft-constrained", "lora", "lora-star", "frozen")
OUT_ENV = "SPARSEVOLVE_OUT"


class NumericFailure(RuntimeError):
    """Training hit a non-finite loss; surfaced as exit code 3 by the CLI."""


def parse_nm(text: str, source: str) -> tuple[int, int]:
    """``"N:M"`` as ``(N, M)``, integers with 1 <= N <= M; ``source`` names the option in the error."""
    n, sep, m = text.partition(":")
    if sep and n.isdecimal() and m.isdecimal() and 1 <= int(n) <= int(m):
        return int(n), int(m)
    raise ValueError(f"{source} expects N:M such as 2:4, got {text!r}")


@dataclass
class TrainConfig:
    # model
    vocab: int = 256
    dim: int = 128
    heads: int = 4
    blocks: int = 2
    ff_mult: int = 4
    context: int = 64
    # task
    task: str = "char-lm"
    corpus: str | None = None
    copy_vocab: int = 16
    # sparsity
    sparsity: float = 0.6
    pruner: str = "wanda"  # one of pruning.SCORERS
    nm: str = ""  # "N:M" (e.g. "2:4") keeps N of every M consecutive input weights; "" is unstructured
    # method
    method: str = "seft"
    rank: int = 32
    lr: float = 1e-3
    steps: int = 1000
    every: int = 10
    drop_rate: float = 0.2
    grad_accum: int = 8
    batch_size: int = 8
    seed: int = 0
    eval_every: int = 100
    calib_batches: int = 8
    adapt: bool = True
    adapt_criterion: str = CRITERION_SENSITIVITY
    adapt_source: str = SOURCE_PRETRAINED
    cosine: bool = True
    # io
    out_dir: str | None = None
    run_name: str | None = None
    base_checkpoint: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if self.every < 1 or self.grad_accum < 1 or self.batch_size < 1:
            raise ValueError("every, grad_accum and batch_size must be >= 1")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in (0, 1), got {self.drop_rate}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.copy_vocab < 1:
            raise ValueError(f"copy_vocab must be >= 1, got {self.copy_vocab}")
        if self.pruner not in SCORERS:
            raise ValueError(f"unknown pruner {self.pruner!r}; expected one of {SCORERS}")
        if self.pruner == "wanda" and self.calib_batches < 1:
            raise ValueError(f"the wanda pruner needs calib_batches >= 1, got {self.calib_batches}")
        if self.adapt_criterion not in CRITERIA:
            raise ValueError(f"unknown adapt_criterion {self.adapt_criterion!r}; expected one of {CRITERIA}")
        if self.adapt_source not in SOURCES:
            raise ValueError(f"unknown adapt_source {self.adapt_source!r}; expected one of {SOURCES}")
        nm = self.nm_pair()
        if nm and not math.isclose(self.sparsity, 1.0 - nm[0] / nm[1]):
            raise ValueError(
                f"sparsity {self.sparsity} disagrees with {self.nm}, which keeps exactly 1 - N/M = {1.0 - nm[0] / nm[1]}"
            )
        if self.task == "char-lm" and self.corpus is None:
            raise ValueError("char-lm task requires a corpus")

    def nm_pair(self) -> tuple[int, int] | None:
        """The N:M pattern as ``(N, M)``, or None for unstructured masks."""
        return parse_nm(str(self.nm), "nm") if self.nm else None

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab=self.vocab,
            dim=self.dim,
            heads=self.heads,
            blocks=self.blocks,
            ff_mult=self.ff_mult,
            context=self.context,
            seed=self.seed,
        )

    def check_vocab(self, task: Task) -> None:
        """Raise ValueError unless the model's vocabulary covers every token id of ``task``."""
        if task.vocab > self.vocab:
            raise ValueError(f"task {self.task!r} has {task.vocab} token ids, more than the model's vocabulary of {self.vocab}")

    def resolve_out_dir(self) -> str:
        return self.out_dir or os.environ.get(OUT_ENV, ".")

    def to_dict(self) -> dict:
        # every field is a scalar or a string: no deep copy (dataclasses.asdict) needed
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "TrainConfig":
        """The file's fields with ``overrides`` laid over them."""
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
        if overrides:
            d.update(overrides)
        return cls.from_dict(d)


@dataclass
class EventState:
    """Snapshot handed to the optional per-event callback during training."""

    step: int
    masks: dict[str, Mask]
    delta: SparseDelta
    evolution: EvolutionReport
    adaptation: AdaptationReport | None


@dataclass
class TrainResult:
    checkpoint: str
    metrics: str
    timings: str
    final_ppl: float
    final_sparsity: float | None
    eval_history: list[tuple[int, float]] = field(default_factory=list)
    reactivations: int = 0
    grown: int = 0
    trainable_params: int = 0

    @property
    def reactivation_fraction(self) -> float:
        return self.reactivations / self.grown if self.grown else 0.0


class MetricsWriter:
    """Single CSV with a fixed header; one row kind per event type.

    Rows are buffered, not flushed one by one: ``close`` (which ``train``
    calls in a ``finally``) writes what is left, also when the run raises.
    """

    BASE_COLS = [
        "kind",
        "step",
        "train_loss",
        "eval_ppl",
        "quota",
        "drops",
        "grows",
        "reactivation_fraction",
        "shortfall",
        "pruned_base",
        "pruned_delta",
        "repaired",
        "sparsity_global",
    ]

    def __init__(self, path: str, tensor_names: list[str]):
        self.cols = self.BASE_COLS + [f"sparsity:{n}" for n in tensor_names]
        self._f = open(path, "w", encoding="utf-8", newline="")
        self._f.write(",".join(self.cols) + "\n")

    @staticmethod
    def _fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def row(self, kind: str, **values) -> None:
        values["kind"] = kind
        self._f.write(",".join(self._fmt(values.get(c)) for c in self.cols) + "\n")

    def close(self) -> None:
        self._f.close()


def _eval_batch(forward, tree: ParamTree, vocab: int, adapters, batch) -> tuple[float, int]:
    """Mean NLL of one validation batch and the number of tokens it scores."""
    x, y = batch
    logits = forward(tree, x, adapters=adapters)
    flat_y = y.reshape(-1)
    loss = ad.cross_entropy(ad.reshape(logits, (-1, vocab)), flat_y, ignore_index=IGNORE)
    return loss.item(), int((flat_y != IGNORE).sum())


def evaluate_ppl(forward, tree: ParamTree, val_batches, vocab: int, adapters=None) -> float:
    """exp(mean token NLL) over the validation batches; deterministic.

    The batches run through ``parallel.ordered_map``, and their losses are
    folded in batch order, so the result is bitwise that of a one-thread loop.
    """
    batches = list(val_batches)
    run = functools.partial(_eval_batch, forward, tree, vocab, adapters)
    elements = parallel.batch_elements(tree, batches[0][0]) if batches else 0
    total = 0.0
    count = 0
    for loss, n in parallel.ordered_map(run, batches, elements):
        total += loss * n
        count += n
    if count == 0:
        raise ValueError("evaluate_ppl: validation set has no scored tokens")
    return float(np.exp(total / count))


def _prune(cfg: TrainConfig, tree: ParamTree, forward, task: Task) -> tuple[dict[str, Mask], dict[str, np.ndarray]]:
    if cfg.base_checkpoint:
        state = ckpt.load_state(cfg.base_checkpoint)
        if state.deltas:
            raise ValueError(
                f"base checkpoint {cfg.base_checkpoint} holds a sparse delta, which a fine-tune would drop; `merge` folds it in"
            )
        if adapters_from_records(state.dense):
            raise ValueError(f"base checkpoint {cfg.base_checkpoint} holds LoRA adapters, which a fine-tune would drop")
        ckpt.load_into(tree, state.dense, cfg.base_checkpoint)
        if state.masks:
            masks = {name: Mask(name, bits) for name, bits in state.masks.items()}
            return masks, apply_mask(tree, masks)
    calib = task.calib(cfg.calib_batches)
    return prune_model(tree, forward, calib, cfg.sparsity, scorer=cfg.pruner, nm=cfg.nm_pair())


def _paths(cfg: TrainConfig) -> tuple[str, str, str]:
    out = cfg.resolve_out_dir()
    os.makedirs(out, exist_ok=True)
    name = cfg.run_name or f"{cfg.method}-{cfg.task}-s{cfg.seed}"
    return (
        os.path.join(out, f"{name}.ckpt"),
        os.path.join(out, f"{name}.metrics.csv"),
        os.path.join(out, f"{name}.timings.csv"),
    )


def train(cfg: TrainConfig, on_event=None) -> TrainResult:
    """Run the configured fine-tuning method end to end.

    Per the training loop: each step updates the delta (or adapters) from the
    micro-batch mean gradient; every ``cfg.every`` steps the delta support
    evolves (drop then grow) and, when enabled, sparsity adaptation trims the
    merged support back to budget on the same accumulated-gradient window.
    """
    mc = cfg.model_config()
    tree, forward = build_transformer(mc, dtype=np.float32)
    rng = np.random.default_rng(cfg.seed)
    task = _make_task_for(cfg)
    ckpt_path, metrics_path, timings_path = _paths(cfg)

    masks, theta = _prune(cfg, tree, forward, task)

    metrics = MetricsWriter(metrics_path, list(masks))
    timings = open(timings_path, "w", encoding="utf-8")
    timings.write("step,wall_ms\n")

    result = TrainResult(
        checkpoint=ckpt_path,
        metrics=metrics_path,
        timings=timings_path,
        final_ppl=float("nan"),
        final_sparsity=None,
    )

    def eval_row(step: int, train_loss: float | None, delta: SparseDelta | None, adapters=None, quota=None) -> float:
        ppl = evaluate_ppl(forward, tree, task.val_batches, mc.vocab, adapters=adapters)
        g, per = merged_support_sparsity(masks, delta)
        row = {
            "step": step,
            "train_loss": train_loss,
            "eval_ppl": ppl,
            "quota": quota,
            "sparsity_global": g,
        }
        row.update({f"sparsity:{n}": s for n, s in per.items()})
        metrics.row("eval", **row)
        result.eval_history.append((step, ppl))
        result.final_ppl = ppl
        result.final_sparsity = g
        return ppl

    try:
        if cfg.method == "frozen" or cfg.steps == 0:
            eval_row(0, None, None)
            _save_state(cfg, tree, task, theta, masks, None, ckpt_path, result)
            return result

        eval_row(0, None, None)

        if cfg.method in ("seft", "seft-constrained"):
            _train_sparse_delta(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result, on_event)
            return result
        _train_lora(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result)
        return result
    finally:
        metrics.close()
        timings.close()


def _make_task_for(cfg: TrainConfig) -> Task:
    task = make_task(cfg.task, cfg.context, cfg.batch_size, cfg.seed, corpus=cfg.corpus, copy_vocab=cfg.copy_vocab)
    cfg.check_vocab(task)
    return task


def _micro_batch(forward, tree, adapters, vocab: int, batch) -> tuple[float, dict]:
    """Forward and backward of one micro-batch; returns its loss and its leaf-gradient store."""
    x, y = batch
    with ad.Tape():
        logits = forward(tree, x, adapters=adapters)
        loss = ad.cross_entropy(ad.reshape(logits, (-1, vocab)), y.reshape(-1), ignore_index=IGNORE)
        del logits  # no VJP reads the logits, so dropping them here frees them before backward
        store = ad.backward(loss)
    return loss.item(), store


def _backward_pass(cfg: TrainConfig, tree, forward, task, rng, vocab: int, adapters=None) -> tuple[float, dict[Tensor, np.ndarray]]:
    """The mean loss over the micro-batches and each trained leaf's summed gradient.

    The batches are drawn first, in order; the micro-batches then run through
    ``parallel.ordered_map``. Their losses and gradient contributions are
    folded in micro-batch order, so the sums are bitwise those of running
    them one after another.
    """
    batches = [task.train_batch(rng) for _ in range(cfg.grad_accum)]
    run = functools.partial(_micro_batch, forward, tree, adapters, vocab)
    loss_sum = 0.0
    grads: dict[Tensor, np.ndarray] = {}
    for loss, store in parallel.ordered_map(run, batches, parallel.batch_elements(tree, batches[0][0])):
        loss_sum += loss
        ad.accumulate(grads, store)
        del store  # not kept alive while waiting for the next micro-batch
    mean = loss_sum / cfg.grad_accum
    if not np.isfinite(mean):
        raise NumericFailure(f"non-finite training loss {mean} (method={cfg.method}, seed={cfg.seed})")
    return mean, grads


def _train_sparse_delta(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result, on_event):
    schedule = EvolutionSchedule(
        drop_rate=cfg.drop_rate,
        total_steps=cfg.steps,
        every=cfg.every,
        restrict_growth=bool(cfg.nm) or cfg.method == "seft-constrained",
        cosine=cfg.cosine,
    )
    budgets = allocate_budget(tree, cfg.rank)
    delta = init_support(theta, masks, budgets, restrict_to_mask=schedule.restrict_growth)
    optim = DenseAdamW({name: (td, "values") for name, td in delta.slices.items()})
    acc = GradAccumulator({n: t.data.shape for n, t in tree.named_prunable()})
    result.trainable_params = optim.w.size

    tree.set_requires_grad(False)
    tree.set_requires_grad(True, names=tree.prunable_names())
    base = masked_base(theta, masks)  # a cache of the mask bits: the adaptation trim zeroes what it clears
    materialize(tree, base, delta)

    train_loss = None
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        train_loss, grads = _backward_pass(cfg, tree, forward, task, rng, cfg.vocab)
        if cfg.grad_accum == 1:  # x / 1 is exact: pass the gradients through, no dense copies
            dense_grads = {n: grads[t] for n, t in tree.named_prunable()}
        else:
            dense_grads = {n: grads[t] / cfg.grad_accum for n, t in tree.named_prunable()}
        del grads  # dense_grads holds what the step reads
        acc.accumulate(dense_grads)
        adamw_step(delta, optim, gather_grads(delta, dense_grads), cfg.lr)
        del dense_grads  # this step's gradients are not kept alive into the next backward

        event = step % cfg.every == 0
        if event:  # one edit map per tensor for the whole event, rebuilt once at its end
            edits = {name: EditMap(name, td.indices, masks[name].bits.size) for name, td in delta.slices.items()}
            report = evolve(delta, edits, acc.sums, masks, schedule, step)
            result.reactivations += report.reactivations
            result.grown += report.grown
            metrics.row(
                "evolve",
                step=step,
                quota=report.quota,
                drops=report.dropped,
                grows=report.grown,
                reactivation_fraction=report.reactivation_fraction,
                shortfall=report.shortfall,
            )
            arep = None
            if cfg.adapt:
                arep = adaptation_step(
                    acc.sums,
                    theta,
                    masks,
                    delta,
                    edits,
                    cfg.sparsity,
                    base,
                    criterion=cfg.adapt_criterion,
                    source=cfg.adapt_source,
                    restrict_to_mask=schedule.restrict_growth,
                )
                row = {
                    "step": step,
                    "pruned_base": arep.pruned_base,
                    "pruned_delta": arep.pruned_delta,
                    "repaired": arep.repaired,
                    "sparsity_global": arep.merged_sparsity,
                }
                row.update({f"sparsity:{n}": s for n, s in arep.per_tensor_sparsity.items()})
                metrics.row("adapt", **row)
            for entries in edits.values():
                entries.rebuild(delta, optim)
            optim.relayout()
            for sums in acc.sums.values():  # the next window starts from zero, in place
                sums.fill(0.0)
        materialize(tree, base, delta)  # once per step, after the event on an event step
        if event and on_event is not None:
            on_event(EventState(step, masks, delta, report, arep))

        timings.write(f"{step},{(time.perf_counter() - t0) * 1000:.3f}\n")
        if step == cfg.steps or (cfg.eval_every and step % cfg.eval_every == 0):
            eval_row(step, train_loss, delta, quota=drop_quota(step, schedule, delta.budget_total))

    _save_state(cfg, tree, task, theta, masks, delta, result.checkpoint, result)


def _train_lora(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result):
    adapters = build_adapters(tree, cfg.rank, seed=cfg.seed + 1)
    tree.set_requires_grad(False)
    params = {f"{name}.lora_{ab}": (getattr(adapter, ab), "data") for name, adapter in adapters.items() for ab in "ab"}
    opt = DenseAdamW(params)
    result.trainable_params = opt.w.size

    train_loss = None
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        train_loss, grads = _backward_pass(cfg, tree, forward, task, rng, cfg.vocab, adapters=adapters)
        g = np.concatenate([grads[t] for t, _ in params.values()], axis=None, dtype=np.float64)
        g *= 1.0 / cfg.grad_accum
        opt.step(g, cfg.lr)
        del grads, g  # not kept alive into the next backward
        timings.write(f"{step},{(time.perf_counter() - t0) * 1000:.3f}\n")
        if step == cfg.steps or (cfg.eval_every and step % cfg.eval_every == 0):
            eval_row(step, train_loss, None, adapters=adapters)

    if cfg.method == "lora-star":
        new_masks, merged = merge_and_reprune(
            tree, forward, masks, adapters, task.calib(cfg.calib_batches), cfg.sparsity, scorer=cfg.pruner, nm=cfg.nm_pair()
        )
        theta.update(merged)
        masks.clear()
        masks.update(new_masks)
        eval_row(cfg.steps, train_loss, None)
        _save_state(cfg, tree, task, theta, masks, None, result.checkpoint, result)
    else:
        _save_state(cfg, tree, task, theta, masks, None, result.checkpoint, result, extra_dense=adapter_records(adapters))


def _save_state(cfg, tree, task, theta, masks, delta, path, result, extra_dense=None):
    records = ckpt.state_records(tree, theta, masks, delta, extra_dense=extra_dense)
    ckpt.write_checkpoint(path, records)
    meta = {
        "config": cfg.to_dict(),
        "final_ppl": result.final_ppl,
        "final_sparsity": result.final_sparsity,
        "trainable_params": result.trainable_params,
        "blas_threads": blas_threads(),
        # the step's rule, on a validation batch: shaped as a training batch unless a corpus's
        # validation split holds fewer windows than one batch
        "micro_batch_workers": parallel.workers(cfg.grad_accum, parallel.batch_elements(tree, task.val_batches[0][0])),
        "malloc_tuned": malloc_tuned(),
    }
    ckpt.save_meta(path, meta)
