"""End-to-end training loop, evaluation, and metrics emission.

One loop drives every method: the evolving sparse delta (optionally
mask-constrained), low-rank adapters with optional post-hoc re-pruning, and
the frozen pruned baseline. Runs are deterministic given a config and seed:
the metrics CSV and checkpoints are bitwise reproducible. Wall-clock numbers
go to a separate timings file so they cannot perturb that guarantee.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blas_threads, malloc_tuned
from . import checkpoint as ckpt
from .adaptation import (
    CRITERION_SENSITIVITY,
    SOURCE_PRETRAINED,
    AdaptationReport,
    adaptation_step,
    merged_support_sparsity,
)
from .autodiff import Tensor
from .data import IGNORE, Task, make_task
from .delta import (
    DeltaOptimState,
    SparseDelta,
    adamw_step,
    adamw_update,
    allocate_budget,
    gather_grads,
    init_support,
    materialize,
)
from .evolution import EvolutionReport, EvolutionSchedule, GradAccumulator, drop_quota, evolve
from .lora import build_adapters, merge_and_reprune, trainable_count
from .models import ModelConfig, ParamTree, build_transformer
from .pruning import Mask, prune_model

log = logging.getLogger(__name__)

METHODS = ("seft", "seft-constrained", "lora", "lora-star", "frozen")
OUT_ENV = "SPARSEVOLVE_OUT"


class NumericFailure(RuntimeError):
    """Training hit a non-finite loss; surfaced as exit code 3 by the CLI."""


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
    pruner: str = "wanda"  # magnitude | wanda
    pattern: str = "unstructured"  # unstructured | nm
    nm_n: int = 0
    nm_m: int = 0
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
        if self.pattern == "nm" and (self.nm_n < 1 or self.nm_m < 1):
            raise ValueError("N:M pattern requires nm_n and nm_m")
        if self.pattern == "nm" and not math.isclose(self.sparsity, 1.0 - self.nm_n / self.nm_m):
            raise ValueError(
                f"sparsity {self.sparsity} disagrees with {self.nm_n}:{self.nm_m}, which keeps exactly 1 - N/M = {1.0 - self.nm_n / self.nm_m}"
            )
        if self.pattern not in ("unstructured", "nm"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.task == "char-lm" and self.corpus is None:
            raise ValueError("char-lm task requires a corpus")

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

    def resolve_out_dir(self) -> str:
        return self.out_dir or os.environ.get(OUT_ENV, ".")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "TrainConfig":
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
    theta_dense: dict[str, np.ndarray]
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
    """Single CSV with a fixed header; one row kind per event type."""

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
        self.path = path
        self.tensor_names = list(tensor_names)
        self.cols = self.BASE_COLS + [f"sparsity:{n}" for n in self.tensor_names]
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
        self._f.flush()

    def close(self) -> None:
        self._f.close()


class DenseAdamW:
    """AdamW over whole tensors (used for the low-rank adapter baselines)."""

    def __init__(self, params: list[Tensor], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps, self.wd = beta1, beta2, eps, weight_decay
        self.m = [np.zeros(p.data.shape, dtype=np.float64) for p in params]
        self.v = [np.zeros(p.data.shape, dtype=np.float64) for p in params]
        self.step_count = 0

    def step(self, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64) * grad_scale
            p.data = adamw_update(p.data, g, m, v, self.step_count, self.lr, self.beta1, self.beta2, self.eps, self.wd)


def evaluate_ppl(forward, tree: ParamTree, val_batches, vocab: int, adapters=None) -> float:
    """exp(mean token NLL) over the validation batches; deterministic."""
    total = 0.0
    count = 0
    for x, y in val_batches:
        logits = forward(tree, x, adapters=adapters)
        flat_y = y.reshape(-1)
        loss = ad.cross_entropy(ad.reshape(logits, (-1, vocab)), flat_y, ignore_index=IGNORE)
        n = int((flat_y != IGNORE).sum())
        total += loss.item() * n
        count += n
    if count == 0:
        raise ValueError("evaluate_ppl: validation set has no scored tokens")
    return float(np.exp(total / count))


def _prune(cfg: TrainConfig, tree: ParamTree, forward, task: Task) -> tuple[dict[str, Mask], dict[str, np.ndarray]]:
    base_masks = None
    if cfg.base_checkpoint:
        base_masks = ckpt.load_into(tree, cfg.base_checkpoint).masks
    if base_masks:
        masks = {
            name: Mask(name, bits.astype(bool), pattern=cfg.pattern, n=cfg.nm_n, m=cfg.nm_m)
            for name, bits in base_masks.items()
        }
        theta = {name: t.data.copy() for name, t in tree.named_prunable()}
        for name, tensor in tree.named_prunable():
            tensor.data = np.where(masks[name].bits, tensor.data, np.zeros((), dtype=tensor.data.dtype))
        return masks, theta
    calib = task.calib(cfg.calib_batches)
    return prune_model(
        tree,
        forward,
        calib,
        cfg.sparsity,
        scorer=cfg.pruner,
        pattern=cfg.pattern,
        n=cfg.nm_n,
        m=cfg.nm_m,
    )


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
    materialize(tree, theta, masks, None)

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
            _save_state(cfg, tree, theta, masks, None, ckpt_path, result)
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
    return make_task(cfg.task, cfg.context, cfg.batch_size, cfg.seed, corpus=cfg.corpus, copy_vocab=cfg.copy_vocab)


def micro_batch_workers(grad_accum: int) -> int:
    """Threads that run a step's micro-batches: one per usable CPU, at most one per micro-batch."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(grad_accum, cpus)


@functools.cache
def _pool(workers: int):
    from concurrent.futures import ThreadPoolExecutor  # imported only by runs that use threads

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="micro-batch")


def _micro_batch(forward, tree, adapters, vocab: int, batch) -> tuple[float, dict]:
    """Forward and backward of one micro-batch; returns its loss and its own leaf-gradient store."""
    x, y = batch
    leaf_grads: dict = {}
    with ad.Tape():
        logits = forward(tree, x, adapters=adapters)
        loss = ad.cross_entropy(ad.reshape(logits, (-1, vocab)), y.reshape(-1), ignore_index=IGNORE)
        del logits  # backward frees each activation after its VJP, unless something else holds it
        ad.backward(loss, leaf_grads)
    return loss.item(), leaf_grads


def _backward_pass(cfg: TrainConfig, tree, forward, task, rng, vocab: int, adapters=None) -> float:
    """Accumulate gradients over the micro-batches; returns the mean loss.

    The batches are drawn first, in order; the micro-batches then run on
    ``micro_batch_workers`` threads (inline when that is one). Their losses
    and gradient contributions are folded in micro-batch order, so the sums
    are bitwise those of running them one after another.
    """
    batches = [task.train_batch(rng) for _ in range(cfg.grad_accum)]
    run = functools.partial(_micro_batch, forward, tree, adapters, vocab)
    workers = micro_batch_workers(cfg.grad_accum)
    results = map(run, batches) if workers == 1 else _pool(workers).map(run, batches)
    loss_sum = 0.0
    for loss, leaf_grads in results:
        loss_sum += loss
        ad.accumulate(leaf_grads)
        del leaf_grads  # not kept alive while waiting for the next micro-batch
    mean = loss_sum / cfg.grad_accum
    if not np.isfinite(mean):
        raise NumericFailure(f"non-finite training loss {mean} (method={cfg.method}, seed={cfg.seed})")
    return mean


def _train_sparse_delta(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result, on_event):
    schedule = EvolutionSchedule(
        drop_rate=cfg.drop_rate,
        total_steps=cfg.steps,
        every=cfg.every,
        structured=cfg.pattern == "nm",
        constrained=cfg.method == "seft-constrained",
        cosine=cfg.cosine,
    )
    budgets = allocate_budget(tree, cfg.rank)
    delta = init_support(theta, masks, budgets, restrict_to_mask=schedule.restrict_growth)
    optim = DeltaOptimState(delta)
    acc = GradAccumulator({n: t.data.shape for n, t in tree.named_prunable()})
    result.trainable_params = delta.budget_total

    tree.set_requires_grad(False)
    tree.set_requires_grad(True, names=tree.prunable_names())
    materialize(tree, theta, masks, delta)

    train_loss = None
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        tree.zero_grads()
        train_loss = _backward_pass(cfg, tree, forward, task, rng, cfg.vocab)
        dense_grads = {n: t.grad / cfg.grad_accum for n, t in tree.named_prunable()}
        acc.accumulate(dense_grads)
        adamw_step(delta, optim, gather_grads(delta, dense_grads), cfg.lr)
        materialize(tree, theta, masks, delta)

        if step % cfg.every == 0:
            report, window = evolve(delta, optim, acc, masks, schedule, step)
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
                    window,
                    theta,
                    masks,
                    delta,
                    optim,
                    cfg.sparsity,
                    step=step,
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
            materialize(tree, theta, masks, delta)
            if on_event is not None:
                on_event(EventState(step, masks, delta, theta, report, arep))

        timings.write(f"{step},{(time.perf_counter() - t0) * 1000:.3f}\n")
        if step == cfg.steps or (cfg.eval_every and step % cfg.eval_every == 0):
            eval_row(step, train_loss, delta, quota=drop_quota(step, schedule, delta.budget_total))

    _save_state(cfg, tree, theta, masks, delta, result.checkpoint, result)


def _train_lora(cfg, tree, forward, task, rng, masks, theta, metrics, timings, eval_row, result):
    adapters = build_adapters(tree, cfg.rank, seed=cfg.seed + 1)
    result.trainable_params = trainable_count(adapters)
    tree.set_requires_grad(False)
    params = []
    for a in adapters.values():
        params.extend([a.a, a.b])
    opt = DenseAdamW(params, lr=cfg.lr)

    train_loss = None
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        for p in params:
            p.zero_grad()
        train_loss = _backward_pass(cfg, tree, forward, task, rng, cfg.vocab, adapters=adapters)
        opt.step(grad_scale=1.0 / cfg.grad_accum)
        timings.write(f"{step},{(time.perf_counter() - t0) * 1000:.3f}\n")
        if step == cfg.steps or (cfg.eval_every and step % cfg.eval_every == 0):
            eval_row(step, train_loss, None, adapters=adapters)

    if cfg.method == "lora-star":
        merged, new_masks = merge_and_reprune(
            tree, forward, masks, adapters, task.calib(cfg.calib_batches), cfg.sparsity, scorer=cfg.pruner
        )
        theta.update(merged)
        masks.clear()
        masks.update(new_masks)
        eval_row(cfg.steps, train_loss, None)
        _save_state(cfg, tree, theta, masks, None, result.checkpoint, result)
    else:
        extra = {}
        for name, a in adapters.items():
            extra[f"{name}.lora_a"] = a.a.data
            extra[f"{name}.lora_b"] = a.b.data
        _save_state(cfg, tree, theta, masks, None, result.checkpoint, result, extra_dense=extra)


def _save_state(cfg, tree, theta, masks, delta, path, result, extra_dense=None):
    records = ckpt.state_records(tree, theta, masks, delta, extra_dense=extra_dense)
    ckpt.write_checkpoint(path, records)
    meta = {
        "config": cfg.to_dict(),
        "final_ppl": result.final_ppl,
        "final_sparsity": result.final_sparsity,
        "trainable_params": result.trainable_params,
        "blas_threads": blas_threads(),
        "micro_batch_workers": micro_batch_workers(cfg.grad_accum),
        "malloc_tuned": malloc_tuned(),
    }
    ckpt.save_meta(path, meta)
