"""Outside-in span tracing of one sparsevolve job.

Spans are recorded by wrapping each layer's public functions where their
callers bind them (``sparsevolve.train.materialize``, not only
``sparsevolve.delta.materialize``), so no line of the package changes. An
autodiff op is wrapped twice: its forward call, and the VJP closure on the tape
node it returns. Spans live in flat in-memory lists (name id, start, end,
parent) and are written out once, when the job ends.

Span names are ``<layer>.<function>``; the layer is the sparsevolve module the
function belongs to, not the module that calls it.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# autodiff ops the models and the training loop call (embedding's VJP never
# runs: no method trains the embeddings).
AUTODIFF_OPS = ("matmul", "add", "gelu", "layer_norm", "softmax", "cross_entropy", "transpose", "reshape", "embedding", "scale")


class Tracer:
    """Flat span store with a parent stack; one per job process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        nid = self._intern(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _matmul_flop(a, b) -> int:
    return 2 * math.prod(a.data.shape) * b.data.shape[-1]


def _wrap_op(tracer: Tracer, op: str, fn):
    """Span the op's forward call and, on the tape node it returns, its VJP.

    Inlined rather than built from ``Tracer.wrap``: ops run a few hundred
    times per step, so every call layer shows in the tracing overhead.
    """
    fwd_id = tracer._intern(f"autodiff.{op}.fwd")
    vjp_id = tracer._intern(f"autodiff.{op}.vjp")
    name_id, start, end, parent, stack = tracer.name_id, tracer.start, tracer.end, tracer.parent, tracer._stack
    counters = tracer.counters
    counters.setdefault("autodiff.tape_nodes", 0)
    counters.setdefault("autodiff.matmul.flop", 0)
    clock = time.perf_counter
    is_matmul = op == "matmul"

    def traced_vjp(vjp, flop):
        def vjp_span(g):
            i = len(start)
            name_id.append(vjp_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                grads = vjp(g)
            finally:
                end[i] = clock()
                stack.pop()
            if flop:
                counters["autodiff.matmul.flop"] += flop * sum(x is not None for x in grads)
            return grads

        return vjp_span

    def op_span(*args, **kwargs):
        i = len(start)
        name_id.append(fwd_id)
        parent.append(stack[-1])
        end.append(0.0)
        stack.append(i)
        start.append(clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            end[i] = clock()
            stack.pop()
        flop = _matmul_flop(args[0], args[1]) if is_matmul else 0
        if flop:
            counters["autodiff.matmul.flop"] += flop
        node = out.node
        if node is not None:
            counters["autodiff.tape_nodes"] += 1
            node.vjp = traced_vjp(node.vjp, flop)
        return out

    return op_span


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    from sparsevolve import adaptation, autodiff, checkpoint, cli, evolution, lora, pruning, train

    saved: list[tuple[object, str, object]] = []

    def patch(obj, attr: str, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def span(obj, attr: str, name: str):
        patch(obj, attr, tracer.wrap(name, getattr(obj, attr)))

    for op in AUTODIFF_OPS:
        patch(autodiff, op, _wrap_op(tracer, op, getattr(autodiff, op)))
    span(autodiff, "backward", "autodiff.backward")

    def build_transformer(fn):
        build = tracer.wrap("models.build_transformer", fn)

        def traced_build(*args, **kwargs):
            tree, forward = build(*args, **kwargs)
            return tree, tracer.wrap("models.forward", forward)

        return traced_build

    def make_task(fn):
        make = tracer.wrap("data.make_task", fn)

        def traced_make(*args, **kwargs):
            task = make(*args, **kwargs)
            task.train_batch = tracer.wrap("data.train_batch", task.train_batch)
            return task

        return traced_make

    for mod in (train, cli):
        patch(mod, "build_transformer", build_transformer(mod.build_transformer))
        patch(mod, "make_task", make_task(mod.make_task))
        span(mod, "materialize", "delta.materialize")
        span(mod, "evaluate_ppl", "train.evaluate_ppl")

    span(train, "prune_model", "pruning.prune_model")
    span(pruning, "collect_activation_norms", "pruning.collect_activation_norms")
    span(lora, "collect_activation_norms", "pruning.collect_activation_norms")

    for fn in ("adamw_step", "gather_grads", "init_support"):
        span(train, fn, f"delta.{fn}")
    for mod in (evolution, adaptation):
        span(mod, "insert_entries", "delta.insert_entries")
        span(mod, "remove_entries", "delta.remove_entries")

    span(train, "evolve", "evolution.evolve")
    span(evolution.GradAccumulator, "accumulate", "evolution.accumulate")

    span(train, "adaptation_step", "adaptation.adaptation_step")
    span(train, "merged_support_sparsity", "adaptation.merged_support_sparsity")
    for fn in ("support_coords", "compute_sensitivity", "rebuild_mask", "repair_support"):
        span(adaptation, fn, f"adaptation.{fn}")

    span(train.DenseAdamW, "step", "train.dense_adamw")
    span(train, "build_adapters", "lora.build_adapters")
    span(train, "merge_and_reprune", "lora.merge_and_reprune")

    write = tracer.wrap("checkpoint.write", checkpoint.write_checkpoint)

    def write_counted(path, records):
        write(path, records)
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    patch(checkpoint, "write_checkpoint", write_counted)
    span(checkpoint, "read_checkpoint", "checkpoint.read")
    span(checkpoint, "merge_checkpoint", "checkpoint.merge")
    span(checkpoint, "inspect_checkpoint", "checkpoint.inspect")

    def restore():
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)

    return restore


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the part its direct children cover (seconds)."""
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def top_ancestor(parent: np.ndarray, root: int) -> np.ndarray:
    """Index of each span's ancestor directly under ``root`` (itself at depth 1)."""
    top = np.arange(parent.size)
    while True:
        p = parent[top]
        move = (p >= 0) & (p != root)
        if not move.any():
            return top
        top[move] = p[move]


# Spans that run outside the timed training steps even when they fall between
# the first and last step: evaluation rows and the benchmark's own per-event
# invariant checks.
NOT_STEP = ("train.evaluate_ppl", "adaptation.merged_support_sparsity", "bench.invariants")


def summarize(names: list[str], arrays: dict[str, np.ndarray]) -> dict:
    """Self time and calls per span name, and the training steps' self time per layer.

    The steps run from the first training batch to the first evaluation that
    starts after the last batch; evaluations and invariant checks inside that
    window are not step time (the timings file leaves them out too).
    """
    nid, start, end, parent = arrays["name_id"], arrays["start"], arrays["end"], arrays["parent"]
    roots = np.flatnonzero(parent < 0)
    if roots.size != 1:
        raise ValueError(f"expected one root span, found {roots.size}")
    root = int(roots[0])
    selft = self_times(parent, start, end)
    self_by_name = np.bincount(nid, weights=selft, minlength=len(names))
    calls_by_name = np.bincount(nid, minlength=len(names))
    out = {
        "spans": {n: {"self_s": float(self_by_name[i]), "calls": int(calls_by_name[i])} for i, n in enumerate(names)},
        "wall_s": float(end[root] - start[root]),
        "root_self_s": float(selft[root]),
    }
    ids = {n: i for i, n in enumerate(names)}
    batches = np.flatnonzero(nid == ids.get("data.train_batch", -1))
    if batches.size == 0:
        return out
    lo, last = start[batches[0]], start[batches[-1]]
    depth1 = parent == root
    later_evals = depth1 & (nid == ids.get("train.evaluate_ppl", -1)) & (start > last)
    hi = start[later_evals].min() if later_evals.any() else end[root]
    in_window = (start >= lo) & (end <= hi)
    skipped = depth1 & in_window & np.isin(nid, [ids[n] for n in NOT_STEP if n in ids])
    in_steps = in_window & (parent >= 0) & ~skipped[top_ancestor(parent, root)]
    step_self = np.bincount(nid, weights=selft * in_steps, minlength=len(names))
    by_layer: dict[str, float] = {}
    for i, n in enumerate(names):
        layer = n.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + float(step_self[i])
    out["steps_wall_s"] = float(hi - lo) - float((end[skipped] - start[skipped]).sum())
    out["steps_self_s_by_layer"] = by_layer
    return out
