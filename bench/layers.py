"""Per-layer metrics of a traced run, derived from the jobs' span summaries.

Names are ``<layer>.<function>_ms`` (self time summed over the run's traced
jobs, in ms) and ``<layer>.<function>.calls``; an autodiff op has ``fwd_ms``,
``vjp_ms`` and ``calls`` (forward calls). Counts of evolution and adaptation
work come from the traced fine-tune's metrics CSV. ``<layer>.step_share`` is
the layer's self time inside the training steps as a share of their wall.
"""

from __future__ import annotations

import csv

from tracing import AUTODIFF_OPS

SHARE_LAYERS = ("autodiff", "models", "delta", "evolution", "adaptation", "data", "train")


def _defs() -> list[tuple[str, str, str]]:
    d = []
    for op in AUTODIFF_OPS:
        d.append((f"autodiff.{op}.fwd_ms", "ms", "lower"))
        if op != "embedding":
            d.append((f"autodiff.{op}.vjp_ms", "ms", "lower"))
        d.append((f"autodiff.{op}.calls", "count", "lower"))
    d += [
        ("autodiff.backward_self_ms", "ms", "lower"),
        ("autodiff.tape_nodes_per_step", "count", "lower"),
        ("autodiff.matmul.gflop", "GFLOP", "lower"),
        ("autodiff.matmul.gflops", "GFLOP/s", "higher"),
        ("models.forward_self_ms", "ms", "lower"),
        ("models.forward.calls", "count", "lower"),
        ("models.build_transformer_ms", "ms", "lower"),
        ("delta.materialize_ms", "ms", "lower"),
        ("delta.materialize.calls", "count", "lower"),
        ("delta.adamw_step_ms", "ms", "lower"),
        ("delta.gather_grads_ms", "ms", "lower"),
        ("delta.init_support_ms", "ms", "lower"),
        ("delta.insert_entries_ms", "ms", "lower"),
        ("delta.insert_entries.calls", "count", "lower"),
        ("delta.remove_entries_ms", "ms", "lower"),
        ("delta.remove_entries.calls", "count", "lower"),
        ("evolution.accumulate_ms", "ms", "lower"),
        ("evolution.evolve_ms", "ms", "lower"),
        ("evolution.events", "count", "higher"),
        ("evolution.drops", "count", "higher"),
        ("evolution.grows", "count", "higher"),
        ("evolution.reactivations", "count", "higher"),
        ("evolution.shortfall", "count", "lower"),
        ("evolution.grow_fill_ratio", "ratio", "higher"),
        ("adaptation.adaptation_step_self_ms", "ms", "lower"),
        ("adaptation.compute_sensitivity_ms", "ms", "lower"),
        ("adaptation.rebuild_mask_ms", "ms", "lower"),
        ("adaptation.repair_support_ms", "ms", "lower"),
        ("adaptation.support_coords_ms", "ms", "lower"),
        ("adaptation.support_coords.calls", "count", "lower"),
        ("adaptation.merged_support_sparsity_ms", "ms", "lower"),
        ("adaptation.pruned_base", "count", "lower"),
        ("adaptation.pruned_delta", "count", "lower"),
        ("adaptation.repaired", "count", "lower"),
        ("adaptation.trim_undo_ratio", "ratio", "lower"),
        ("train.evaluate_ppl_ms", "ms", "lower"),
        ("train.evaluate_ppl.calls", "count", "lower"),
        ("train.dense_adamw_ms", "ms", "lower"),
        ("lora.build_adapters_ms", "ms", "lower"),
        ("lora.merge_and_reprune_ms", "ms", "lower"),
        ("pruning.prune_model_ms", "ms", "lower"),
        ("pruning.collect_activation_norms_ms", "ms", "lower"),
        ("data.make_task_ms", "ms", "lower"),
        ("data.train_batch_ms", "ms", "lower"),
        ("data.train_batch.calls", "count", "lower"),
        ("checkpoint.write_ms", "ms", "lower"),
        ("checkpoint.read_ms", "ms", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("checkpoint.merge_ms", "ms", "lower"),
        ("checkpoint.inspect_ms", "ms", "lower"),
    ]
    d += [(f"{layer}.step_share", "%", "lower") for layer in SHARE_LAYERS]
    d += [
        ("trace.step_coverage", "%", "higher"),
        ("trace.job_coverage", "%", "higher"),
        ("trace.overhead", "%", "lower"),
    ]
    return d


PER_LAYER = _defs()


def _span_of(metric: str) -> tuple[str, str]:
    """(span name, field) behind a timing or call-count metric."""
    if metric.startswith("autodiff.") and metric.endswith((".fwd_ms", ".vjp_ms")):
        return metric[: -len("_ms")], "self_s"
    if metric.endswith(".calls"):
        span = metric[: -len(".calls")]
        return (span + ".fwd" if span.startswith("autodiff.") else span), "calls"
    for suffix in ("_self_ms", "_ms"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)], "self_s"
    raise KeyError(metric)


def csv_counts(path: str) -> dict[str, float]:
    """Evolution and adaptation work recorded in a metrics CSV."""
    c = dict.fromkeys(("events", "quota", "drops", "grows", "reactivations", "shortfall", "pruned_base", "pruned_delta", "repaired"), 0)
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            if row["kind"] == "evolve":
                grows = int(row["grows"])
                c["events"] += 1
                c["quota"] += int(row["quota"])
                c["drops"] += int(row["drops"])
                c["grows"] += grows
                c["shortfall"] += int(row["shortfall"])
                c["reactivations"] += round(float(row["reactivation_fraction"]) * grows)
            elif row["kind"] == "adapt":
                for k in ("pruned_base", "pruned_delta", "repaired"):
                    c[k] += int(row[k])
    return c


def per_layer(traced: list[dict], finetune: dict, untraced_finetune: dict, steps: int) -> dict[str, float]:
    """Every PER_LAYER value for one traced run.

    ``traced`` holds the result of every traced job in the run, ``finetune``
    the traced fine-tune among them and ``untraced_finetune`` the same job run
    without tracing (for the overhead).
    """
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for res in traced:
        for name, s in res["trace"]["spans"].items():
            acc = spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += s["self_s"]
            acc["calls"] += s["calls"]
        for k, v in res["trace"]["counters"].items():
            counters[k] = counters.get(k, 0) + v

    def span_value(span: str, field: str) -> float:
        v = spans.get(span, {}).get(field, 0)
        return v * 1000.0 if field == "self_s" else v

    ft = finetune["trace"]
    counts = csv_counts(finetune["metrics"])
    steps_wall = ft.get("steps_wall_s", 0.0)
    by_layer = ft.get("steps_self_s_by_layer", {})
    invariants_s = ft["spans"].get("bench.invariants", {}).get("self_s", 0.0)
    matmul_s = (span_value("autodiff.matmul.fwd", "self_s") + span_value("autodiff.matmul.vjp", "self_s")) / 1000.0
    gflop = counters.get("autodiff.matmul.flop", 0) / 1e9
    special = {
        "autodiff.tape_nodes_per_step": counters.get("autodiff.tape_nodes", 0) / steps if steps else 0.0,
        "autodiff.matmul.gflop": gflop,
        "autodiff.matmul.gflops": gflop / matmul_s if matmul_s else 0.0,
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "evolution.grow_fill_ratio": counts["grows"] / counts["quota"] if counts["quota"] else 0.0,
        "adaptation.trim_undo_ratio": counts["pruned_delta"] / counts["grows"] if counts["grows"] else 0.0,
        "trace.step_coverage": 100.0 * sum(by_layer.values()) / steps_wall if steps_wall else 0.0,
        "trace.job_coverage": 100.0 * (1.0 - ft["root_self_s"] / ft["wall_s"]),
        "trace.overhead": 100.0 * ((finetune["wall_s"] - invariants_s) / untraced_finetune["wall_s"] - 1.0),
    }
    for k in ("events", "drops", "grows", "reactivations", "shortfall"):
        special[f"evolution.{k}"] = counts[k]
    for k in ("pruned_base", "pruned_delta", "repaired"):
        special[f"adaptation.{k}"] = counts[k]
    for layer in SHARE_LAYERS:
        special[f"{layer}.step_share"] = 100.0 * by_layer.get(layer, 0.0) / steps_wall if steps_wall else 0.0

    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in special:
            out[name] = float(special[name])
        else:
            out[name] = float(span_value(*_span_of(name)))
    return out
