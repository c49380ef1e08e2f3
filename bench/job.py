"""Run one sparsevolve job in this fresh process and write its result as JSON.

Usage: python3 bench/job.py SPEC.json

The spec gives the job kind (prune, finetune, eval, merge, inspect), its
files, the repository root, whether to trace, and where to write the result.
BLAS is pinned to one thread and sparsevolve is imported before anything else
imports numpy. A job whose effective OpenBLAS thread count is not 1 is
reported as failed and is not run, because an unpinned step runs many times
slower under contention.

Only the call into the package's entry point is timed; the thread check, the
result file and (when tracing) the span analysis happen outside it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _invariant_checker(sparsity: float, adapt: bool, violations: list):
    """Criterion-1/2 checks at every evolution event, via train's on_event.

    Computes the merged support itself (mask union delta coordinates) rather
    than through the package's helpers, so the check is independent of them
    and records no spans of its own layers.
    """
    import numpy as np
    from checks import keep_budget

    def check(ev):
        rep = ev.evolution
        if rep.dropped != rep.grown + rep.shortfall:
            violations.append(f"step {ev.step}: drops {rep.dropped} != grows {rep.grown} + shortfall {rep.shortfall}")
        for name, mask in ev.masks.items():
            td = ev.delta.slices[name]
            if td.indices.size and np.any(np.diff(td.indices) <= 0):
                violations.append(f"step {ev.step}: {name} delta indices not sorted unique")
            if not adapt:
                continue
            keep = keep_budget(mask.bits.size, sparsity)
            support = np.union1d(np.flatnonzero(mask.bits), td.indices).size
            if support != keep:
                violations.append(f"step {ev.step}: {name} support {support} != budget {keep}")
            entries = min(ev.delta.budgets[name], keep)
            if len(td) != entries:
                violations.append(f"step {ev.step}: {name} holds {len(td)} delta entries, budget {entries}")

    return check


def _entry(spec: dict, tracer, result: dict):
    """The zero-argument call this job times."""
    from sparsevolve import cli, train

    kind = spec["kind"]
    if kind == "prune":
        argv = ["prune", "--config", spec["config"], "--out-dir", spec["out_dir"], "--run-name", spec["run_name"]]
        return lambda: cli.main(argv)
    if kind == "finetune":
        cfg = train.TrainConfig.from_file(spec["config"], {"out_dir": spec["out_dir"], "run_name": spec["run_name"]})
        on_event = None
        if tracer is not None:
            violations = result.setdefault("invariant_violations", [])
            on_event = tracer.wrap("bench.invariants", _invariant_checker(cfg.sparsity, cfg.adapt, violations))

        def finetune():
            res = train.train(cfg, on_event=on_event)
            result.update(final_ppl=res.final_ppl, checkpoint=res.checkpoint, metrics=res.metrics, timings=res.timings)
            return 0

        return finetune
    if kind == "eval":
        return lambda: cli.main(["eval", spec["checkpoint"]])
    if kind == "merge":
        return lambda: cli.main(["merge", spec["checkpoint"], "--out", spec["out"]])
    if kind == "inspect":
        return lambda: cli.main(["inspect", spec["checkpoint"]])
    raise ValueError(f"unknown job kind {kind!r}")


def run(spec: dict) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import sparsevolve  # noqa: F401  (first importer of numpy in this process)

    import envinfo
    import tracing

    result = {"kind": spec["kind"], "ok": False, "error": None}
    blas = envinfo.blas_info()
    result.update(blas_threads=blas["threads"], blas_config=blas["config"])
    if blas["threads"] != 1:
        result["error"] = f"OpenBLAS runs {blas['threads']} threads, not 1; job not timed"
        return result

    tracer = tracing.Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracing.install(tracer)
    call = _entry(spec, tracer, result)
    if tracer is not None:
        call = tracer.wrap("job", call)
    out = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = call()
        result["wall_s"] = time.perf_counter() - t0
    except Exception:
        result["error"] = traceback.format_exc(limit=8)
        return result
    finally:
        result["stdout"] = out.getvalue()[-20000:]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0:
        result["error"] = f"entry point returned exit code {code}"
        return result
    if tracer is not None:
        tracer.save(spec["spans"])
        result["trace"] = tracing.summarize(tracer.names, tracer.arrays())
        result["trace"]["counters"] = tracer.counters
    violations = result.pop("invariant_violations", [])
    if violations:
        result["error"] = f"{len(violations)} per-event invariant violations, first: {violations[:5]}"
        return result
    result["ok"] = True
    return result


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
