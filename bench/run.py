"""Sparsevolve benchmark: each workload run as real user jobs, end to end.

Usage (from the repository root):

    python3 bench/run.py --workload lm-seft --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload in turn

A run generates the workload's inputs from ``--seed``, then runs one job at a
time, each in a fresh single-threaded process (``bench/job.py``): ``prune``
jobs (the set-up), ``finetune`` jobs for ``--seconds`` (at least two, so
determinism is checked inside every run), then ``eval``, ``merge`` and
``inspect`` of the produced checkpoint. Correctness is checked from the
artefacts after the jobs end. With ``--trace 1`` the run instead times one
traced job of each kind, plus one untraced fine-tune for the tracing
overhead, and reports the per-layer metrics.

It prints a table of every metric with its unit and sample count, and as the
last line one JSON object: ``correct``, ``attempted``, ``failed`` (jobs) and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with ``--trace 1``
its per-layer metrics). Artefacts go to ``.bench_runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(ROOT, ".bench_runs")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JOB_TIMEOUT_S = 150
MAX_FINETUNES = 8

END_TO_END = [
    ("tokens_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("final_ppl", "ppl", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


@dataclass
class Job:
    kind: str
    name: str
    result: dict
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result.get("ok", False) and not self.errors

    @property
    def wall_s(self) -> float:
        return self.result["wall_s"]


class Runner:
    """Launches the jobs of one workload run and keeps every one it attempted."""

    def __init__(self, workdir: str, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.jobs: list[Job] = []
        self.env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))

    def run(self, kind: str, name: str, trace: bool | None = None, **spec) -> Job:
        base = os.path.join(self.workdir, name)
        spec.update(
            kind=kind,
            root=ROOT,
            trace=self.trace if trace is None else trace,
            result=base + ".result.json",
            spans=base + ".spans.npz",
        )
        with open(base + ".spec.json", "w", encoding="utf-8") as f:
            json.dump(spec, f)
        result = {"ok": False, "error": None}
        try:
            with open(base + ".log", "wb") as log:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "job.py"), base + ".spec.json"],
                    cwd=ROOT,
                    env=self.env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=JOB_TIMEOUT_S,
                )
            if proc.returncode != 0:
                result["error"] = f"job process exited {proc.returncode}; see {base}.log"
            else:
                with open(base + ".result.json", encoding="utf-8") as f:
                    result = json.load(f)
        except subprocess.TimeoutExpired:
            result["error"] = f"job exceeded {JOB_TIMEOUT_S} s"
        job = Job(kind, name, result)
        if result.get("error"):
            job.errors.append(result["error"])
        self.jobs.append(job)
        return job


def percentile(xs: list[float], q: int) -> float | None:
    """The q-th percentile when at least ten samples lie beyond it (the median always)."""
    if q == 50:
        return statistics.median(xs) if xs else None
    if len(xs) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def read_step_walls(path: str) -> list[tuple[int, float]]:
    with open(path, encoding="utf-8") as f:
        next(f)
        return [(int(s), float(w)) for s, w in (line.strip().split(",") for line in f if line.strip())]


def ledger_key(workload, seed: int) -> str:
    """Identifies "the same code and seed": package and benchmark sources, workload config, seed."""
    import checks

    cfg = hashlib.sha256(json.dumps(workload.config, sort_keys=True).encode()).hexdigest()
    return f"{workload.name} seed={seed} code={checks.code_digest(ROOT)[:16]} config={cfg[:16]}"


def load_ledger(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_ledger(path: str, ledger: dict) -> None:
    with open(path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


# --- correctness from artefacts, after every job has ended -----------------


def judge_prunes(prunes: list[Job], workdir: str) -> float | None:
    """Prune jobs of one seed must write identical artefacts; returns the frozen ppl."""
    import checks
    from sparsevolve.checkpoint import load_meta

    ref = None
    for job in (j for j in prunes if j.ok):
        stem = os.path.join(workdir, job.name)
        hashes = {"checkpoint": checks.sha256_file(stem + ".ckpt"), "metrics": checks.sha256_file(stem + ".metrics.csv")}
        job.errors += checks.hash_errors(hashes, ref, f"prune job {job.name}")
        ref = ref or hashes
    return next((load_meta(os.path.join(workdir, j.name + ".ckpt"))["final_ppl"] for j in prunes if j.ok), None)


def judge_finetunes(jobs: list[Job], cfg, workload, frozen_ppl, corpus, ledger: dict, key: str) -> dict[str, int]:
    """Metrics CSV, checkpoint, quality and determinism checks; returns the merged support per tensor.

    The first fine-tune of a code version and seed enters its artefact hashes
    in ``ledger``; every later one, in this run or another, must match them.
    """
    import checks
    from sparsevolve.checkpoint import load_state

    supports: dict[str, int] = {}
    for job in (j for j in jobs if j.ok):
        res = job.result
        state = load_state(res["checkpoint"])
        numels = {name: bits.size for name, bits in state.masks.items()}
        job.errors += checks.metrics_csv_errors(res["metrics"], cfg.sparsity, numels)
        job.errors += checks.checkpoint_errors(state, cfg.sparsity, cfg.rank, workload.sparse_delta)
        if workload.beats_frozen and frozen_ppl is not None:
            job.errors += checks.beats_frozen_errors(res["final_ppl"], frozen_ppl)
        hashes = {"checkpoint": checks.sha256_file(res["checkpoint"]), "metrics": checks.sha256_file(res["metrics"])}
        if corpus:
            hashes["corpus"] = checks.sha256_file(corpus)
        res["hashes"] = hashes
        job.errors += checks.hash_errors(hashes, ledger.get(key), f"{job.name} vs the first run of this code and seed")
        ledger.setdefault(key, hashes)
        if not supports:
            supports = checks.merged_supports(state)
    return supports


def judge_outputs(evals: list[Job], merge: Job, inspect: Job, final_ppl: float, supports: dict[str, int]) -> None:
    """The eval reproduces the fine-tune's ppl, the merge is dense, inspect agrees."""
    import checks
    from sparsevolve.checkpoint import load_state

    for job in (j for j in evals if j.ok):
        job.errors += checks.ppl_errors(job.result["stdout"], final_ppl)
    if merge.ok:
        merged = load_state(merge.result["out"])
        if merged.masks or merged.deltas:
            merge.errors.append("merged checkpoint still holds mask or delta records")
    if inspect.ok:
        inspect.errors += checks.inspect_errors(inspect.result["stdout"], supports)


def end_to_end(prunes: list[Job], finetunes: list[Job], evals: list[Job], cfg, sparse_delta: bool):
    """(metrics of BENCHMARK.json, report-only timings), each value as (value, samples)."""
    import checks

    done = [j for j in finetunes if j.ok]
    plain, event = [], []
    for job in done:
        for step, wall in read_step_walls(job.result["timings"]):
            (event if sparse_delta and step % cfg.every == 0 else plain).append(wall)
    steps = len(plain) + len(event)
    values: dict[str, tuple[float | None, int]] = {}
    if done:
        tokens = cfg.grad_accum * cfg.batch_size * cfg.context * steps
        values["tokens_per_s"] = (tokens / (sum(plain + event) / 1000.0), steps)
        values["step_ms_p50"] = (percentile(plain, 50), len(plain))
        values["run_s"] = (statistics.median(j.wall_s for j in done), len(done))
    prunes = [j for j in prunes if j.ok]
    if prunes:
        values["setup_s"] = (statistics.median(j.wall_s for j in prunes), len(prunes))
    evals = [j for j in evals if j.ok]
    if evals:
        values["eval_s"] = (statistics.median(j.wall_s for j in evals), len(evals))
        values["final_ppl"] = (checks.printed_ppl(evals[0].result["stdout"]), len(evals))
    if done:
        values["peak_rss_mb"] = (statistics.median(j.result["peak_rss_mb"] for j in done), len(done))
    extra = {
        "step_ms_p90": (percentile(plain, 90), len(plain)),
        "event_step_ms_p50": (percentile(event, 50), len(event)),
        "event_step_ms_p90": (percentile(event, 90), len(event)),
    }
    return values, extra


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import envinfo
    from sparsevolve.train import TrainConfig
    from workloads import make_corpus, train_config

    host = envinfo.host_info()
    workdir = os.path.join(RUNS, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    corpus = None
    if workload.corpus:
        corpus = os.path.join(workdir, "corpus.txt")
        with open(corpus, "wb") as f:
            f.write(make_corpus(seed))
    cfg_dict = train_config(workload, seed, corpus)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(cfg_dict, f, indent=1, sort_keys=True)
    cfg = TrainConfig.from_dict(cfg_dict)

    runner = Runner(workdir, trace)
    job_args = {"config": cfg_path, "out_dir": workdir}
    prunes = [runner.run("prune", f"prune{i}", run_name=f"prune{i}", **job_args) for i in range(1 if trace else workload.prune_jobs)]
    finetunes: list[Job] = []
    untraced = None
    if trace:
        untraced = runner.run("finetune", "ft-untraced", trace=False, run_name="ft-untraced", **job_args)
        finetunes.append(runner.run("finetune", "ft0", run_name="ft0", **job_args))
    else:
        # At least two, so every run checks determinism; more while the next
        # one is expected to end inside the measuring time.
        t0 = time.perf_counter()
        while len(finetunes) < 2 or (
            len(finetunes) < MAX_FINETUNES and (time.perf_counter() - t0) * (len(finetunes) + 1) / len(finetunes) <= seconds
        ):
            job = runner.run("finetune", f"ft{len(finetunes)}", run_name=f"ft{len(finetunes)}", **job_args)
            finetunes.append(job)
            if not job.ok:
                break
    done = [j for j in finetunes if j.ok]
    evals: list[Job] = []
    if done:
        ckpt = done[0].result["checkpoint"]
        evals = [
            runner.run("eval", f"eval{i}", checkpoint=done[i % len(done)].result["checkpoint"])
            for i in range(1 if trace else workload.eval_jobs)
        ]
        merged = os.path.join(workdir, "merged.ckpt")
        merge = runner.run("merge", "merge", checkpoint=ckpt, out=merged)
        merge.result["out"] = merged
        inspect = runner.run("inspect", "inspect", checkpoint=ckpt)

    frozen_ppl = judge_prunes(prunes, workdir)
    ledger_path = os.path.join(RUNS, "ledger.json")
    ledger = load_ledger(ledger_path)
    all_finetunes = ([untraced] if untraced else []) + finetunes
    supports = judge_finetunes(all_finetunes, cfg, workload, frozen_ppl, corpus, ledger, ledger_key(workload, seed))
    save_ledger(ledger_path, ledger)
    done = [j for j in finetunes if j.ok]
    if done:
        judge_outputs(evals, merge, inspect, done[0].result["final_ppl"], supports)
    values, extra = end_to_end(prunes, finetunes, evals, cfg, workload.sparse_delta)

    per_layer = None
    if trace and done and untraced.ok:
        import layers

        traced = [j.result for j in runner.jobs if j.ok and "trace" in j.result]
        per_layer = layers.per_layer(traced, done[0].result, untraced.result, cfg.steps)

    failed = [j for j in runner.jobs if not j.ok]
    first = lambda key: next((j.result[key] for j in runner.jobs if j.result.get(key) is not None), None)  # noqa: E731
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "host": host,
        "blas": {"threads": first("blas_threads"), "config": first("blas_config")},
        "attempted": len(runner.jobs),
        "failed": len(failed),
        "failures": [f"{j.name}: {e}" for j in failed for e in (j.errors or ["failed"])],
        "values": values,
        "extra": extra,
        "per_layer": per_layer,
        "jobs": {j.name: {"kind": j.kind, "ok": j.ok, "wall_s": j.result.get("wall_s"), "hashes": j.result.get("hashes")} for j in runner.jobs},
    }


def _fmt(v) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(out: dict) -> None:
    h, b = out["host"], out["blas"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {int(out['trace'])}")
    print(
        f"  env: python {h['python']}, numpy {h['numpy']}, OpenBLAS threads {b['threads']} ({b['config']}), "
        f"cpu {h['cpu']}, nproc {h['nproc']}, load {h['loadavg']}"
    )
    print(f"  jobs: {out['attempted']} attempted, {out['failed']} failed")
    for line in out["failures"]:
        print(f"  FAILED {line}")
    print(f"  {'metric':40s} {'value':>14s} {'unit':>8s} {'n':>6s}")
    units = {n: u for n, u, _ in END_TO_END}
    for name, (v, n) in list(out["values"].items()) + list(out["extra"].items()):
        print(f"  {name:40s} {_fmt(v):>14s} {units.get(name, 'ms'):>8s} {n:>6d}")
    if out["per_layer"]:
        import layers

        for name, unit, _ in layers.PER_LAYER:
            print(f"  {name:40s} {_fmt(out['per_layer'][name]):>14s} {unit:>8s}")


def final_line(outs: list[dict], prefix: bool) -> dict:
    """The result object; ``prefix`` names metrics ``<workload>.<metric>`` (``--workload all``)."""
    import layers

    metrics = {}
    for out in outs:
        p = f"{out['workload']}." if prefix else ""
        if out["trace"]:
            values = out["per_layer"] or {}
            for name, unit, _ in layers.PER_LAYER:
                if name in values:
                    metrics[p + name] = {"value": values[name], "unit": unit}
        else:
            for name, unit, _ in END_TO_END:
                v = out["values"].get(name, (None, 0))[0]
                if v is not None:
                    metrics[p + name] = {"value": v, "unit": unit}
    failed = sum(o["failed"] for o in outs)
    return {"correct": failed == 0, "attempted": sum(o["attempted"] for o in outs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="time spent on fine-tune jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A termination request becomes an exception, so the job being waited
    # for is killed and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "sparsevolve", "__init__.py")):
        print(f"error: no sparsevolve sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sparsevolve  # noqa: F401  (pins BLAS before numpy loads in this process)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in WORKLOADS:
        print(f"error: unknown workload {names[0]!r}; expected one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    outs = []
    for name in names:
        out = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        with open(os.path.join(RUNS, name, "result.json"), "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
        print_report(out)
        outs.append(out)
    print(json.dumps(final_line(outs, prefix=len(outs) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
