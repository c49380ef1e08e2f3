"""Correctness checks taken from a run's artefacts, after its jobs have ended.

Every function returns a list of error strings; an empty list is a pass. The
harness attaches each list to the job that produced the artefact, and a job
with any error counts as failed. Nothing here runs inside a timed job.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def keep_budget(numel: int, sparsity: float) -> int:
    """Active coordinates a tensor may hold: round((1 - sparsity) * numel).

    The benchmark's own copy of the rule, so the checks do not move with the
    package's implementation of it.
    """
    return int(math.floor((1.0 - sparsity) * numel + 0.5))


def entry_budget(shape: tuple[int, int], rank: int, keep: int) -> int:
    """Delta entries a tensor holds between events: its LoRA-parity budget
    rank * (rows + cols), capped by its keep budget (entries lie in the support)."""
    return min(rank * (shape[0] + shape[1]), keep)


def row_pruned_support(shape: tuple[int, int], sparsity: float) -> int:
    """Active coordinates after row-wise pruning: each row drops floor(s * cols)."""
    rows, cols = shape
    return rows * (cols - int(math.floor(sparsity * cols)))


def metrics_csv_errors(path: str, sparsity: float, numels: dict[str, int]) -> list[str]:
    """Every adapt row sits exactly on each tensor's budget; every evolve row conserves entries.

    The CSV stores per-tensor sparsity; the support it implies must equal the
    keep budget, which is the criterion-1 bound (within 1/numel of the target)
    made exact, so a row one coordinate off is caught.
    """
    errors = []
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            step = row["step"]
            if row["kind"] == "evolve":
                drops, grows, shortfall = int(row["drops"]), int(row["grows"]), int(row["shortfall"])
                if drops != grows + shortfall:
                    errors.append(f"step {step}: drops {drops} != grows {grows} + shortfall {shortfall}")
            elif row["kind"] == "adapt":
                for name, numel in numels.items():
                    support = round((1.0 - float(row[f"sparsity:{name}"])) * numel)
                    want = keep_budget(numel, sparsity)
                    if support != want:
                        errors.append(f"step {step}: {name} support {support} != budget {want}")
    return errors


def merged_supports(state) -> dict[str, int]:
    """Active coordinates per masked tensor: mask bits or delta entries."""
    out = {}
    for name, bits in state.masks.items():
        flat = bits.reshape(-1).copy()
        td = state.deltas.get(name)
        if td is not None and len(td):
            flat[td.indices] = True
        out[name] = int(flat.sum())
    return out


def checkpoint_errors(state, sparsity: float, rank: int, sparse_delta: bool) -> list[str]:
    """Delta entries per tensor equal their entry budget and the merged support its keep budget.

    ``state`` is ``sparsevolve.checkpoint.load_state`` of the checkpoint. Adapter
    runs store no delta; their re-pruned masks follow the row-wise prune rule.
    """
    errors = []
    if not state.masks:
        return ["checkpoint holds no masks"]
    supports = merged_supports(state)
    for name, bits in state.masks.items():
        td = state.deltas.get(name)
        entries = len(td) if td is not None else 0
        support = supports[name]
        if sparse_delta:
            want = keep_budget(bits.size, sparsity)
            budget = entry_budget(bits.shape, rank, want)
            if entries != budget:
                errors.append(f"{name}: {entries} delta entries, budget {budget}")
        else:
            if entries:
                errors.append(f"{name}: adapter run left {entries} delta entries")
            want = row_pruned_support(bits.shape, sparsity)
        if support != want:
            errors.append(f"{name}: merged support {support} != {want}")
    return errors


_INSPECT_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\d+|-)\s+(\d+)\s+(\d+)\s+(\S+)$")


def inspect_errors(stdout: str, supports: dict[str, int]) -> list[str]:
    """``sparsevolve inspect`` must list every masked tensor with the support we computed."""
    seen = {}
    for line in stdout.splitlines():
        m = _INSPECT_ROW.match(line.strip())
        if m and m.group(3) != "-":
            seen[m.group(1)] = int(m.group(5))
    errors = [f"inspect: {name} support {seen.get(name)} != {want}" for name, want in supports.items() if seen.get(name) != want]
    return errors


def printed_ppl(stdout: str) -> float | None:
    m = re.search(r"val perplexity ([0-9.eE+-]+|nan|inf)", stdout)
    return float(m.group(1)) if m else None


def ppl_errors(eval_stdout: str, train_ppl: float) -> list[str]:
    """The independent eval prints (to 6 decimals) the ppl the fine-tune reported."""
    got = printed_ppl(eval_stdout)
    if got is None:
        return ["eval printed no perplexity"]
    if f"{got:.6f}" != f"{train_ppl:.6f}":
        return [f"eval ppl {got:.6f} != fine-tune final ppl {train_ppl:.6f}"]
    return []


def beats_frozen_errors(finetuned_ppl: float, frozen_ppl: float) -> list[str]:
    if not finetuned_ppl < frozen_ppl:
        return [f"fine-tuned ppl {finetuned_ppl:.4f} does not beat the frozen baseline {frozen_ppl:.4f}"]
    return []


def hash_errors(hashes: dict[str, str], reference: dict[str, str] | None, what: str) -> list[str]:
    """Artefacts of one code version and seed must be bitwise identical."""
    if reference is None:
        return []
    return [
        f"{what}: {name} sha256 {hashes.get(name, '-')[:12]} != {ref[:12]}"
        for name, ref in sorted(reference.items())
        if hashes.get(name) != ref
    ]


def code_digest(root: str) -> str:
    """SHA-256 over the package and benchmark sources: what "the same code" means
    for the determinism ledger (the benchmark generates the inputs)."""
    h = hashlib.sha256()
    for top in ("src", "bench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode())
                h.update(sha256_file(path).encode())
    return h.hexdigest()
