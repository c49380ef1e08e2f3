"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload is a closed-loop batch job sequence run one job at a time:
prune (the set-up every fine-tune pays), fine-tune, then eval, merge and
inspect of the produced checkpoint. The program receives only files: a JSON
config and, for the language-model workloads, a byte corpus generated here
from the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# A 256 KiB corpus keeps one held-out evaluation near 0.6 s at the default
# model; a 1 MiB corpus costs ~2.8 s per eval, and every fine-tune pays two
# evals, which would leave too few training steps inside one run's budget.
CORPUS_BYTES = 256 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # TrainConfig fields on top of the defaults
    corpus: bool  # char-lm workloads train on a generated corpus
    prune_jobs: int  # set-up samples per run (setup_s is their median)
    eval_jobs: int  # eval samples per run (eval_s is their median)
    beats_frozen: bool = False  # fine-tuned ppl must beat the prune job's ppl

    @property
    def sparse_delta(self) -> bool:
        return self.config.get("method", "seft") in ("seft", "seft-constrained")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lm-seft",
            why="the README's default char-lm fine-tune; forward and backward dominate, the topology update is under 10% of step wall",
            config={"task": "char-lm", "method": "seft", "steps": 20},
            corpus=True,
            prune_jobs=5,
            eval_jobs=6,
            beats_frozen=True,
        ),
        Workload(
            name="copy-evolve",
            why="criterion-1 shape on the copy task; event steps (evolve+adapt) are ~70% of loop wall and per-op dispatch is visible",
            config={
                "task": "copy",
                "vocab": 32,
                "dim": 64,
                "context": 12,
                "ff_mult": 2,
                "batch_size": 2,
                "grad_accum": 1,
                "rank": 8,
                "every": 5,
                "drop_rate": 0.3,
                "sparsity": 0.6,
                "method": "seft",
                "steps": 600,
            },
            corpus=False,
            prune_jobs=9,
            eval_jobs=15,
            beats_frozen=True,
        ),
        Workload(
            name="lm-lora-star",
            why="the paper's adapter baseline on lm-seft's corpus and model: frozen base, no weight-gradient VJPs, dense AdamW, a re-prune pass",
            config={"task": "char-lm", "method": "lora-star", "rank": 32, "steps": 15},
            corpus=True,
            prune_jobs=5,
            eval_jobs=6,
        ),
    )
}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _lexicon(size: int = 96) -> list[str]:
    """A fixed vocabulary of 1-8 letter words, the same for every seed, so that
    the corpus entropy (and with it the reachable perplexity) does not move
    with the seed."""
    rng = random.Random(0)
    words: list[str] = []
    while len(words) < size:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 8)))
        if word not in words:
            words.append(word)
    return words


def make_corpus(seed: int, size: int = CORPUS_BYTES) -> bytes:
    """Word-structured text: Zipf-weighted words from a fixed lexicon in 3-10 word sentences.

    A pure-Python PRNG, so the bytes depend on the seed alone, not on numpy.
    """
    rng = random.Random(seed)
    lexicon = _lexicon()
    weights = [1.0 / (rank + 1) for rank in range(len(lexicon))]
    out = bytearray()
    while len(out) < size:
        sentence = " ".join(rng.choices(lexicon, weights=weights, k=rng.randint(3, 10)))
        out += (sentence[0].upper() + sentence[1:] + ". ").encode("ascii")
    return bytes(out[:size])


def train_config(workload: Workload, seed: int, corpus_path: str | None) -> dict:
    """The JSON config handed to the program for this workload and seed.

    With a corpus, the seed goes into the corpus and the program's own seed
    (model init, split, batch order) stays 0: a seeded init moved the final
    perplexity of the short LM fine-tunes by ~8% across seeds, the corpus alone
    by ~2-5%. The copy task has no input file, so the seed is the program's.
    """
    cfg = dict(workload.config)
    if workload.corpus:
        cfg.update(seed=0, corpus=corpus_path)
    else:
        cfg["seed"] = seed % 2**31  # numpy generators take non-negative seeds
    return cfg

