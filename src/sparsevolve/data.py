"""Data ingestion and task definitions.

Byte-level language modeling over a corpus file plus two synthetic tasks
(sequence copy and modular addition) that need no corpus. Every task yields
(inputs, targets) pairs of shape [B, T]; target -1 marks positions excluded
from the loss.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

IGNORE = -1
VAL_FRACTION = 0.05
VAL_BATCHES = 16  # held-out batches of the synthetic tasks
MOD_P = 97
MOD_EQ_TOKEN = 254


def load_corpus(path: str) -> np.ndarray:
    """Read a file as a uint8 token stream (byte-level vocabulary)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus not found: {path}")
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        raise ValueError(f"corpus is empty: {path}")
    return np.frombuffer(raw, dtype=np.uint8)


def split_windows(tokens: np.ndarray, context: int, seed: int):
    """Chop the stream into non-overlapping (context+1)-token windows, split 95/5.

    The window order is shuffled with a fixed seed before the split, so the
    same path and seed always produce identical splits.
    """
    width = context + 1
    n = tokens.size // width
    if n < 2:
        raise ValueError(f"corpus too small: {tokens.size} tokens for context {context}")
    windows = tokens[: n * width].reshape(n, width)
    order = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(np.floor(n * VAL_FRACTION + 0.5)))
    val = windows[order[:n_val]]
    train = windows[order[n_val:]]
    return train, val


def _window_batches(windows: np.ndarray, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for i in range(0, len(windows) - batch_size + 1, batch_size):
        w = windows[i : i + batch_size].astype(np.int64)
        out.append((w[:, :-1], w[:, 1:]))
    if not out:  # fewer windows than one batch: use what there is
        w = windows.astype(np.int64)
        out.append((w[:, :-1], w[:, 1:]))
    return out


@dataclass
class Task:
    """A training stream, a frozen validation set, and a calibration source.

    ``vocab`` bounds the task's token ids: every id is below it.
    """

    vocab: int
    train_batch: "callable"
    val_batches: list[tuple[np.ndarray, np.ndarray]]
    calib: "callable" = None  # calib(k) -> list of input arrays


def char_lm_task(corpus_path: str, context: int, batch_size: int, seed: int) -> Task:
    tokens = load_corpus(corpus_path)
    train, val = split_windows(tokens, context, seed)
    val_b = _window_batches(val, batch_size)

    def train_batch(rng: np.random.Generator):
        rows = rng.integers(0, len(train), size=batch_size)
        w = train[rows].astype(np.int64)
        return w[:, :-1], w[:, 1:]

    def calib(k: int):
        # first k batches of the training split, in stream order
        return [x for x, _ in _window_batches(train[: k * batch_size], batch_size)[:k]]

    return Task(256, train_batch, val_b, calib)


def copy_batch(rng: np.random.Generator, batch_size: int, context: int, vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """First half random symbols, second half repeats it; loss on the repeat only."""
    half = context // 2
    lead = rng.integers(0, vocab, size=(batch_size, half))
    seq = np.concatenate([lead, lead], axis=1)[:, :context]
    x = seq
    y = np.full_like(seq, IGNORE)
    # position p predicts seq[p+1]; predictable once the target is in the copy half
    y[:, half - 1 : context - 1] = seq[:, half:context]
    return x, y


def copy_task(context: int, batch_size: int, seed: int, vocab: int = 16) -> Task:
    if context % 2 != 0 or context < 4:
        raise ValueError(f"copy task needs an even context >= 4, got {context}")
    val_rng = np.random.default_rng(seed + 1_000_003)
    val_b = [copy_batch(val_rng, batch_size, context, vocab) for _ in range(VAL_BATCHES)]

    def train_batch(rng: np.random.Generator):
        return copy_batch(rng, batch_size, context, vocab)

    def calib(k: int):
        rng = np.random.default_rng(seed + 13)
        return [copy_batch(rng, batch_size, context, vocab)[0] for _ in range(k)]

    return Task(vocab, train_batch, val_b, calib)


def modadd_batch(rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sequences [a, b, '='] with the answer (a+b) mod MOD_P at the final position."""
    a = rng.integers(0, MOD_P, size=batch_size)
    b = rng.integers(0, MOD_P, size=batch_size)
    x = np.stack([a, b, np.full(batch_size, MOD_EQ_TOKEN)], axis=1)
    y = np.full_like(x, IGNORE)
    y[:, 2] = (a + b) % MOD_P
    return x, y


def modadd_task(batch_size: int, seed: int) -> Task:
    val_rng = np.random.default_rng(seed + 2_000_003)
    val_b = [modadd_batch(val_rng, batch_size) for _ in range(VAL_BATCHES)]

    def train_batch(rng: np.random.Generator):
        return modadd_batch(rng, batch_size)

    def calib(k: int):
        rng = np.random.default_rng(seed + 13)
        return [modadd_batch(rng, batch_size)[0] for _ in range(k)]

    return Task(256, train_batch, val_b, calib)


def make_task(task: str, context: int, batch_size: int, seed: int, corpus: str | None = None, copy_vocab: int = 16) -> Task:
    if task == "char-lm":
        if corpus is None:
            raise ValueError("char-lm task requires a corpus path")
        return char_lm_task(corpus, context, batch_size, seed)
    if task == "copy":
        return copy_task(context, batch_size, seed, vocab=copy_vocab)
    if task == "modular-add":
        return modadd_task(batch_size, seed)
    raise ValueError(f"unknown task {task!r}")
