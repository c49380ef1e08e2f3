"""Desk-scale models exposing a named parameter tree.

One builder: a tiny pre-norm decoder-only transformer with learned
positional embeddings, a weight-untied LM head and a byte-level vocabulary.
Prunable entries are exactly the 2-D weight matrices of linear layers
(attention, feed-forward, LM head); embeddings, norms and biases are never
prunable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02
NEG_INF = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 256
    dim: int = 128
    heads: int = 4
    blocks: int = 2
    ff_mult: int = 4
    context: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.vocab < 2 or self.dim < 1 or self.heads < 1 or self.blocks < 1 or self.ff_mult < 1:
            raise ValueError(f"invalid model config: {self}")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.context < 2:
            raise ValueError(f"context must be >= 2, got {self.context}")


class ParamTree:
    """Ordered map from dotted parameter name to tensor, with prunable flags."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._prunable: set[str] = set()

    def add(self, name: str, tensor: Tensor, prunable: bool = False) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if prunable and tensor.data.ndim != 2:
            raise ValueError(f"prunable entries must be 2-D matrices: {name}")
        self._params[name] = tensor
        if prunable:
            self._prunable.add(name)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __setitem__(self, name: str, tensor: Tensor) -> None:
        """Replace an existing entry's tensor (prunable flag unchanged)."""
        if name not in self._params:
            raise KeyError(f"cannot set unknown parameter {name}")
        self._params[name] = tensor

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def is_prunable(self, name: str) -> bool:
        return name in self._prunable

    def named_prunable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if n in self._prunable]

    def prunable_names(self) -> list[str]:
        return [n for n in self._params if n in self._prunable]

    def set_requires_grad(self, flag: bool, names: list[str] | None = None) -> None:
        for n in names if names is not None else self._params:
            self._params[n].requires_grad = flag


def _linear(x: Tensor, w: Tensor, b: Tensor | None, adapter=None) -> Tensor:
    """``x @ w.T + b``, plus the adapter's ``(x @ A.T) @ B.T`` when given."""
    y = ad.linear(x, w, b)
    if adapter is not None:
        y = ad.add(y, ad.linear(ad.linear(x, adapter.a), adapter.b))
    return y


@functools.lru_cache(maxsize=32)
def _causal_mask(t: int, dtype) -> np.ndarray:
    """Read-only ``(t, t)`` additive mask: 0 on and below the diagonal, NEG_INF above."""
    mask = np.triu(np.full((t, t), NEG_INF, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


def _tap(taps, name: str, x: Tensor) -> None:
    if taps is not None and name in taps:
        taps[name].append(x.data.reshape(-1, x.data.shape[-1]))


def build_transformer(cfg: ModelConfig, dtype=np.float32):
    """Build a tiny causal decoder; returns ``(tree, forward)``.

    ``forward(tree, ids, taps=None, adapters=None)`` maps token ids ``[B, T]``
    to logits ``[B, T, vocab]``. ``taps`` is a dict of prunable-tensor name to
    list; the input activations feeding that matrix are appended per call,
    flattened to ``[B*T, in_dim]``. ``adapters`` maps prunable names to
    low-rank adapters applied on top of the (frozen) base matrices.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = ParamTree()

    def mat(name, rows, cols, prunable):
        data = rng.normal(0.0, INIT_STD, size=(rows, cols)).astype(dtype)
        tree.add(name, Tensor(data, requires_grad=prunable), prunable=prunable)

    def vec(name, n, value=0.0):
        tree.add(name, Tensor(np.full(n, value, dtype=dtype)))

    mat("tok_emb", cfg.vocab, cfg.dim, prunable=False)
    mat("pos_emb", cfg.context, cfg.dim, prunable=False)
    ff = cfg.ff_mult * cfg.dim
    for i in range(cfg.blocks):
        p = f"block{i}"
        vec(f"{p}.ln1.g", cfg.dim, 1.0)
        vec(f"{p}.ln1.b", cfg.dim)
        for proj in ("wq", "wk", "wv", "wo"):
            mat(f"{p}.attn.{proj}", cfg.dim, cfg.dim, prunable=True)
            vec(f"{p}.attn.{proj}_b", cfg.dim)
        vec(f"{p}.ln2.g", cfg.dim, 1.0)
        vec(f"{p}.ln2.b", cfg.dim)
        mat(f"{p}.ff.w1", ff, cfg.dim, prunable=True)
        vec(f"{p}.ff.w1_b", ff)
        mat(f"{p}.ff.w2", cfg.dim, ff, prunable=True)
        vec(f"{p}.ff.w2_b", cfg.dim)
    vec("ln_f.g", cfg.dim, 1.0)
    vec("ln_f.b", cfg.dim)
    mat("head.w", cfg.vocab, cfg.dim, prunable=True)
    vec("head.b", cfg.vocab)

    head_dim = cfg.dim // cfg.heads
    att_scale = 1.0 / np.sqrt(head_dim)

    def forward(tree: ParamTree, ids: np.ndarray, taps=None, adapters=None) -> Tensor:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"token ids must be [B, T], got shape {ids.shape}")
        bsz, t = ids.shape
        if t > cfg.context:
            raise ValueError(f"sequence length {t} exceeds context {cfg.context}")
        adapters = adapters or {}
        pos = np.broadcast_to(np.arange(t), (bsz, t))
        x = ad.add(ad.embedding(tree["tok_emb"], ids), ad.embedding(tree["pos_emb"], pos))

        mask = _causal_mask(t, dtype)

        def lin(x, name):
            _tap(taps, name, x)
            return _linear(x, tree[name], tree[name + "_b"], adapters.get(name))

        for i in range(cfg.blocks):
            p = f"block{i}"
            h = ad.layer_norm(x, tree[f"{p}.ln1.g"], tree[f"{p}.ln1.b"])

            def heads_view(z):
                z = ad.reshape(z, (bsz, t, cfg.heads, head_dim))
                return ad.transpose(z, (0, 2, 1, 3))

            q = heads_view(lin(h, f"{p}.attn.wq"))
            k = heads_view(lin(h, f"{p}.attn.wk"))
            v = heads_view(lin(h, f"{p}.attn.wv"))
            att = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), att_scale)
            att = ad.softmax(att, mask)
            o = ad.matmul(att, v)
            o = ad.reshape(ad.transpose(o, (0, 2, 1, 3)), (bsz, t, cfg.dim))
            x = ad.add(x, lin(o, f"{p}.attn.wo"))

            h2 = ad.layer_norm(x, tree[f"{p}.ln2.g"], tree[f"{p}.ln2.b"])
            f = ad.gelu(lin(h2, f"{p}.ff.w1"))
            x = ad.add(x, lin(f, f"{p}.ff.w2"))

        xf = ad.layer_norm(x, tree["ln_f.g"], tree["ln_f.b"])
        _tap(taps, "head.w", xf)
        return _linear(xf, tree["head.w"], tree["head.b"], adapters.get("head.w"))

    return tree, forward

