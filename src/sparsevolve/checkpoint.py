"""Binary checkpoint format and the merge/inspect operations.

Layout (little-endian throughout): magic "SEFT", version u16, then records
until EOF. Record: name length u16 + UTF-8 name, kind u8 (0 dense f32,
1 mask bitset row-major, 2 delta entries), shape rank u8 + dims u32 each,
payload. Dense payload is numel f32 values; mask payload is the row-major bit
string packed little-endian; delta payload is count u32 then ascending
(u32 index, f32 value) pairs. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .delta import SparseDelta, TensorDelta, effective_weights, merged_support
from .models import ParamTree
from .pruning import Mask, masked_base

MAGIC = b"SEFT"
VERSION = 1
KIND_DENSE = 0
KIND_MASK = 1
KIND_DELTA = 2
KIND_NAMES = {KIND_DENSE: "dense", KIND_MASK: "mask", KIND_DELTA: "delta"}


class CheckpointError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


@dataclass
class Record:
    name: str
    kind: int
    shape: tuple[int, ...]
    dense: np.ndarray | None = None  # kind 0
    bits: np.ndarray | None = None  # kind 1, bool array of `shape`
    indices: np.ndarray | None = None  # kind 2
    values: np.ndarray | None = None  # kind 2


def _encode_record(rec: Record) -> bytes:
    name_b = rec.name.encode("utf-8")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", rec.kind)
    head += struct.pack("<B", len(rec.shape))
    for d in rec.shape:
        head += struct.pack("<I", d)
    if rec.kind == KIND_DENSE:
        payload = np.ascontiguousarray(rec.dense, dtype="<f4").tobytes()
    elif rec.kind == KIND_MASK:
        payload = np.packbits(rec.bits.reshape(-1), bitorder="little").tobytes()
    elif rec.kind == KIND_DELTA:
        count = struct.pack("<I", len(rec.indices))
        pairs = np.zeros(len(rec.indices), dtype=[("i", "<u4"), ("v", "<f4")])
        pairs["i"] = rec.indices
        pairs["v"] = rec.values
        payload = count + pairs.tobytes()
    else:
        raise CheckpointError(f"unknown record kind {rec.kind}")
    return head + payload


def write_checkpoint(path: str, records: list[Record]) -> None:
    """Serialize records; the write is atomic (temp file then rename)."""
    # one join: regrowing a blob per record leaves each old copy in the malloc heap
    blob = b"".join([MAGIC, struct.pack("<H", VERSION), *map(_encode_record, records)])
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # created as open() creates files (0666 less the umask), unlike mkstemp's 0600
    tmp = os.path.join(directory, f".ckpt-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path: str) -> list[Record]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}", offset=0)
    if len(blob) < 6:
        raise CheckpointError("truncated version", offset=4)
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}", offset=4)
    off = 6
    records: list[Record] = []

    def need(n: int, what: str):
        if off + n > len(blob):
            raise CheckpointError(f"truncated {what}", offset=off)

    while off < len(blob):
        need(2, "name length")
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        need(name_len, "name")
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"record name is not UTF-8 ({e.reason})", offset=off) from None
        off += name_len
        need(2, "kind/rank")
        kind, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        need(4 * rank, "shape dims")
        shape = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        numel = 1
        for d in shape:
            numel *= d
        if kind == KIND_DENSE:
            need(4 * numel, f"dense payload of {name}")
            arr = np.frombuffer(blob, dtype="<f4", count=numel, offset=off).reshape(shape)
            off += 4 * numel
            records.append(Record(name, kind, tuple(shape), dense=arr.copy()))
        elif kind == KIND_MASK:
            nbytes = (numel + 7) // 8
            need(nbytes, f"mask payload of {name}")
            packed = np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=off)
            bits = np.unpackbits(packed, count=numel, bitorder="little").astype(bool).reshape(shape)
            off += nbytes
            records.append(Record(name, kind, tuple(shape), bits=bits))
        elif kind == KIND_DELTA:
            need(4, f"delta count of {name}")
            (count,) = struct.unpack_from("<I", blob, off)
            off += 4
            need(8 * count, f"delta entries of {name}")
            pairs = np.frombuffer(blob, dtype=[("i", "<u4"), ("v", "<f4")], count=count, offset=off)
            off += 8 * count
            idx = pairs["i"].astype(np.int64)
            if idx.size and (np.any(np.diff(idx) <= 0) or idx[-1] >= numel):
                raise CheckpointError(f"delta indices of {name} not ascending/in range", offset=off)
            records.append(Record(name, kind, tuple(shape), indices=idx, values=pairs["v"].astype(np.float32)))
        else:
            raise CheckpointError(f"unknown record kind {kind} for {name}", offset=off)
    return records


# ---------------------------------------------------------------------------
# train-state level helpers
# ---------------------------------------------------------------------------


def state_records(
    tree: ParamTree,
    theta_dense: dict[str, np.ndarray] | None = None,
    masks: dict[str, Mask] | None = None,
    delta: SparseDelta | None = None,
    extra_dense: dict[str, np.ndarray] | None = None,
) -> list[Record]:
    """Records for a full training state, in stable tree order.

    Prunable tensors store the retained dense base weights plus mask and delta
    records; everything else stores its live values.
    """
    records: list[Record] = []
    for name, tensor in tree.items():
        if tree.is_prunable(name) and theta_dense is not None:
            records.append(Record(name, KIND_DENSE, tensor.data.shape, dense=theta_dense[name]))
            if masks is not None and name in masks:
                records.append(Record(name, KIND_MASK, tensor.data.shape, bits=masks[name].bits))
            if delta is not None and name in delta.slices:
                td = delta.slices[name]
                records.append(Record(name, KIND_DELTA, tensor.data.shape, indices=td.indices, values=td.values))
        else:
            records.append(Record(name, KIND_DENSE, tensor.data.shape, dense=tensor.data))
    if extra_dense:
        for name, arr in extra_dense.items():
            records.append(Record(name, KIND_DENSE, arr.shape, dense=arr))
    return records


@dataclass
class LoadedState:
    dense: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    deltas: dict[str, TensorDelta] = field(default_factory=dict)

    def merged(self) -> dict[str, np.ndarray]:
        """Every dense record, each masked tensor replaced by its masked base plus its delta.

        The one merge of a checkpoint: ``merge`` writes it and ``eval`` loads it.
        """
        base = masked_base(self.dense, {name: Mask(name, bits) for name, bits in self.masks.items()})
        return {
            name: effective_weights(base[name], self.deltas.get(name)) if name in base else dense
            for name, dense in self.dense.items()
        }


def load_state(path: str) -> LoadedState:
    """The checkpoint's records by kind and name.

    Raises CheckpointError when two records share a name and kind, or when a
    mask or delta record has no dense record of its name, or a shape other
    than that record's.
    """
    records = read_checkpoint(path)
    seen = set()
    for rec in records:
        if (rec.name, rec.kind) in seen:
            raise CheckpointError(f"more than one {KIND_NAMES[rec.kind]} record of {rec.name}")
        seen.add((rec.name, rec.kind))
    state = LoadedState(dense={rec.name: rec.dense for rec in records if rec.kind == KIND_DENSE})
    for rec in records:
        if rec.kind == KIND_DENSE:
            continue
        dense = state.dense.get(rec.name)
        if dense is None or dense.shape != rec.shape:
            kind = KIND_NAMES[rec.kind]
            have = "none" if dense is None else f"shape {dense.shape}"
            raise CheckpointError(f"{kind} record of {rec.name} has shape {rec.shape}; its dense record: {have}")
        if rec.kind == KIND_MASK:
            state.masks[rec.name] = rec.bits
        else:
            state.deltas[rec.name] = TensorDelta(rec.indices, rec.values)
    return state


def load_into(tree: ParamTree, weights: dict[str, np.ndarray], path: str) -> None:
    """Copy ``weights``, read from the checkpoint at ``path``, into every tree tensor.

    Raises ValueError, naming ``path``, when a tree tensor has no entry in
    ``weights`` or its shape differs.
    """
    for name, tensor in tree.items():
        arr = weights.get(name)
        if arr is None:
            raise ValueError(f"checkpoint {path} missing tensor {name}")
        if arr.shape != tensor.data.shape:
            raise ValueError(f"checkpoint {path} shape mismatch for {name}: {arr.shape} vs {tensor.data.shape}")
        tensor.data = arr.astype(tensor.data.dtype)


def save_meta(path: str, meta: dict) -> None:
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"  # one write: json.dump writes each token
    with open(path + ".json", "w", encoding="utf-8") as f:
        f.write(text)


def load_meta(path: str) -> dict:
    with open(path + ".json", "r", encoding="utf-8") as f:
        return json.load(f)


def merge_checkpoint(in_path: str, out_path: str) -> None:
    """Write the checkpoint's ``LoadedState.merged`` weights as dense records."""
    merged = load_state(in_path).merged()
    write_checkpoint(out_path, [Record(name, KIND_DENSE, w.shape, dense=w) for name, w in merged.items()])
    if os.path.exists(in_path + ".json"):
        meta = load_meta(in_path)
        meta["merged"] = True
        save_meta(out_path, meta)


@dataclass
class InspectRow:
    name: str
    numel: int
    mask_active: int | None
    delta_entries: int
    support: int
    sparsity: float | None


@dataclass
class InspectReport:
    rows: list[InspectRow]
    global_sparsity: float | None
    delta_support: int
    nm_violations: list[tuple[str, int, int]]


def inspect_checkpoint(path: str, nm: tuple[int, int] | None = None) -> InspectReport:
    """Audit per-tensor occupancy and (optionally) N:M feasibility of the merge."""
    state = load_state(path)
    rows: list[InspectRow] = []
    violations: list[tuple[str, int, int]] = []
    total = 0
    active = 0
    delta_support = 0
    for name, dense in state.dense.items():
        numel = dense.size
        bits = state.masks.get(name)
        td = state.deltas.get(name)
        entries = len(td) if td is not None else 0
        delta_support += entries
        if bits is None:
            rows.append(InspectRow(name, numel, None, entries, numel, None))
            continue
        merged = merged_support(bits, td)
        support = int(np.count_nonzero(merged))
        rows.append(InspectRow(name, numel, int(bits.sum()), entries, support, 1.0 - support / numel))
        total += numel
        active += support
        if nm is not None:
            violations.extend((name, r, g) for r, g in Mask(name, merged).nm_violations(*nm))
    return InspectReport(
        rows=rows,
        global_sparsity=(1.0 - active / total) if total else None,
        delta_support=delta_support,
        nm_violations=violations,
    )
