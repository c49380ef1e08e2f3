import os

import numpy as np
import pytest

from sparsevolve import checkpoint as ck
from sparsevolve.delta import TensorDelta, allocate_budget, init_support, materialize
from sparsevolve.models import ModelConfig, build_transformer
from sparsevolve.pruning import masked_base, prune_model


def make_state(seed=0, sparsity=0.5):
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=seed)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(seed).integers(0, 16, size=(2, 4))
    masks, theta = prune_model(tree, forward, [ids], sparsity)
    budgets = allocate_budget(tree, 2)
    delta = init_support(theta, masks, budgets)
    rng = np.random.default_rng(seed + 1)
    for td in delta.slices.values():
        td.values = rng.normal(size=len(td)).astype(np.float32)
    materialize(tree, masked_base(theta, masks), delta)
    return cfg, tree, forward, masks, theta, delta, ids


def test_roundtrip_byte_identical(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    records = ck.state_records(tree, theta, masks, delta)
    ck.write_checkpoint(p1, records)
    loaded = ck.read_checkpoint(p1)
    ck.write_checkpoint(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_header_and_kinds(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    p = str(tmp_path / "c.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    blob = open(p, "rb").read()
    assert blob[:4] == b"SEFT"
    assert int.from_bytes(blob[4:6], "little") == 1
    kinds = {r.kind for r in ck.read_checkpoint(p)}
    assert kinds == {ck.KIND_DENSE, ck.KIND_MASK, ck.KIND_DELTA}


def test_loaded_state_matches_source(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    p = str(tmp_path / "d.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    state = ck.load_state(p)
    for name, m in masks.items():
        np.testing.assert_array_equal(state.masks[name], m.bits)
        np.testing.assert_array_equal(state.dense[name], theta[name].astype(np.float32))
        np.testing.assert_array_equal(state.deltas[name].indices, delta.slices[name].indices)
        np.testing.assert_array_equal(state.deltas[name].values, delta.slices[name].values)


def test_load_into_copies_the_given_weights_in_the_trees_dtype(tmp_path):
    cfg, tree, _, masks, theta, delta, _ = make_state()
    p = str(tmp_path / "into.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    tree2, _ = build_transformer(cfg, dtype=np.float64)
    state = ck.load_state(p)
    ck.load_into(tree2, state.dense, p)
    for name, t in tree2.items():
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, state.dense[name])
    assert set(state.masks) == set(masks) and set(state.deltas) == set(delta.slices)


def test_load_into_rejects_missing_and_misshapen_tensors(tmp_path):
    cfg, tree, *_ = make_state()
    p = str(tmp_path / "bad.ckpt")
    records = ck.state_records(tree)
    ck.write_checkpoint(p, records[1:])
    with pytest.raises(ValueError, match=f"checkpoint {p} missing tensor {records[0].name}"):
        ck.load_into(build_transformer(cfg)[0], ck.load_state(p).dense, p)
    wide = build_transformer(ModelConfig(vocab=16, dim=128, heads=4, blocks=1, context=4))[0]
    ck.write_checkpoint(p, records)
    with pytest.raises(ValueError, match=f"checkpoint {p} shape mismatch"):
        ck.load_into(wide, ck.load_state(p).dense, p)


def test_delta_payload_layout(tmp_path):
    # one tensor, known entries: verify the exact byte layout of the delta record
    rec = ck.Record("w", ck.KIND_DELTA, (2, 2), indices=np.array([1, 3]), values=np.array([0.5, -1.5], np.float32))
    p = str(tmp_path / "e.ckpt")
    ck.write_checkpoint(p, [rec])
    blob = open(p, "rb").read()
    off = 6  # magic+version
    assert blob[off : off + 2] == (1).to_bytes(2, "little")  # name length
    assert blob[off + 2 : off + 3] == b"w"
    assert blob[off + 3] == ck.KIND_DELTA
    assert blob[off + 4] == 2  # rank
    dims = np.frombuffer(blob, dtype="<u4", count=2, offset=off + 5)
    np.testing.assert_array_equal(dims, [2, 2])
    count = int.from_bytes(blob[off + 13 : off + 17], "little")
    assert count == 2
    pairs = np.frombuffer(blob, dtype=[("i", "<u4"), ("v", "<f4")], count=2, offset=off + 17)
    np.testing.assert_array_equal(pairs["i"], [1, 3])
    np.testing.assert_array_equal(pairs["v"], np.array([0.5, -1.5], np.float32))


def test_mask_bitpacking_little_endian(tmp_path):
    bits = np.array([[True, False, False, True, True, False, False, False], [True] * 8])
    rec = ck.Record("m", ck.KIND_MASK, (2, 8), bits=bits)
    p = str(tmp_path / "f.ckpt")
    ck.write_checkpoint(p, [rec])
    blob = open(p, "rb").read()
    payload = blob[-2:]
    assert payload[0] == 0b00011001  # row-major, little-endian bit order
    assert payload[1] == 0xFF
    back = ck.read_checkpoint(p)[0]
    np.testing.assert_array_equal(back.bits, bits)


def test_corrupt_record_reports_offset(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    p = str(tmp_path / "g.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    blob = bytearray(open(p, "rb").read())
    truncated = bytes(blob[: len(blob) - 3])
    open(p, "wb").write(truncated)
    with pytest.raises(ck.CheckpointError, match="offset"):
        ck.read_checkpoint(p)


def test_bad_magic_rejected(tmp_path):
    p = str(tmp_path / "h.ckpt")
    open(p, "wb").write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ck.CheckpointError, match="magic"):
        ck.read_checkpoint(p)


def test_merge_of_pruned_model_is_masked_base(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    for name in delta.slices:  # empty the delta
        delta.slices[name] = TensorDelta(dtype=np.float32)
    p, pm = str(tmp_path / "i.ckpt"), str(tmp_path / "i-merged.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    ck.merge_checkpoint(p, pm)
    merged = ck.load_state(pm)
    for name, m in masks.items():
        np.testing.assert_array_equal(merged.dense[name], (theta[name] * m.bits).astype(np.float32))
        assert name not in merged.masks


def test_merge_reads_its_input_once(tmp_path, monkeypatch):
    _, tree, _, masks, theta, delta, _ = make_state()
    p, pm = str(tmp_path / "once.ckpt"), str(tmp_path / "once-merged.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    reads = []
    read = ck.read_checkpoint
    monkeypatch.setattr(ck, "read_checkpoint", lambda path: reads.append(path) or read(path))
    ck.merge_checkpoint(p, pm)
    assert reads == [p]
    assert [r.name for r in read(pm)] == [r.name for r in read(p) if r.kind == ck.KIND_DENSE]


def test_merge_is_idempotent_through_resplit(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state()
    p1 = str(tmp_path / "j.ckpt")
    p2 = str(tmp_path / "j-merged.ckpt")
    p3 = str(tmp_path / "j-resplit.ckpt")
    p4 = str(tmp_path / "j-merged2.ckpt")
    ck.write_checkpoint(p1, ck.state_records(tree, theta, masks, delta))
    ck.merge_checkpoint(p1, p2)
    # re-split: mask from nonzeros, delta empty
    records = []
    merged = ck.read_checkpoint(p2)
    for rec in merged:
        records.append(rec)
        if rec.name in masks:
            records.append(ck.Record(rec.name, ck.KIND_MASK, rec.shape, bits=rec.dense != 0))
    ck.write_checkpoint(p3, records)
    ck.merge_checkpoint(p3, p4)
    assert open(p2, "rb").read() == open(p4, "rb").read()


def test_merged_forward_equals_effective_weights_forward(tmp_path):
    cfg, tree, forward, masks, theta, delta, ids = make_state(seed=3)
    train_logits = forward(tree, ids).data
    p, pm = str(tmp_path / "k.ckpt"), str(tmp_path / "k-merged.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    ck.merge_checkpoint(p, pm)
    tree2, forward2 = build_transformer(cfg)
    ck.load_into(tree2, ck.load_state(pm).dense, pm)
    np.testing.assert_allclose(forward2(tree2, ids).data, train_logits, atol=1e-6)


def test_inspect_valid_24_checkpoint(tmp_path):
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=4)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(4).integers(0, 16, size=(2, 4))
    masks, theta = prune_model(tree, forward, [ids], 0.5, nm=(2, 4))
    p = str(tmp_path / "l.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, None))
    report = ck.inspect_checkpoint(p, nm=(2, 4))
    assert not report.nm_violations
    assert report.global_sparsity == pytest.approx(0.5)


def test_inspect_flags_planted_nm_violation(tmp_path):
    cfg = ModelConfig(vocab=16, dim=64, heads=4, blocks=1, context=4, seed=5)
    tree, forward = build_transformer(cfg)
    ids = np.random.default_rng(5).integers(0, 16, size=(2, 4))
    masks, theta = prune_model(tree, forward, [ids], 0.5, nm=(2, 4))
    masks["block0.attn.wq"].bits[0, 0:3] = True  # 3 nonzeros in a 2:4 group
    p = str(tmp_path / "m.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, None))
    report = ck.inspect_checkpoint(p, nm=(2, 4))
    assert report.nm_violations
    assert ("block0.attn.wq", 0, 0) in report.nm_violations


def test_inspect_reports_delta_support(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state(seed=6)
    p = str(tmp_path / "n.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    report = ck.inspect_checkpoint(p)
    assert report.delta_support == delta.support_size()


def test_atomic_write_leaves_no_temp(tmp_path):
    _, tree, _, masks, theta, delta, _ = make_state(seed=7)
    p = str(tmp_path / "o.ckpt")
    ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".ckpt-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_checkpoint_mode_is_the_mode_open_gives(tmp_path, umask):
    # the checkpoint sits beside its .json and metrics files: same mode, same umask
    _, tree, _, masks, theta, delta, _ = make_state()
    old = os.umask(umask)
    try:
        p = str(tmp_path / "m.ckpt")
        ck.write_checkpoint(p, ck.state_records(tree, theta, masks, delta))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old)
    assert os.stat(p).st_mode == os.stat(tmp_path / "plain").st_mode == 0o100666 & ~umask
