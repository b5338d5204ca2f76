"""U-Net construction, forward pass, parameter accounting, checkpoints."""

import hashlib
import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import norm_prelu_composition, split_walks, upconv3d_composition
from voxelpaint import autodiff, checkpoint
from voxelpaint.autodiff import Tensor
from voxelpaint.checkpoint import load_checkpoint, save_checkpoint
from voxelpaint.errors import CheckpointError, ConfigError, ShapeError
from voxelpaint.losses import composite_loss
from voxelpaint.optim import Adam
from voxelpaint.unet import UNet, UNetConfig, build_unet
from voxelpaint.util import build_record


def make_model(base=8, seed=0, dropout=0.2):
    config = UNetConfig(base_channels=base, dropout_rate=dropout)
    return build_unet(config, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Parameter accounting: hand-built per-layer table as the independent route
# ---------------------------------------------------------------------------

def param_total(model):
    return sum(t.size for _, t in model.parameters())


def param_table(b):
    """Count parameters layer by layer from the architecture definition.

    Two-conv blocks (conv3 -> instance norm -> activation, twice) along
    encoder channels [b, 2b, 4b], an 8b bridge with plain ReLU, decoder
    blocks fed by skip concatenation, and a final 1x1x1 projection. The
    norm after each 3x3x3 conv cancels a bias, so only the projection has one.
    """
    def conv(cin, cout, k=3):
        return k ** 3 * cin * cout

    def norm(c):
        return 2 * c

    total = 0
    # Encoder: in-channels 2 (voided scan + mask plane).
    chans = [(2, b), (b, 2 * b), (2 * b, 4 * b)]
    for cin, cout in chans:
        total += conv(cin, cout) + norm(cout) + 1      # conv1 + IN + PReLU
        total += conv(cout, cout) + norm(cout) + 1     # conv2 + IN + PReLU
    # Bridge (ReLU, no activation parameters).
    total += conv(4 * b, 8 * b) + norm(8 * b)
    total += conv(8 * b, 8 * b) + norm(8 * b)
    # Decoder: upsampled features concatenated with the skip at each level.
    for prev, skip in [(8 * b, 4 * b), (4 * b, 2 * b), (2 * b, b)]:
        out = skip
        total += conv(prev + skip, out) + norm(out) + 1
        total += conv(out, out) + norm(out) + 1
    # Final projection to one channel, with its bias.
    total += conv(b, 1, k=1) + 1
    return total


@pytest.mark.parametrize("base,expected", [(8, 365_765), (32, 5_838_317)])
def test_param_count_pinned_values(base, expected):
    assert param_total(make_model(base)) == expected
    assert param_table(base) == expected


def test_param_count_matches_table_for_other_widths():
    for base in (1, 4, 16):
        assert param_total(make_model(base)) == param_table(base)


def test_parameter_names_cover_all_blocks():
    model = make_model(4)
    names = [n for n, _ in model.parameters()]
    assert len(names) == len(set(names)) == 56
    for prefix in ["enc0", "enc1", "enc2", "bridge", "dec2", "dec1", "dec0"]:
        assert f"{prefix}.conv1.weight" in names
        assert f"{prefix}.norm2.beta" in names
        # the instance norm after each of these convs cancels a bias
        assert f"{prefix}.conv1.bias" not in names and f"{prefix}.conv2.bias" not in names
    assert "final.weight" in names and "final.bias" in names
    # Bridge uses plain ReLU: no learned activation slope there.
    assert not any(n.startswith("bridge.act") for n in names)
    assert "enc0.act1.alpha" in names and "dec0.act2.alpha" in names


def test_config_validation():
    with pytest.raises(ConfigError):
        UNetConfig(base_channels=0)
    with pytest.raises(ConfigError):
        UNetConfig(dropout_rate=1.0)
    # read from a checkpoint, an int field takes no fraction and no bool, a
    # float field no bool; a whole float or a numeric string converts
    for bad in ({"base_channels": 2.5}, {"base_channels": True}, {"dropout_rate": False}):
        with pytest.raises(ValueError, match=repr(next(iter(bad)))):
            build_record(UNetConfig, bad)
    assert build_record(UNetConfig, {"base_channels": 2.0}).base_channels == 2
    assert build_record(UNetConfig, {"dropout_rate": "0.2"}).dropout_rate == 0.2
    assert UNetConfig(dropout_rate=0).dropout_rate == 0


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _inputs(n=16, seed=5):
    rng = np.random.default_rng(seed)
    voided = Tensor(rng.uniform(-1, 1, (1, 1, n, n, n)).astype(np.float32))
    mask = Tensor((rng.random((1, 1, n, n, n)) < 0.2).astype(np.float32))
    return voided, mask


def test_forward_output_shape_and_finiteness():
    model = make_model(8)
    voided, mask = _inputs()
    out = model.forward(voided, mask)
    assert out.shape == (1, 1, 16, 16, 16)
    assert np.all(np.isfinite(out.data))


def test_forward_eval_is_deterministic():
    model = make_model(8)
    voided, mask = _inputs()
    a = model.forward(voided, mask).data
    b = model.forward(voided, mask).data
    assert np.array_equal(a, b)


def test_build_is_deterministic_per_seed():
    a = make_model(8, seed=3)
    b = make_model(8, seed=3)
    c = make_model(8, seed=4)
    for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.parameters(), c.parameters()))


def test_training_dropout_changes_output_and_needs_rng():
    model = make_model(8, dropout=0.5)
    voided, mask = _inputs()
    eval_out = model.forward(voided, mask).data
    train_out = model.forward(voided, mask, training=True,
                              rng=np.random.default_rng(1)).data
    assert not np.array_equal(eval_out, train_out)
    with pytest.raises(ValueError):
        model.forward(voided, mask, training=True)


def test_forward_validates_shapes():
    model = make_model(8)
    voided, mask = _inputs()
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 2, 16, 16, 16), np.float32)), mask)
    with pytest.raises(ShapeError):
        model.forward(voided, Tensor(np.zeros((1, 1, 8, 8, 8), np.float32)))
    with pytest.raises(ShapeError):
        bad = Tensor(np.zeros((1, 1, 12, 12, 12), np.float32))  # not /8
        model.forward(bad, bad)


def test_forward_propagates_gradients_to_every_parameter():
    model = make_model(2)
    voided, mask = _inputs(n=8, seed=6)
    out = model.forward(voided, mask, training=True, rng=np.random.default_rng(2))
    (out * out).mean().backward()
    missing = [n for n, t in model.parameters() if t.grad is None]
    assert missing == []
    model.zero_grad()
    assert all(t.grad is None for _, t in model.parameters())


def test_train_step_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    # at 32^3 base 8 and the default BLOCK, the walks of 5 to 9 blocks split on 2 workers
    voided, mask = _inputs(n=32, seed=9)
    gt = np.random.default_rng(10).uniform(-1, 1, voided.shape).astype(np.float32)
    region = np.random.default_rng(11).random(voided.shape) < 0.5

    def digests(workers):
        parts = split_walks(monkeypatch, workers)
        model = make_model(8, seed=12)
        pred = model.forward(voided, mask, training=True, rng=np.random.default_rng(13))
        composite_loss(pred, gt, region, 1.0, 1.0).backward()
        arrays = [pred.data] + [t.grad for _, t in model.parameters()]
        return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays], len(parts)

    (one, none), (two, split) = digests(1), digests(2)
    assert none == 0 and split > 0
    assert one == two


def _train_step_digests():
    """sha256 of a 32^3 base-8 train step's prediction and of every parameter gradient."""
    voided, mask = _inputs(n=32, seed=9)
    gt = np.random.default_rng(10).uniform(-1, 1, voided.shape).astype(np.float32)
    region = np.random.default_rng(11).random(voided.shape) < 0.5
    model = make_model(8, seed=12)
    pred = model.forward(voided, mask, training=True, rng=np.random.default_rng(13))
    composite_loss(pred, gt, region, 1.0, 1.0).backward()
    arrays = [pred.data] + [t.grad for _, t in model.parameters()]
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def test_train_step_bytes_equal_a_unet_built_from_the_composition(monkeypatch):
    # each decoder's upconv3d against upsample3d_nearest + concat_channels + conv3d
    fused = _train_step_digests()
    monkeypatch.setattr(autodiff, "upconv3d", upconv3d_composition)
    assert _train_step_digests() == fused


def test_train_step_bytes_equal_a_unet_built_from_norm_and_prelu(monkeypatch):
    # each PReLU block's norm_prelu against instance_norm + prelu
    fused = _train_step_digests()
    monkeypatch.setattr(autodiff, "norm_prelu", norm_prelu_composition)
    assert _train_step_digests() == fused


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_frees_interior_nodes_and_keeps_parameter_grads():
    model = make_model(2)
    voided, mask = _inputs(n=8, seed=6)
    out = model.forward(voided, mask, training=True, rng=np.random.default_rng(2))
    loss = (out * out).mean()
    nodes = _graph_nodes(loss)
    params = {id(t) for _, t in model.parameters()}
    interior = [t for t in nodes if t._backward is not None]
    # 12 conv3d, 12 norm_prelu, 3 upconv3d, 3 maxpool3d, 4 dropout, the bridge's two
    # instance_norm and two relu, and the loss's multiply and mean; the inputs'
    # concat needs no gradient
    assert len(interior) == 40 and not params & {id(t) for t in interior}
    loss.backward()
    assert all(t.grad is None and t._backward is None and t._parents is None
               for t in interior)
    assert all(t.grad is not None for _, t in model.parameters())


def test_second_train_step_peaks_no_higher_than_the_first():
    # As in trainer.train_fold: the first step's loss is still bound while
    # the second step builds its graph.
    model = make_model(8)
    voided, mask = _inputs(n=24, seed=7)
    gt = np.random.default_rng(8).uniform(-1, 1, voided.shape).astype(np.float32)
    region = np.ones(voided.shape, bool)
    opt = Adam(model.param_tensors())
    peaks = []
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for step in range(2):
            tracemalloc.reset_peak()
            pred = model.forward(voided, mask, training=True, rng=np.random.default_rng(step))
            loss = composite_loss(pred, gt, region, 1.0, 1.0)
            del pred  # trainer._loss_for returns only the loss
            model.zero_grad()
            loss.backward()
            opt.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], f"step peaks {[p / 2**20 for p in peaks]} MiB"


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = make_model(4, seed=9)
    meta = {"epoch": 3, "fold": 1, "val_loss": 0.125, "seed": 42}
    path = tmp_path / "model.vxpt"
    save_checkpoint(model, meta, path)
    loaded, got_meta = load_checkpoint(path)
    for (na, ta), (nb, tb) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()
    assert got_meta["epoch"] == 3
    assert got_meta["val_loss"] == 0.125
    assert got_meta["config"]["base_channels"] == 4


def test_checkpoint_save_is_deterministic(tmp_path):
    model = make_model(4, seed=9)
    meta = {"epoch": 1, "fold": 0, "val_loss": 0.5, "seed": 1}
    save_checkpoint(model, meta, tmp_path / "a.vxpt")
    save_checkpoint(model, meta, tmp_path / "b.vxpt")
    assert (tmp_path / "a.vxpt").read_bytes() == (tmp_path / "b.vxpt").read_bytes()


def _saved(tmp_path, base=2):
    model = make_model(base, seed=11)
    path = tmp_path / "m.vxpt"
    save_checkpoint(model, {"epoch": 0, "fold": 0, "val_loss": 1.0, "seed": 0}, path)
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_non_finite_parameter_is_refused(tmp_path, value):
    # a NaN weight would load and put NaN into every masked voxel infer writes
    model = make_model(2, seed=11)
    dict(model.parameters())["enc0.conv1.weight"].data.flat[5] = value
    path = tmp_path / "m.vxpt"
    save_checkpoint(model, {"epoch": 0, "fold": 0, "val_loss": 1.0, "seed": 0}, path)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.code == "non_finite"
    assert "enc0.conv1.weight" in str(exc.value)


def _code(excinfo):
    return excinfo.value.code


def test_checkpoint_bad_magic(tmp_path):
    path = _saved(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "bad_magic"


def test_checkpoint_wrong_version(tmp_path):
    path = _saved(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "version"


def test_checkpoint_truncated(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 5])
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "truncated"


def test_checkpoint_truncated_header(tmp_path):
    path = tmp_path / "stub.vxpt"
    path.write_bytes(b"VX")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "truncated"


def _split_container(raw):
    version, meta_len = struct.unpack("<II", raw[4:12])
    meta = json.loads(raw[12:12 + meta_len].decode("utf-8"))
    return version, meta, raw[12 + meta_len:]


def _pack_container(version, meta, records):
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return b"VXPT" + struct.pack("<II", version, len(blob)) + blob + records


def test_checkpoint_config_tamper_is_shape_mismatch(tmp_path):
    # Records written for base 2 cannot fill a base-4 model, and a base of
    # 2.5 or true builds no model at all.
    path = _saved(tmp_path, base=2)
    version, meta, records = _split_container(path.read_bytes())
    for base in (4, 2.5, True):
        meta["config"]["base_channels"] = base
        path.write_bytes(_pack_container(version, meta, records))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert _code(exc) == "mismatch", base


def test_checkpoint_claiming_a_huge_model_is_refused_before_allocating_it(tmp_path):
    # a base-100000 U-Net would need about 229 TB; the records are checked first
    path = _saved(tmp_path, base=2)
    version, meta, records = _split_container(path.read_bytes())
    meta["config"]["base_channels"] = 100_000
    path.write_bytes(_pack_container(version, meta, records))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _code(exc) == "mismatch"
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB"


def _walk_records(records):
    out = []
    pos = 0
    while pos < len(records):
        (name_len,) = struct.unpack_from("<H", records, pos)
        start = pos
        pos += 2 + name_len
        (rank,) = struct.unpack_from("<B", records, pos)
        pos += 1
        shape = struct.unpack_from(f"<{rank}I", records, pos)
        pos += 4 * rank + 4 * int(np.prod(shape))
        out.append(records[start:pos])
    return out


def test_checkpoint_missing_parameter_is_mismatch(tmp_path):
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    kept = _walk_records(records)[:-1]  # drop the last parameter record
    path.write_bytes(_pack_container(version, meta, b"".join(kept)))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "mismatch"


def _record(name, data):
    data = np.asarray(data, dtype="<f4")
    name_b = name.encode("utf-8")
    return (struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", data.ndim)
            + struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes())


def test_checkpoint_unknown_parameter_is_mismatch(tmp_path):
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    assert version == 2
    # a version 2 file may not hold a bias that the loader drops from version 1 files
    for name in ("nonexistent.weight", "enc0.conv1.bias"):
        path.write_bytes(_pack_container(version, meta, records + _record(name, np.zeros(2))))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert _code(exc) == "mismatch"
        assert name in str(exc.value)


def test_checkpoint_repeated_parameter_is_mismatch(tmp_path):
    # a second record of the last parameter, with other values, must not
    # silently replace the first
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    last = _walk_records(records)[-1]
    name_len = struct.unpack_from("<H", last)[0]
    rank = last[2 + name_len]
    header = 2 + name_len + 1 + 4 * rank
    again = last[:header] + np.full((len(last) - header) // 4, 5.0, dtype="<f4").tobytes()
    path.write_bytes(_pack_container(version, meta, records + again))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "mismatch"
    assert "twice" in str(exc.value)


def test_checkpoint_non_utf8_parameter_name_is_mismatch(tmp_path):
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    flipped = bytearray(records)
    flipped[2] = 0xFF  # first byte of the first parameter name
    path.write_bytes(_pack_container(version, meta, bytes(flipped)))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "mismatch"


def _first_record_header(records):
    """Offsets of the first record's rank byte and of its first extent."""
    rank_at = 2 + struct.unpack_from("<H", records)[0]
    return rank_at, rank_at + 1


def test_checkpoint_rank_above_five_is_mismatch_before_any_reshape(tmp_path):
    # numpy refuses arrays above 64 dims with a bare ValueError; an extent of
    # 0 makes the record's data fit, so only the rank check stands between
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    rank_at, _ = _first_record_header(records)
    bad = records[:rank_at] + bytes([100]) + bytes(400) + records[rank_at + 1:]
    path.write_bytes(_pack_container(version, meta, bad))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "mismatch" and "rank 100" in str(exc.value)


def test_checkpoint_extents_past_int64_are_truncated(tmp_path):
    # five extents of 2^32 - 1: their product wraps in int64, and the record
    # must be refused by its exact size rather than read with a wrapped one
    path = _saved(tmp_path)
    version, meta, records = _split_container(path.read_bytes())
    rank_at, dims_at = _first_record_header(records)
    rank = records[rank_at]
    bad = records[:dims_at] + struct.pack(f"<{rank}I", *[2**32 - 1] * rank) + records[dims_at + 4 * rank:]
    path.write_bytes(_pack_container(version, meta, bad))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "truncated"


def test_checkpoint_reader_refuses_a_negative_length():
    reader = checkpoint._Reader(b"VXPT")
    reader.take(2)
    with pytest.raises(CheckpointError) as exc:
        reader.take(-1)
    assert _code(exc) == "mismatch"
    assert reader.pos == 2


def _v1_container(model, rng, in_channels=2):
    """``model`` as version 1 wrote it: the config also holds the channel
    counts, and each norm-fed conv has a bias record, here random, after its weight."""
    config = {"base_channels": model.config.base_channels, "in_channels": in_channels,
              "out_channels": 1, "dropout_rate": model.config.dropout_rate}
    records = []
    for name, t in model.parameters():
        records.append(_record(name, t.data))
        if name.endswith(".weight") and name != "final.weight":
            records.append(_record(name[:-len("weight")] + "bias", rng.normal(0, 5, t.data.shape[0])))
    meta = {"epoch": 0, "fold": 0, "val_loss": 1.0, "seed": 0, "config": config}
    return _pack_container(1, meta, b"".join(records))


def test_checkpoint_version_1_loads_without_norm_cancelled_biases(tmp_path):
    rng = np.random.default_rng(21)
    model = make_model(2, seed=11)
    for _, t in model.parameters():  # distinct values, so a record read into the wrong place shows
        t.data = rng.normal(size=t.data.shape).astype(np.float32)
    path = tmp_path / "v1.vxpt"
    path.write_bytes(_v1_container(model, rng))
    assert len(_walk_records(_split_container(path.read_bytes())[2])) == 70
    loaded, meta = load_checkpoint(path)
    assert loaded.config == model.config
    assert meta["config"] == asdict(model.config)
    assert [n for n, _ in loaded.parameters()] == [n for n, _ in model.parameters()]
    for (name, want), (_, got) in zip(model.parameters(), loaded.parameters()):
        assert got.data.dtype == np.float32 and got.data.tobytes() == want.data.tobytes(), name


def test_checkpoint_version_1_with_three_input_channels_is_mismatch(tmp_path):
    # records consistent with a 3-channel input: the shapes alone refuse it
    rng = np.random.default_rng(22)
    model = make_model(2, seed=11)
    weight = model.params["enc0.conv1.weight"]
    weight.data = rng.normal(size=(weight.data.shape[0], 3, 3, 3, 3)).astype(np.float32)
    path = tmp_path / "v1.vxpt"
    path.write_bytes(_v1_container(model, rng, in_channels=3))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert _code(exc) == "mismatch"
    assert "enc0.conv1.weight" in str(exc.value)


def test_loaded_model_reproduces_outputs(tmp_path):
    model = make_model(4, seed=13)
    voided, mask = _inputs(n=8, seed=14)
    before = model.forward(voided, mask).data
    path = tmp_path / "m.vxpt"
    save_checkpoint(model, {"epoch": 0, "fold": 0, "val_loss": 0.0, "seed": 0}, path)
    loaded, _ = load_checkpoint(path)
    after = loaded.forward(voided, mask).data
    assert np.array_equal(before, after)
