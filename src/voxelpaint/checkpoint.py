"""Self-describing binary model checkpoints.

Layout (all integers little-endian):

    magic "VXPT" | u32 version | u32 metadata length | metadata JSON
    then per parameter, in model order:
    u16 name length | name UTF-8 | u8 rank | u32 extent per axis | f32 data

The metadata JSON carries the model config plus run provenance (epoch,
fold, val_loss, seed), so a checkpoint alone reconstructs its model.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .unet import UNet, UNetConfig, build_unet
from .util import atomic_open, build_record

MAGIC = b"VXPT"
VERSION = 2
MAX_RANK = 5   # a conv weight's [Cout, Cin, k, k, k]


def save_checkpoint(model: UNet, metadata: dict, path) -> None:
    meta = dict(metadata, config=asdict(model.config))
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for name, t in model.parameters():
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0:
            raise CheckpointError("mismatch", f"a record at byte {self.pos} claims {n} bytes")
        if self.pos + n > len(self.raw):
            raise CheckpointError("truncated", f"checkpoint ends {self.pos + n - len(self.raw)} bytes early")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self) -> bool:
        return self.pos >= len(self.raw)


def load_checkpoint(path) -> tuple[UNet, dict]:
    """Rebuild the model described by the file and return (model, metadata).

    Raises CheckpointError with code bad_magic, version, truncated (also a
    record whose extents need more bytes than remain), mismatch (unknown,
    missing or repeated parameter name, a rank above MAX_RANK, or wrong
    record shape), or non_finite (a parameter holds a NaN or infinity).
    A version 1 file loads without its channel counts and norm-cancelled conv biases.
    The returned metadata's ``config`` is the loaded model's, for either version.
    """
    raw = Path(path).read_bytes()
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad_magic", f"{path} is not a checkpoint file")
    version, meta_len = struct.unpack("<II", r.take(8))
    if version not in (1, VERSION):
        raise CheckpointError("version", f"checkpoint version {version}, expected {VERSION}")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("truncated", f"unreadable checkpoint metadata: {exc}") from exc
    records: dict[str, np.ndarray] = {}
    while not r.done():
        (name_len,) = struct.unpack("<H", r.take(2))
        # a name that is not UTF-8 keeps its bad bytes as \x escapes and so matches no parameter
        name = r.take(name_len).decode("utf-8", errors="backslashreplace")
        (rank,) = struct.unpack("<B", r.take(1))
        if rank > MAX_RANK:
            raise CheckpointError("mismatch", f"parameter {name!r} has rank {rank}, above {MAX_RANK}")
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        if name in records:
            raise CheckpointError("mismatch", f"parameter {name!r} appears twice in checkpoint")
        # an exact count, so a product past int64 is refused as truncated, not wrapped
        records[name] = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    try:
        fields = meta["config"]
        if version == 1:  # channels were always 2 in and 1 out; every conv had a bias
            fields = {k: v for k, v in fields.items() if k not in ("in_channels", "out_channels")}
            records = {n: d for n, d in records.items() if n == "final.bias"
                       or not (n.endswith(".bias") and n[:-4] + "weight" in records)}
        config = build_record(UNetConfig, fields)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise CheckpointError("mismatch", f"checkpoint metadata lacks a usable config: {exc}") from exc

    model = build_unet(config, np.random.default_rng(0))
    params = dict(model.parameters())
    if records.keys() != params.keys():
        raise CheckpointError("mismatch", "checkpoint parameters unknown to the model or missing: "
                              f"{sorted(records.keys() ^ params.keys())[:3]}")
    for name, t in params.items():
        if t.data.shape != records[name].shape:
            raise CheckpointError("mismatch", f"parameter {name!r} has shape {records[name].shape}, "
                                  f"model expects {t.data.shape}")
        if not np.isfinite(records[name]).all():
            raise CheckpointError("non_finite", f"parameter {name!r} holds a NaN or infinite value")
        t.data = records[name].astype(np.float32)
    return model, dict(meta, config=asdict(config))
