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
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .unet import UNet, UNetConfig, build_unet
from .util import atomic_open

MAGIC = b"VXPT"
VERSION = 1


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
        if self.pos + n > len(self.raw):
            raise CheckpointError("truncated", f"checkpoint ends {self.pos + n - len(self.raw)} bytes early")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self) -> bool:
        return self.pos >= len(self.raw)


def load_checkpoint(path) -> tuple[UNet, dict]:
    """Rebuild the model described by the file and return (model, metadata).

    Raises CheckpointError with code bad_magic, version, truncated, or
    mismatch (unknown/missing parameter name or wrong record shape).
    """
    raw = Path(path).read_bytes()
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad_magic", f"{path} is not a checkpoint file")
    version, meta_len = struct.unpack("<II", r.take(8))
    if version != VERSION:
        raise CheckpointError("version", f"checkpoint version {version}, expected {VERSION}")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("truncated", f"unreadable checkpoint metadata: {exc}") from exc
    try:
        config = UNetConfig(**meta["config"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError("mismatch", f"checkpoint metadata lacks a usable config: {exc}") from exc

    model = build_unet(config, np.random.default_rng(0))
    expected = dict(model.parameters())
    seen: set[str] = set()
    while not r.done():
        (name_len,) = struct.unpack("<H", r.take(2))
        # a name that is not UTF-8 keeps its bad bytes as \x escapes and so matches no parameter
        name = r.take(name_len).decode("utf-8", errors="backslashreplace")
        (rank,) = struct.unpack("<B", r.take(1))
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        data = np.frombuffer(r.take(4 * int(np.prod(shape))), dtype="<f4").reshape(shape)
        if name not in expected:
            raise CheckpointError("mismatch", f"unexpected parameter {name!r} in checkpoint")
        if expected[name].data.shape != data.shape:
            raise CheckpointError(
                "mismatch",
                f"parameter {name!r} has shape {data.shape}, model expects {expected[name].data.shape}")
        expected[name].data = data.astype(np.float32).copy()
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointError("mismatch", f"checkpoint lacks parameters: {sorted(missing)[:3]}...")
    return model, meta
