"""Seeded mutation test of every reader: a damaged file reads, or raises the reader's own error.

Each reader gets a few hundred mutants of one valid file: single bit flips,
byte overwrites, truncations and planted int32 extremes. Positions fall
anywhere in the file half of the time and in its first 512 bytes (where the
headers, lengths and extents sit) the other half. Only stdlib ``random``
draws them, so every run tries the same mutants.
"""

import random
import struct

import numpy as np
import pytest

from voxelpaint.checkpoint import load_checkpoint, save_checkpoint
from voxelpaint.dataset import Manifest, ManifestEntry, load_manifest, save_manifest
from voxelpaint.errors import CheckpointError, DataError, NiftiError
from voxelpaint.nifti import read_nifti, read_nifti_mask, write_nifti, write_nifti_mask
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.volume import MaskVolume, Volume

MUTANTS = 300
INT32_EXTREMES = (2**31 - 1, -2**31, -1, 0, 2**16, -2**16)


def mutants(data: bytes, seed: int, count: int = MUTANTS):
    """(description, bytes) of ``count`` seeded mutants of ``data``."""
    rng = random.Random(seed)

    def position(width=1):
        top = len(data) - width + 1 if rng.random() < 0.5 else min(512, len(data) - width + 1)
        return rng.randrange(top)

    for _ in range(count):
        out, kind = bytearray(data), rng.choice(("flip", "overwrite", "truncate", "int32"))
        if kind == "flip":
            at, bit = position(), rng.randrange(8)
            out[at] ^= 1 << bit
            what = f"bit {bit} of byte {at} flipped"
        elif kind == "overwrite":
            at, value = position(), rng.randrange(256)
            out[at] = value
            what = f"byte {at} set to {value}"
        elif kind == "truncate":
            at = position()
            del out[at:]
            what = f"truncated to {at} bytes"
        else:
            at, value = position(4), rng.choice(INT32_EXTREMES)
            struct.pack_into("<i", out, at, value)
            what = f"int32 {value} planted at byte {at}"
        yield what, bytes(out)


def _scan():
    rng = np.random.default_rng(21)
    return Volume(rng.uniform(0, 1000, (6, 5, 4)).astype(np.float32))


def _write_scan(path):
    write_nifti(_scan(), path)


def _write_mask(path):
    write_nifti_mask(MaskVolume(_scan().voxels > 500, role="unhealthy"), path)


def _write_checkpoint(path):
    model = build_unet(UNetConfig(base_channels=1), np.random.default_rng(22))
    save_checkpoint(model, {"epoch": 3, "fold": 0, "val_loss": 0.5, "seed": 7}, path)


def _write_manifest(path):
    entries = [ManifestEntry(case_id=f"case{i:02d}", variant=v, sample_id=f"case{i:02d}-m{v}",
                             directory=f"case{i:02d}-m{v}", seed=1000 + i)
               for i in range(2) for v in range(2)]
    manifest = Manifest(seed=7, samples=entries,
                        skipped=[{"case_id": "case02", "reason": "missing tumor mask"}])
    assert save_manifest(manifest, path.parent) == path


# name: (file name, writer, reader, the reader's own error)
READERS = {
    "nii": ("scan.nii", _write_scan, read_nifti, NiftiError),
    "nii_gz": ("scan.nii.gz", _write_scan, read_nifti, NiftiError),
    "mask": ("mask.nii.gz", _write_mask, lambda p: read_nifti_mask(p, "unhealthy"), NiftiError),
    "vxpt": ("model.vxpt", _write_checkpoint, load_checkpoint, CheckpointError),
    "manifest": ("manifest.json", _write_manifest, lambda p: load_manifest(p.parent), DataError),
}


@pytest.mark.filterwarnings("error")   # a warning is not a reason either
@pytest.mark.parametrize("name", sorted(READERS))
def test_every_mutant_reads_or_raises_the_readers_own_error(tmp_path, name):
    filename, write, read, own_error = READERS[name]
    path = tmp_path / filename
    write(path)
    read(path)   # the intact file reads
    original = path.read_bytes()
    outcomes = {"read": 0, "refused": 0}
    for i, (what, data) in enumerate(mutants(original, seed=sorted(READERS).index(name))):
        path.write_bytes(data)
        try:
            read(path)
        except own_error:
            outcomes["refused"] += 1
        except Exception as exc:
            pytest.fail(f"{name} mutant {i} ({what}) raised {type(exc).__name__}: {exc}")
        else:
            outcomes["read"] += 1
    # the mutants land on both sides of the reader's checks
    assert outcomes["read"] > 0 and outcomes["refused"] > MUTANTS // 10, outcomes


def test_mutants_are_seeded_and_nearly_all_differ_from_the_original():
    data = bytes(range(256)) * 4
    first = list(mutants(data, seed=3, count=50))
    assert first == list(mutants(data, seed=3, count=50))
    # an overwrite or a planted int32 may write the bytes already there
    assert sum(m != data for _, m in first) >= 45
