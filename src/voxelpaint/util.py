"""Seed derivation for reproducible per-scope RNG streams, and atomic writes.

Python's builtin hash() is salted per process, so seeds are derived from
sha256 instead; the same parts always map to the same stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path

import numpy as np


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the given parts (ints, strings, ...)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp sibling of path for writing; a clean exit moves it onto path.

    If the block raises, the file already at path stays as it was and the
    temp file is removed, so readers never see a half-written output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
