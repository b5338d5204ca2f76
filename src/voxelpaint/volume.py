"""Volumes, masks, bounding boxes, the window rule, and stitching.

Voxel arrays are indexed [x, y, z].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

MASK_ROLES = ("healthy", "unhealthy", "combined", "brain")


@dataclass
class Volume:
    voxels: np.ndarray
    affine_bytes: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.dtype != np.float32:
            self.voxels = self.voxels.astype(np.float32)
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume must be 3-D, got shape {self.voxels.shape}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape


@dataclass
class MaskVolume:
    bits: np.ndarray
    role: str = "healthy"

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        if self.bits.dtype != np.bool_:
            self.bits = self.bits.astype(bool)
        if self.bits.ndim != 3:
            raise ShapeError(f"mask must be 3-D, got shape {self.bits.shape}")
        if self.role not in MASK_ROLES:
            raise DataError(f"unknown mask role {self.role!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.bits.shape


def bounding_box(bits: np.ndarray) -> tuple[slice, ...]:
    """Tightest box holding every set voxel, one slice per axis.

    Found from per-axis ``any()`` projections, one pass over the mask each,
    instead of listing the coordinates of every set voxel. Raises DataError
    on an empty mask.
    """
    box = []
    for axis in range(bits.ndim):
        hits = np.flatnonzero(bits.any(axis=tuple(a for a in range(bits.ndim) if a != axis)))
        if hits.size == 0:
            raise DataError("mask is empty, it has no bounding box")
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def crop_center(dims, extents, around) -> tuple[slice, ...]:
    """The window of ``extents`` centred on the box ``around``, moved inside ``dims``.

    The one rule that places a window in a volume. On an axis of length n,
    the window of extent t around [lo, hi) starts at
    ``min(max(lo + (hi - lo - t) // 2, 0), n - t)``: centred on the box,
    with the floor, then shifted to fit. Around the whole volume
    (``slice(None)`` per axis) this is the centre crop floor((n - t) / 2);
    around a mask's tight box with t = max(hi - lo, w), it is that box
    widened one voxel a side, low side first, to at least w. ROADMAP items
    1 (tiles anchored on the mask's box) and 2 (training crops centred on
    the healthy mask) reuse it. Raises ShapeError unless the three lengths
    match and 1 <= t <= n on every axis.
    """
    if not len(dims) == len(extents) == len(around):
        raise ShapeError(f"window {tuple(extents)}, volume {tuple(dims)} and box differ in rank")
    window = []
    for n, t, box in zip(dims, extents, around):
        n, t = int(n), int(t)
        if not 1 <= t <= n:
            raise ShapeError(f"window {tuple(extents)} does not fit in volume {tuple(dims)}")
        lo, hi, _ = box.indices(n)
        start = min(max(lo + (hi - lo - t) // 2, 0), n - t)
        window.append(slice(start, start + t))
    return tuple(window)


def stitch(original: Volume, prediction: np.ndarray, mask_bits: np.ndarray, box) -> Volume:
    """Write prediction voxels under the mask back into a copy of original.

    prediction and mask_bits cover the window ``box`` of original; every
    voxel outside the mask keeps its original value bit for bit.
    """
    window = original.voxels[box].shape
    if prediction.shape != window or mask_bits.shape != window:
        raise ShapeError(f"prediction {prediction.shape} and mask {mask_bits.shape} do not fit "
                         f"window {window} of volume {original.dims}")
    out = original.voxels.copy(order="K")   # keep disk order: the writer then copies nothing
    out[box][mask_bits] = prediction[mask_bits]
    return Volume(out, affine_bytes=original.affine_bytes)
