"""Volumes, masks, bounding boxes, center cropping, and stitching.

Voxel arrays are indexed [x, y, z]. Intensity domains are tagged:
"raw" (scanner units), "unit" ([0,1]), "signed-unit" ([-1,1]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

DOMAINS = ("raw", "unit", "signed-unit")
MASK_ROLES = ("healthy", "unhealthy", "combined", "brain")


@dataclass
class Volume:
    voxels: np.ndarray
    domain: str = "raw"
    affine_bytes: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.dtype != np.float32:
            self.voxels = self.voxels.astype(np.float32)
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume must be 3-D, got shape {self.voxels.shape}")
        if self.domain not in DOMAINS:
            raise DataError(f"unknown intensity domain {self.domain!r}")

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

    def count(self) -> int:
        return int(self.bits.sum())


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


@dataclass(frozen=True)
class CropSpec:
    source_dims: tuple[int, int, int]
    target_dims: tuple[int, int, int]
    starts: tuple[int, int, int]


def make_crop_spec(source_dims, target_dims) -> CropSpec:
    """Center crop placement: start = floor((source - target) / 2) per axis."""
    source = tuple(int(e) for e in source_dims)
    target = tuple(int(e) for e in target_dims)
    if len(source) != 3 or len(target) != 3:
        raise ShapeError("crop dims must be 3-tuples")
    for s, t in zip(source, target):
        if t < 1:
            raise ShapeError(f"target extents must be positive, got {target}")
        if t > s:
            raise ShapeError(f"target {target} exceeds source {source}")
    starts = tuple((s - t) // 2 for s, t in zip(source, target))
    return CropSpec(source, target, starts)


def _crop_slices(spec: CropSpec):
    return tuple(slice(a, a + t) for a, t in zip(spec.starts, spec.target_dims))


def crop_center(volume: Volume, target_dims) -> tuple[Volume, CropSpec]:
    spec = make_crop_spec(volume.dims, target_dims)
    cropped = Volume(volume.voxels[_crop_slices(spec)].copy(), domain=volume.domain)
    return cropped, spec


def crop_mask(mask: MaskVolume, spec: CropSpec) -> MaskVolume:
    if mask.dims != spec.source_dims:
        raise ShapeError(f"mask dims {mask.dims} do not match crop source {spec.source_dims}")
    return MaskVolume(mask.bits[_crop_slices(spec)].copy(), role=mask.role)


def stitch(original: Volume, prediction: Volume, mask: MaskVolume, spec: CropSpec) -> Volume:
    """Write prediction voxels under the mask back into a copy of original.

    prediction and mask live on the crop grid; every voxel outside the
    mask keeps its original value bit for bit.
    """
    if original.dims != spec.source_dims:
        raise ShapeError(f"original dims {original.dims} do not match crop source {spec.source_dims}")
    if prediction.dims != spec.target_dims:
        raise ShapeError(f"prediction dims {prediction.dims} do not match crop target {spec.target_dims}")
    if mask.dims != spec.target_dims:
        raise ShapeError(f"mask dims {mask.dims} do not match crop target {spec.target_dims}")
    out = original.voxels.copy(order="K")   # keep disk order: the writer then copies nothing
    region = out[_crop_slices(spec)]
    region[mask.bits] = prediction.voxels[mask.bits]
    return Volume(out, domain=original.domain, affine_bytes=original.affine_bytes)
