"""Healthy-mask synthesis, augmentation, and image voiding.

A training mask is the tumor shape translated to a random in-brain
location that stays clear of the (dilated) tumor itself, then mirrored
and rotated. Each scan gets ``MaskGenParams.variants`` (at least one)
such masks, so one ground truth yields several training samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, MaskPlacementError, ShapeError
from .volume import MaskVolume, Volume, bounding_box


@dataclass(frozen=True)
class MaskGenParams:
    margin: int = 4                 # dilation radius separating mask from tumor
    volume_fraction: float = 1.0    # target mask volume relative to the tumor's
    max_attempts: int = 100
    variants: int = 5               # augmented masks drawn per scan

    def __post_init__(self):
        if self.margin < 0:
            raise DataError(f"margin must be >= 0, got {self.margin}")
        if not 0.0 < self.volume_fraction <= 1.0:
            raise DataError(f"volume_fraction must be in (0, 1], got {self.volume_fraction}")
        if self.max_attempts < 1:
            raise DataError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.variants < 1:
            raise DataError(f"variants must be >= 1, got {self.variants}")


# -- morphology ---------------------------------------------------------------
#
# The structuring element is the Chebyshev ball (a cube of side 2r+1),
# which factors into one 1-D sweep per axis. One kernel serves both
# operations: erosion is the complement of the dilated complement, and the
# complement is padded with True so that outside the array counts as empty.


def dilate(bits: np.ndarray, radius: int) -> np.ndarray:
    """Grow a boolean mask by a Chebyshev radius."""
    # a C-order copy, so that the shifted operands below share one layout
    # (masks read from NIfTI arrive in Fortran order)
    out = np.array(bits, dtype=bool, order="C")
    for axis in range(out.ndim):
        dst, src = np.moveaxis(out, axis, 0), np.moveaxis(out.copy(), axis, 0)
        # shifts of the extent or more reach nothing
        for s in range(1, min(radius, dst.shape[0] - 1) + 1):
            dst[:-s] |= src[s:]
            dst[s:] |= src[:-s]
    return out


def erode(bits: np.ndarray, radius: int) -> np.ndarray:
    """Shrink a boolean mask by a Chebyshev radius; borders erode too."""
    # one ring of padding is enough: every outside voxel within the radius
    # has a ring voxel at least as close
    grown = dilate(np.pad(~np.asarray(bits, dtype=bool), 1, constant_values=True), radius)
    return ~grown[(slice(1, -1),) * grown.ndim]


# -- placement ----------------------------------------------------------------


def _shape_block(tumor_bits: np.ndarray) -> np.ndarray:
    try:
        box = bounding_box(tumor_bits)
    except DataError:
        raise DataError("tumor mask is empty, nothing to place") from None
    return tumor_bits[box].copy()


def _shrink_to_fraction(block: np.ndarray, fraction: float) -> np.ndarray:
    if fraction >= 1.0:
        return block
    target = fraction * block.sum()
    while block.sum() > target:
        smaller = erode(block, 1)
        if not smaller.any():
            break
        block = smaller
    return block


def sample_healthy_mask(brain: MaskVolume, forbidden: np.ndarray, block: np.ndarray,
                        params: MaskGenParams, rng: np.random.Generator) -> MaskVolume:
    """Translate the shape ``block`` to a random legal spot.

    Legal means: nonempty, fully inside the brain, and disjoint from
    ``forbidden`` (the tumor dilated by the separation margin). After
    max_attempts failures the shape is eroded one step and the attempts
    start over; an empty shape means placement failed.
    """
    dims = brain.dims
    while block.any():
        ext = block.shape
        if all(e <= d for e, d in zip(ext, dims)):
            for _ in range(params.max_attempts):
                starts = [int(rng.integers(0, d - e + 1)) for d, e in zip(dims, ext)]
                sl = tuple(slice(a, a + e) for a, e in zip(starts, ext))
                if not brain.bits[sl][block].all():
                    continue
                if forbidden[sl][block].any():
                    continue
                placed = np.zeros(dims, dtype=bool)
                placed[sl] = block
                return MaskVolume(placed, role="healthy")
        block = erode(block, 1)
    raise MaskPlacementError(
        f"no legal placement after erosion exhausted the shape (margin={params.margin})")


# -- augmentation -------------------------------------------------------------


def _rotate_plane(bits: np.ndarray, theta_deg: float, axes: tuple[int, int]) -> np.ndarray:
    """Rotate about the grid center in the given axis plane, nearest neighbor.

    Output voxels map back through the inverse rotation; sources that
    land outside the grid read as empty.
    """
    arr = np.moveaxis(bits, axes, (0, 1))
    n0, n1 = arr.shape[0], arr.shape[1]
    c0, c1 = (n0 - 1) / 2.0, (n1 - 1) / 2.0
    t = np.deg2rad(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    i0, i1 = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    s0 = c0 + ct * (i0 - c0) + st * (i1 - c1)
    s1 = c1 - st * (i0 - c0) + ct * (i1 - c1)
    r0 = np.rint(s0).astype(np.int64)
    r1 = np.rint(s1).astype(np.int64)
    valid = (r0 >= 0) & (r0 < n0) & (r1 >= 0) & (r1 < n1)
    gathered = arr[np.clip(r0, 0, n0 - 1), np.clip(r1, 0, n1 - 1)]
    gathered[~valid] = False
    return np.moveaxis(gathered, (0, 1), axes)


def apply_mask_transform(bits: np.ndarray, mirrors: tuple[bool, bool, bool],
                         theta_xy: float, theta_yz: float) -> np.ndarray:
    """Mirror per axis, then rotate in the XY plane, then in the YZ plane.

    The result is in disk (Fortran) order: the YZ rotation leaves x
    fastest already, so this is the cheaper copy, and the masks built from
    it reach the NIfTI writer without a transposing copy.
    """
    out = np.asarray(bits, dtype=bool)
    for axis, m in enumerate(mirrors):
        if m:
            out = np.flip(out, axis=axis)
    if theta_xy % 360.0 != 0.0:
        out = _rotate_plane(out, theta_xy, (0, 1))
    if theta_yz % 360.0 != 0.0:
        out = _rotate_plane(out, theta_yz, (1, 2))
    return np.asfortranarray(out)


def augment_mask(mask: MaskVolume, rng: np.random.Generator) -> MaskVolume:
    """Random per-axis mirrors (p=0.5 each) and two uniform rotations.

    Draw order is fixed for reproducibility: mirror x, y, z, then the XY
    angle, then the YZ angle.
    """
    mirrors = tuple(bool(b) for b in rng.random(3) < 0.5)
    theta_xy = float(rng.uniform(0.0, 360.0))
    theta_yz = float(rng.uniform(0.0, 360.0))
    return MaskVolume(apply_mask_transform(mask.bits, mirrors, theta_xy, theta_yz), role=mask.role)


def generate_mask_set(brain: MaskVolume, tumor: MaskVolume, params: MaskGenParams,
                      rng: np.random.Generator) -> list[MaskVolume]:
    """Draw ``params.variants`` independent augmented healthy masks for one scan.

    Each draw places, augments, clips to the brain, and re-checks the
    margin; an augmented mask that ends up empty or tumor-adjacent costs
    one attempt and is redrawn. Either all masks succeed or the scan
    fails as a whole. The tumor is dilated and its shape block cut out
    once per scan; every placement attempt reuses them.
    """
    if brain.dims != tumor.dims:
        raise ShapeError(f"brain dims {brain.dims} and tumor dims {tumor.dims} disagree")
    if not brain.bits.any():
        raise DataError("brain mask is empty")
    if np.any(tumor.bits & ~brain.bits):
        raise DataError("tumor mask leaves the brain mask")
    forbidden = dilate(tumor.bits, params.margin)
    block = _shrink_to_fraction(_shape_block(tumor.bits), params.volume_fraction)
    out: list[MaskVolume] = []
    for index in range(params.variants):
        for _ in range(params.max_attempts):
            placed = sample_healthy_mask(brain, forbidden, block, params, rng)
            candidate = augment_mask(placed, rng)
            clipped = candidate.bits & brain.bits
            if clipped.any() and not (clipped & forbidden).any():
                out.append(MaskVolume(clipped, role="healthy"))
                break
        else:
            raise MaskPlacementError(
                f"mask variant {index} found no legal augmented placement "
                f"in {params.max_attempts} attempts")
    return out


# -- voiding and sample assembly ----------------------------------------------


def void_image(image: Volume, combined: MaskVolume) -> Volume:
    """Set the masked region of a scan to 0."""
    if image.dims != combined.dims:
        raise ShapeError(f"image dims {image.dims} and mask dims {combined.dims} disagree")
    voxels = image.voxels.copy(order="K")   # keep disk order: the writer then copies nothing
    voxels[combined.bits] = 0.0
    return Volume(voxels, affine_bytes=image.affine_bytes)


@dataclass
class TrainingSample:
    """The five on-disk components of one (scan, mask-variant) pair."""

    case_id: str
    t1n: Volume
    t1n_voided: Volume
    healthy: MaskVolume
    unhealthy: MaskVolume
    combined: MaskVolume


def make_training_sample(case_id: str, t1n: Volume, tumor: MaskVolume,
                         healthy: MaskVolume) -> TrainingSample:
    """Assemble the sample components from a scan, its tumor, and one mask."""
    if (healthy.bits & tumor.bits).any():
        raise DataError(f"{case_id}: healthy and unhealthy masks overlap")
    combined = MaskVolume(healthy.bits | tumor.bits, role="combined")
    voided = void_image(t1n, combined)
    return TrainingSample(
        case_id=case_id,
        t1n=t1n,
        t1n_voided=voided,
        healthy=MaskVolume(healthy.bits, role="healthy"),
        unhealthy=MaskVolume(tumor.bits, role="unhealthy"),
        combined=combined,
    )
