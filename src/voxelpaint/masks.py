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


@dataclass(frozen=True)
class BoxMask:
    """A mask that is empty outside one box of its volume.

    ``bits`` holds the box's voxels, ``start`` its first voxel on each axis,
    and ``dims`` the whole volume's extents. Placement, augmentation and
    the checks on a candidate read the box alone, so an attempt costs what
    the mask's box costs, not what the scan costs.
    """

    bits: np.ndarray
    start: tuple[int, ...]
    dims: tuple[int, ...]

    @property
    def box(self) -> tuple[slice, ...]:
        return tuple(slice(a, a + e) for a, e in zip(self.start, self.bits.shape))

    def volume(self) -> MaskVolume:
        """The whole-volume healthy mask, in disk (Fortran) order, as the NIfTI writer takes it."""
        bits = np.zeros(self.dims, dtype=bool, order="F")
        bits[self.box] = self.bits
        return MaskVolume(bits, role="healthy")


def _overlaps(a: BoxMask, b: BoxMask) -> bool:
    """Whether two box masks share a set voxel; only the boxes' common part is read."""
    lo = [max(p, q) for p, q in zip(a.start, b.start)]
    hi = [min(p + e, q + f) for p, e, q, f in zip(a.start, a.bits.shape, b.start, b.bits.shape)]
    if any(l >= h for l, h in zip(lo, hi)):
        return False
    a_part, b_part = (m.bits[tuple(slice(l - s, h - s) for l, h, s in zip(lo, hi, m.start))]
                      for m in (a, b))
    return bool((a_part & b_part).any())


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


def sample_healthy_mask(brain: MaskVolume, forbidden: BoxMask, block: np.ndarray,
                        params: MaskGenParams, rng: np.random.Generator) -> BoxMask:
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
                placed = BoxMask(block, tuple(starts), dims)
                if not _overlaps(placed, forbidden):
                    return placed
        block = erode(block, 1)
    raise MaskPlacementError(
        f"no legal placement after erosion exhausted the shape (margin={params.margin})")


# -- augmentation -------------------------------------------------------------


def _rotate_plane(mask: BoxMask, theta_deg: float, axes: tuple[int, int]) -> BoxMask:
    """Rotate about the grid center in the given axis plane, nearest neighbor.

    Output voxel i reads the input at rint(c + R (i - c)), with c the grid
    center; sources outside the grid, or outside the input box, read as
    empty. Only the output box is computed: the inverse image of the input
    box widened by half a voxel, floored and ceiled, one voxel more a side
    for rounding, clamped to the grid. Every output voxel outside it reads
    a source outside the input box, so the result equals the whole-grid
    rotation voxel for voxel.
    """
    if not mask.bits.any():
        return mask     # stays empty; its box may have no voxel to gather from
    p, q = axes
    n0, n1 = mask.dims[p], mask.dims[q]
    a0, a1 = mask.start[p], mask.start[q]
    e0, e1 = mask.bits.shape[p], mask.bits.shape[q]
    c0, c1 = (n0 - 1) / 2.0, (n1 - 1) / 2.0
    t = np.deg2rad(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    d0 = np.array([a0 - 0.5, a0 + e0 - 0.5] * 2) - c0     # widened box corners, centred
    d1 = np.repeat([a1 - 0.5, a1 + e1 - 0.5], 2) - c1
    (lo0, hi0), (lo1, hi1) = (
        np.clip([np.floor(image.min()) - 1, np.ceil(image.max()) + 2], 0, n).astype(np.int64)
        for image, n in ((c0 + ct * d0 - st * d1, n0), (c1 + st * d0 + ct * d1, n1)))
    i0, i1 = np.meshgrid(np.arange(lo0, hi0), np.arange(lo1, hi1), indexing="ij")
    s0 = c0 + ct * (i0 - c0) + st * (i1 - c1)
    s1 = c1 - st * (i0 - c0) + ct * (i1 - c1)
    r0 = np.rint(s0).astype(np.int64) - a0
    r1 = np.rint(s1).astype(np.int64) - a1
    valid = (r0 >= 0) & (r0 < e0) & (r1 >= 0) & (r1 < e1)
    arr = np.moveaxis(mask.bits, axes, (0, 1))
    gathered = arr[np.clip(r0, 0, e0 - 1), np.clip(r1, 0, e1 - 1)]
    gathered[~valid] = False
    start = list(mask.start)
    start[p], start[q] = int(lo0), int(lo1)
    return BoxMask(np.moveaxis(gathered, (0, 1), axes), tuple(start), mask.dims)


def apply_mask_transform(mask: BoxMask, mirrors: tuple[bool, bool, bool],
                         theta_xy: float, theta_yz: float) -> BoxMask:
    """Mirror per axis, then rotate in the XY plane, then in the YZ plane.

    The transforms act on the whole grid, but only the mask's box is
    touched: a mirror flips the box and moves its start on an axis of
    length n to n - (start + extent), and a rotation computes only the
    box its input can reach (see ``_rotate_plane``). A mask carried wholly
    off the grid comes back with no set voxel.
    """
    bits, start = mask.bits, list(mask.start)
    for axis, m in enumerate(mirrors):
        if m:
            bits = np.flip(bits, axis=axis)
            start[axis] = mask.dims[axis] - (start[axis] + bits.shape[axis])
    out = BoxMask(bits, tuple(start), mask.dims)
    if theta_xy % 360.0 != 0.0:
        out = _rotate_plane(out, theta_xy, (0, 1))
    if theta_yz % 360.0 != 0.0:
        out = _rotate_plane(out, theta_yz, (1, 2))
    return out


def augment_mask(mask: BoxMask, rng: np.random.Generator) -> BoxMask:
    """Random per-axis mirrors (p=0.5 each) and two uniform rotations.

    Draw order is fixed for reproducibility: mirror x, y, z, then the XY
    angle, then the YZ angle.
    """
    mirrors = tuple(bool(b) for b in rng.random(3) < 0.5)
    theta_xy = float(rng.uniform(0.0, 360.0))
    theta_yz = float(rng.uniform(0.0, 360.0))
    return apply_mask_transform(mask, mirrors, theta_xy, theta_yz)


def generate_mask_set(brain: MaskVolume, tumor: MaskVolume, params: MaskGenParams,
                      rng: np.random.Generator) -> list[MaskVolume]:
    """Draw ``params.variants`` independent augmented healthy masks for one scan.

    Each draw places, augments, clips to the brain, and re-checks the
    margin; an augmented mask that ends up empty or tumor-adjacent costs
    one attempt and is redrawn. Either all masks succeed or the scan
    fails as a whole. The tumor's shape block is cut out, and the tumor
    dilated on its box grown by the margin, once per scan; every placement
    attempt reuses them and reads only its own box. An accepted mask is
    written into a whole volume once.
    """
    if brain.dims != tumor.dims:
        raise ShapeError(f"brain dims {brain.dims} and tumor dims {tumor.dims} disagree")
    if not brain.bits.any():
        raise DataError("brain mask is empty")
    try:
        box = bounding_box(tumor.bits)
    except DataError:
        raise DataError("tumor mask is empty, nothing to place") from None
    if np.any(tumor.bits[box] & ~brain.bits[box]):
        raise DataError("tumor mask leaves the brain mask")
    grown = tuple(slice(max(s.start - params.margin, 0), min(s.stop + params.margin, n))
                  for s, n in zip(box, brain.dims))
    forbidden = BoxMask(dilate(tumor.bits[grown], params.margin),
                        tuple(s.start for s in grown), brain.dims)
    block = _shrink_to_fraction(tumor.bits[box].copy(), params.volume_fraction)
    out: list[MaskVolume] = []
    for index in range(params.variants):
        for _ in range(params.max_attempts):
            placed = sample_healthy_mask(brain, forbidden, block, params, rng)
            candidate = augment_mask(placed, rng)
            clipped = BoxMask(candidate.bits & brain.bits[candidate.box],
                              candidate.start, candidate.dims)
            if clipped.bits.any() and not _overlaps(clipped, forbidden):
                out.append(clipped.volume())
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
    """One (scan, mask-variant) pair: what every file of a prepared sample derives from."""

    case_id: str
    t1n: Volume
    healthy: MaskVolume
    unhealthy: MaskVolume
    combined: MaskVolume


def make_training_sample(case_id: str, t1n: Volume, tumor: MaskVolume,
                         healthy: MaskVolume) -> TrainingSample:
    """Assemble a sample from a scan, its tumor, and one healthy mask; a mask
    of other dims than the scan's, or masks that overlap, raise DataError."""
    for component, mask in (("mask-healthy", healthy), ("mask-unhealthy", tumor)):
        if mask.dims != t1n.dims:
            raise DataError(f"{case_id}: {component} dims {mask.dims} differ from t1n dims {t1n.dims}")
    if (healthy.bits & tumor.bits).any():
        raise DataError(f"{case_id}: healthy and unhealthy masks overlap")
    return TrainingSample(case_id=case_id, t1n=t1n, healthy=MaskVolume(healthy.bits, role="healthy"),
                          unhealthy=MaskVolume(tumor.bits, role="unhealthy"),
                          combined=MaskVolume(healthy.bits | tumor.bits, role="combined"))
