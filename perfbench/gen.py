"""Seeded synthetic inputs: T1-like scans, tumor masks, and U-Net checkpoints.

Scans hold integer-valued intensities: a smooth white/grey-matter and CSF
layout inside an ellipsoidal brain, a slow multiplicative bias field and
Gaussian noise, so gzip sees data that compresses like a real MRI scan
rather than like uniform float noise. Tumors are irregular unions of balls,
sized relative to the brain like BraTS whole-tumor lesions (tens of cm^3
in a 240x240x155 1 mm scan), and placed off-centre in one hemisphere.

The anatomy of a case (brain outline, tumor shape and position) depends
only on the case name and the grid; the seed draws the tissue layout, the
bias field and the noise. With the CLI seed fixed too, mask placement is
the same for every seed, so prepare's placement work and the share of
masked voxels inside the centred inference crop (infer_mask_coverage) do
not swing with the seed, while the voxel data differ. The same seed writes
the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from voxelpaint.checkpoint import save_checkpoint
from voxelpaint.nifti import write_nifti, write_nifti_mask
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.util import make_rng
from voxelpaint.volume import MaskVolume, Volume

WM, GM, CSF, LESION = 900.0, 600.0, 250.0, 380.0
NOISE_SD = 25.0


def _smooth_field(rng: np.random.Generator, dims, cells=(10, 10, 7)) -> np.ndarray:
    """Band-limited float32 field in [-1, 1]: a coarse random grid spread over
    ``dims`` by separable Gaussian interpolation, one matrix product per axis."""
    mats = []
    for n, c in zip(dims, cells):
        pos = (np.arange(n) + 0.5) / n * c - 0.5
        m = np.exp(-((pos[:, None] - np.arange(c)[None, :]) ** 2) / (2 * 0.8 ** 2))
        mats.append((m / m.sum(axis=1, keepdims=True)).astype(np.float32))
    coarse = rng.standard_normal(cells).astype(np.float32)
    field = np.matmul(mats[1], np.tensordot(mats[0], coarse, axes=1)) @ mats[2].T
    return field / (np.abs(field).max() + np.float32(1e-9))


def _ellipsoid_distance(dims, center, radii) -> np.ndarray:
    """Squared normalized ellipsoid radius (< 1 inside), float32, by broadcasting."""
    axes = [(((np.arange(n) - c) / r) ** 2).astype(np.float32) for n, c, r in zip(dims, center, radii)]
    return axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]


def _tumor(rng: np.random.Generator, dims, center, radii, brain: np.ndarray) -> np.ndarray:
    """A core ball and three satellites, a third of the brain's x radius off the
    midline on a random side, clipped two voxels inside the brain."""
    scale = min(dims) / 155.0
    side = 1 if rng.random() < 0.5 else -1
    core = np.array([center[0] + side * radii[0] * 0.32,
                     center[1] + radii[1] * rng.uniform(-0.05, 0.05),
                     center[2] + radii[2] * rng.uniform(-0.05, 0.05)])
    r0 = rng.uniform(18.0, 21.0) * scale
    balls = [(core, r0)]
    for _ in range(3):
        offset = rng.normal(0.0, 1.0, 3)
        offset *= r0 * rng.uniform(0.5, 0.8) / (np.linalg.norm(offset) + 1e-9)
        balls.append((core + offset, rng.uniform(0.45, 0.65) * r0))
    bits = np.zeros(dims, dtype=bool)
    for c, r in balls:
        lo = [max(int(np.floor(ci - r)), 0) for ci in c]
        hi = [min(int(np.ceil(ci + r)) + 1, n) for ci, n in zip(c, dims)]
        gx, gy, gz = (np.arange(a, b) - ci for a, b, ci in zip(lo, hi, c))
        inside = gx[:, None, None] ** 2 + gy[None, :, None] ** 2 + gz[None, None, :] ** 2 <= r * r
        bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] |= inside
    inner = _ellipsoid_distance(dims, center, [r - 2.0 for r in radii]) < 1.0
    return bits & inner & brain


def make_scan(seed: int, case: str, dims) -> tuple[Volume, MaskVolume]:
    """One synthetic T1n scan and its tumor mask for ``case``."""
    anatomy = make_rng("anatomy", case, *dims)
    rng = make_rng(seed, "texture", case, *dims)
    center = [(n - 1) / 2.0 for n in dims]
    radii = [0.30 * dims[0], 0.37 * dims[1], 0.39 * dims[2]]
    dist = _ellipsoid_distance(dims, center, radii)
    dist *= 1.0 + 0.12 * _smooth_field(anatomy, dims, cells=(4, 4, 3))   # uneven cortex outline
    brain = dist < 1.0
    ventricles = _ellipsoid_distance(dims, center, [0.09 * dims[0], 0.16 * dims[1], 0.08 * dims[2]]) < 1.0
    tumor = _tumor(anatomy, dims, center, radii, brain)
    tissue = _smooth_field(rng, dims)
    voxels = np.where(tissue > 0.05, np.float32(WM), np.float32(GM))
    voxels[(dist > 0.865) | ventricles] = CSF
    voxels[tumor] = LESION
    voxels *= 1.0 + 0.08 * _smooth_field(rng, dims, cells=(3, 3, 2))   # coil bias field
    voxels += rng.standard_normal(dims, dtype=np.float32) * np.float32(NOISE_SD)
    np.rint(voxels, out=voxels)
    np.maximum(voxels, 1.0, out=voxels)
    voxels[~brain] = 0.0
    return Volume(voxels), MaskVolume(tumor, role="unhealthy")


def write_scans(input_dir: Path, seed: int, cases: list[str], dims) -> None:
    """Write uncompressed ``{case}-t1n.nii`` and ``{case}-mask-unhealthy.nii``
    per case; ``prepare`` accepts both forms and the gzip cost the program
    pays is in its own writes, not in the inputs."""
    input_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        scan, tumor = make_scan(seed, case, dims)
        write_nifti(scan, input_dir / f"{case}-t1n.nii")
        write_nifti_mask(tumor, input_dir / f"{case}-mask-unhealthy.nii")


def write_checkpoints(out_dir: Path, seed: int, count: int, base_channels: int) -> list[str]:
    """``count`` freshly initialised U-Nets saved as an inference ensemble."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        model = build_unet(UNetConfig(base_channels=base_channels, dropout_rate=0.2),
                           make_rng(seed, "bench-ckpt", i))
        path = out_dir / f"fold{i}-best.vxpt"
        save_checkpoint(model, {"epoch": 0, "fold": i, "val_loss": 0.0, "seed": seed}, path)
        paths.append(str(path))
    return paths
