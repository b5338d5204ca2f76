"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately naive (nested loops, brute-force window
scans, np.rot90/np.flip compositions) so that the production code and the
test expectations are computed by two unrelated routes.
"""

import contextlib
import json
import math
import struct

import numpy as np
import pytest

from voxelpaint import util
from voxelpaint.autodiff import Tensor, concat_channels, conv3d, upsample3d_nearest
from voxelpaint.losses import ssim3d
from voxelpaint.metrics import CaseMetrics
from voxelpaint.masks import (BoxMask, MaskGenParams, _shrink_to_fraction, apply_mask_transform,
                              dilate, make_training_sample, sample_healthy_mask)
from voxelpaint.nifti import write_nifti, write_nifti_mask
from voxelpaint.trainer import kfold_split, prepare_sample
from voxelpaint.util import concurrently
from voxelpaint.volume import MaskVolume, Volume, bounding_box


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def gradcheck(build_loss, tensors, rng, n_samples=20, h=1e-3, floor=1e-3):
    """Worst relative error between autodiff and central finite differences.

    ``build_loss`` must rebuild the graph from the current ``tensors`` data on
    every call and return a scalar Tensor.  Gradients are taken once; the FD
    probes then re-evaluate the loss with single elements nudged by ±h.
    """
    for t in tensors:
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    grads = [np.array(t.grad, dtype=np.float64, copy=True) for t in tensors]
    worst = 0.0
    for t, g in zip(tensors, grads):
        count = min(n_samples, t.size)
        idxs = rng.choice(t.size, size=count, replace=False)
        for idx in idxs:
            orig = t.data.flat[idx]
            t.data.flat[idx] = orig + h
            lp = build_loss().item()
            t.data.flat[idx] = orig - h
            lm = build_loss().item()
            t.data.flat[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            ad = g.flat[idx]
            rel = abs(ad - fd) / max(abs(ad), abs(fd), floor)
            worst = max(worst, rel)
    return worst


def gradcheck_global(build_loss, tensors, rng, n_samples=20, h=1e-3, floor=1e-3):
    """Like gradcheck, but samples n_samples positions across ALL tensors.

    Suited to whole-model checks, where probing 20 entries of every one of
    dozens of parameter tensors would cost thousands of forward passes.
    """
    for t in tensors:
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    grads = [np.array(t.grad, dtype=np.float64, copy=True) for t in tensors]
    sizes = np.array([t.size for t in tensors])
    bounds = np.cumsum(sizes)
    total = int(bounds[-1])
    flat_picks = rng.choice(total, size=min(n_samples, total), replace=False)
    worst = 0.0
    for pick in flat_picks:
        ti = int(np.searchsorted(bounds, pick, side="right"))
        idx = int(pick - (bounds[ti - 1] if ti else 0))
        t, g = tensors[ti], grads[ti]
        orig = t.data.flat[idx]
        t.data.flat[idx] = orig + h
        lp = build_loss().item()
        t.data.flat[idx] = orig - h
        lm = build_loss().item()
        t.data.flat[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        ad = g.flat[idx]
        rel = abs(ad - fd) / max(abs(ad), abs(fd), floor)
        worst = max(worst, rel)
    return worst


def leaf(rng, shape, scale=1.0, dtype=np.float64, offset=0.0):
    data = (rng.standard_normal(shape) * scale + offset).astype(dtype)
    return Tensor(data, requires_grad=True)


def away_from_zero(rng, shape, low=0.1, high=1.0):
    """Leaf whose entries keep |x| >= low, so kinked ops see no sign flips."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def separated_pool_input(rng, n, c, d, h, w):
    """Random values whose in-window gaps are >= 0.2: FD can't flip the argmax."""
    blocks = (n, c, d // 2, h // 2, w // 2)
    ranks = np.stack([rng.permutation(8) for _ in range(int(np.prod(blocks)))])
    vals = ranks * 0.25 + rng.uniform(0.0, 0.05, size=ranks.shape)
    win = vals.reshape(*blocks, 2, 2, 2)
    data = win.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(n, c, d, h, w)
    return Tensor(np.ascontiguousarray(data), requires_grad=True)


# ---------------------------------------------------------------------------
# Naive convolution oracle
# ---------------------------------------------------------------------------

def conv3d_oracle(x, weight, bias=None, padding=0):
    """Direct nested-loop 3-D cross-correlation in float64."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, ci, d, hh, ww = x.shape
    co, ci2, k, _, _ = weight.shape
    assert ci == ci2
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    od, oh, ow = d + 2 * p - k + 1, hh + 2 * p - k + 1, ww + 2 * p - k + 1
    out = np.zeros((n, co, od, oh, ow), dtype=np.float64)
    for nn in range(n):
        for oc in range(co):
            for z in range(od):
                for y in range(oh):
                    for xx in range(ow):
                        acc = 0.0
                        for ic in range(ci):
                            for dz in range(k):
                                for dy in range(k):
                                    for dx in range(k):
                                        acc += (xp[nn, ic, z + dz, y + dy, xx + dx]
                                                * weight[oc, ic, dz, dy, dx])
                        if bias is not None:
                            acc += float(bias[oc])
                        out[nn, oc, z, y, xx] = acc
    return out


def conv3d_vjp_oracle(x, weight, g, padding=0):
    """Nested-loop vector-Jacobian product of conv3d_oracle, in float64.

    Scatters every upstream value g[n, oc, z, y, x] back along the taps that
    produced it; returns (grad_input, grad_weight).
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, ci, d, hh, ww = x.shape
    co, _, k, _, _ = weight.shape
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(weight)
    od, oh, ow = g.shape[2:]
    for nn in range(n):
        for oc in range(co):
            for z in range(od):
                for y in range(oh):
                    for xx in range(ow):
                        up = g[nn, oc, z, y, xx]
                        for ic in range(ci):
                            for dz in range(k):
                                for dy in range(k):
                                    for dx in range(k):
                                        gxp[nn, ic, z + dz, y + dy, xx + dx] += (
                                            up * weight[oc, ic, dz, dy, dx])
                                        gw[oc, ic, dz, dy, dx] += (
                                            up * xp[nn, ic, z + dz, y + dy, xx + dx])
    return gxp[:, :, p:p + d, p:p + hh, p:p + ww], gw


# ---------------------------------------------------------------------------
# Reference pooling and activation kernels (argmax routing, np.where masks)
# ---------------------------------------------------------------------------

def maxpool3d_reference(x, g):
    """2x2x2 max pool and its gradient by argmax and put_along_axis.

    Windows are gathered into a trailing axis of 8 in (kd, kh, kw) order;
    argmax picks the first maximum, and the upstream gradient ``g`` is put
    at that slot. Returns (pooled, grad_input) in the dtype of ``x``.
    """
    n, c, d, h, w = x.shape
    win = (x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(n, c, d // 2, h // 2, w // 2, 8))
    idx = win.argmax(axis=-1)[..., None]
    pooled = np.take_along_axis(win, idx, axis=-1)[..., 0]
    buf = np.zeros_like(win)
    np.put_along_axis(buf, idx, np.asarray(g, dtype=x.dtype)[..., None], axis=-1)
    gx = (buf.reshape(n, c, d // 2, h // 2, w // 2, 2, 2, 2)
          .transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(n, c, d, h, w))
    return pooled, gx


def prelu_reference(x, alpha, g):
    """PReLU forward, input gradient and alpha gradient by np.where.

    Returns (out, grad_input, grad_alpha) in the dtype of ``x``; grad_alpha
    sums g * x over the negative entries.
    """
    a = x.dtype.type(alpha)
    neg = x < 0
    out = np.where(neg, a * x, x)
    gx = g * np.where(neg, a, x.dtype.type(1))
    galpha = (g * x * neg).sum()
    return out, gx, galpha


# ---------------------------------------------------------------------------
# Kept-array references: each op's forward and backward as they ran when the
# closure kept a per-voxel array (the centred input, a float32 dropout
# factor, the positive mask) rather than recomputing it. Same float
# operations in the same order, so the engine must match them byte for byte.
# ---------------------------------------------------------------------------

def instance_norm_kept_reference(x, gamma, beta, g, eps=1e-5):
    """(out, grad_x, grad_gamma, grad_beta), the centred input kept from the forward."""
    n, c = x.shape[:2]
    axes, dtype = (2, 3, 4), x.dtype
    m = int(np.prod(x.shape[2:]))
    mean = x.mean(axis=axes, dtype=np.float64)
    xc = x - mean.astype(dtype).reshape(n, c, 1, 1, 1)
    rest = mean - mean.astype(dtype)
    var = np.einsum("ncdhw,ncdhw->nc", xc, xc, dtype=np.float64) / m - rest * rest
    inv = 1.0 / np.sqrt(var.astype(dtype) + np.asarray(eps, dtype=dtype))
    scale = inv * gamma
    out = xc * scale.reshape(n, c, 1, 1, 1)
    out += (beta - rest * scale).astype(dtype).reshape(n, c, 1, 1, 1)
    sg = g.sum(axis=axes, dtype=np.float64)
    sgx = (np.einsum("ncdhw,ncdhw->nc", g, xc, dtype=np.float64) - rest * sg) * inv
    b = inv * sgx / m
    gx = xc * (-b).astype(dtype).reshape(n, c, 1, 1, 1)
    gx += g
    gx -= (sg / m - rest * b).astype(dtype).reshape(n, c, 1, 1, 1)
    gx *= scale.reshape(n, c, 1, 1, 1)
    return out, gx, sgx.sum(axis=0).astype(dtype), sg.sum(axis=0).astype(dtype)


def dropout_kept_reference(x, rate, rng, g):
    """(out, grad_x), the scaled float factor kept from the forward."""
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    keep *= x.dtype.type(1.0 / (1.0 - rate))
    return x * keep, g * keep


def relu_kept_reference(x, g):
    """(out, grad_x), the positive mask kept from the forward."""
    pos = x > 0
    return np.maximum(x, 0), g * pos


def upconv3d_composition(low, skip, weight):
    """upconv3d as the three graph ops it stands for: upsample, concatenate, convolve.

    The ops keep both joined arrays in the graph, and upconv3d must give
    the same bytes without them.
    """
    return conv3d(concat_channels(upsample3d_nearest(low), skip), weight, padding=1)


# ---------------------------------------------------------------------------
# Brute-force SSIM oracle
# ---------------------------------------------------------------------------

def ssim3d_oracle(a, b, window, c1, c2):
    """Mean SSIM over all valid window positions, one window at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(window, dtype=np.float64)
    k = w.shape[0]
    d, hh, ww = a.shape
    vals = []
    for z in range(d - k + 1):
        for y in range(hh - k + 1):
            for x in range(ww - k + 1):
                wa = a[z:z + k, y:y + k, x:x + k]
                wb = b[z:z + k, y:y + k, x:x + k]
                mx = float((w * wa).sum())
                my = float((w * wb).sum())
                vx = float((w * wa * wa).sum()) - mx * mx
                vy = float((w * wb * wb).sum()) - my * my
                cxy = float((w * wa * wb).sum()) - mx * my
                num = (2.0 * mx * my + c1) * (2.0 * cxy + c2)
                den = (mx * mx + my * my + c1) * (vx + vy + c2)
                vals.append(num / den)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Full-volume evaluation reference
# ---------------------------------------------------------------------------

def evaluate_case_reference(case_id, pred, gt, healthy, region_max):
    """evaluate_case as first written: both whole volumes cast to float64 and
    scaled, the MSE over whole-volume boolean indexing, and the SSIM box
    found from np.argwhere and widened one voxel a side at a time to the
    7-voxel SSIM window."""
    scale = np.float64(1.0 / region_max)
    pred_s = pred.voxels.astype(np.float64) * scale
    gt_s = gt.voxels.astype(np.float64) * scale
    diff = pred_s[healthy.bits] - gt_s[healthy.bits]
    mse = float(np.mean(diff * diff))
    infinite = mse == 0.0
    psnr = math.inf if infinite else -10.0 * math.log10(mse)

    coords = np.argwhere(healthy.bits)
    box = []
    for lo, hi, n in zip(coords.min(axis=0), coords.max(axis=0) + 1, healthy.bits.shape):
        a, b = int(lo), int(hi)
        while b - a < 7 and (a > 0 or b < n):
            if a > 0:
                a -= 1
            if b - a < 7 and b < n:
                b += 1
        box.append(slice(a, b))
    box = tuple(box)
    ssim = float(ssim3d(pred_s[box], gt_s[box], 1.0).item())
    return CaseMetrics(case_id=case_id, ssim=ssim, psnr=psnr, mse=mse, rmse=math.sqrt(mse),
                       region_voxels=int(healthy.bits.sum()), psnr_infinite=infinite)


# ---------------------------------------------------------------------------
# Morphology oracles (Chebyshev ball = cube structuring element)
# ---------------------------------------------------------------------------

def dilate_oracle(bits, radius):
    bits = np.asarray(bits, dtype=bool)
    out = np.zeros_like(bits)
    n0, n1, n2 = bits.shape
    for x, y, z in np.argwhere(bits):
        out[max(0, x - radius):x + radius + 1,
            max(0, y - radius):y + radius + 1,
            max(0, z - radius):z + radius + 1] = True
    return out


def erode_oracle(bits, radius):
    bits = np.asarray(bits, dtype=bool)
    padded = np.pad(bits, radius, constant_values=False)
    out = np.zeros_like(bits)
    for x in range(bits.shape[0]):
        for y in range(bits.shape[1]):
            for z in range(bits.shape[2]):
                block = padded[x:x + 2 * radius + 1,
                               y:y + 2 * radius + 1,
                               z:z + 2 * radius + 1]
                out[x, y, z] = bool(block.all())
    return out


# ---------------------------------------------------------------------------
# Mask transform reference: the whole-grid mirror and rotation
# ---------------------------------------------------------------------------

def _rotate_plane_reference(bits, theta_deg, axes):
    """Rotate the whole grid about its center, nearest neighbor.

    Every output voxel maps back through the inverse rotation; sources
    that land outside the grid read as empty.
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


def apply_mask_transform_reference(bits, mirrors, theta_xy, theta_yz):
    """Mirror per axis, then rotate in XY, then in YZ, each over the whole grid."""
    out = np.asarray(bits, dtype=bool)
    for axis, m in enumerate(mirrors):
        if m:
            out = np.flip(out, axis=axis)
    if theta_xy % 360.0 != 0.0:
        out = _rotate_plane_reference(out, theta_xy, (0, 1))
    if theta_yz % 360.0 != 0.0:
        out = _rotate_plane_reference(out, theta_yz, (1, 2))
    return out


def transform_grid(bits, mirrors, theta_xy, theta_yz):
    """apply_mask_transform on a whole array, as the box that covers the grid."""
    whole = BoxMask(np.asarray(bits, dtype=bool), (0, 0, 0), bits.shape)
    return apply_mask_transform(whole, mirrors, theta_xy, theta_yz).volume().bits


# ---------------------------------------------------------------------------
# Synthetic data builders
# ---------------------------------------------------------------------------

def smooth_volume(rng, n=16, peak=1000.0, cells=2):
    """Smooth positive intensities in [0.2*peak, peak], shape (n, n, n)."""
    base = rng.random((cells,) * 3)
    up = base
    for axis in range(3):
        up = up.repeat(n // cells, axis)
    for _ in range(2):
        for axis in range(3):
            up = (up + np.roll(up, 1, axis) + np.roll(up, -1, axis)) / 3.0
    up = (up - up.min()) / (up.max() - up.min() + 1e-9)
    return ((0.2 + 0.8 * up) * peak).astype(np.float32)


def ball(n, center, r):
    grids = np.indices((n, n, n)).astype(float)
    d2 = sum((grids[i] - center[i]) ** 2 for i in range(3))
    return d2 <= r * r


def placement_inputs(tumor, params):
    """The per-scan (forbidden, block) pair generate_mask_set hands to sample_healthy_mask.

    The margin zone is dilated over the whole grid here, a box as large as
    the volume: placement must not depend on how tight that box is.
    """
    block = _shrink_to_fraction(tumor.bits[bounding_box(tumor.bits)].copy(),
                                params.volume_fraction)
    return BoxMask(dilate(tumor.bits, params.margin), (0, 0, 0), tumor.dims), block


def build_case(seed, n=16, margin=1):
    """One synthetic case: scan, brain, tumor, and a sampled healthy mask."""
    rng = np.random.default_rng(seed)
    brain_bits = ball(n, ((n - 1) / 2,) * 3, n * 0.41)
    vox = smooth_volume(rng, n)
    vox[~brain_bits] = 0.0
    t1n = Volume(vox)
    center = rng.integers(n // 2 - 2, n // 2 + 2, size=3)
    tumor_bits = ball(n, tuple(center), 1.4) & brain_bits
    tumor = MaskVolume(tumor_bits, role="unhealthy")
    brain = MaskVolume(brain_bits, role="brain")
    params = MaskGenParams(margin=margin, max_attempts=100)
    healthy = sample_healthy_mask(brain, *placement_inputs(tumor, params), params, rng).volume()
    return t1n, brain, tumor, healthy


def build_prepared_samples(count=10, n=16, seed=123):
    """Prepared samples, one per case, for trainer tests."""
    out = []
    for i in range(count):
        t1n, _, tumor, healthy = build_case(seed + i, n=n)
        sample = make_training_sample(f"case{i:02d}", t1n, tumor, healthy)
        out.append(prepare_sample(sample, (n, n, n)))
    return out


def fold_sets(samples, config, fold):
    """``fold``'s (train, val) sets as the train command plans them: k folds
    over the samples' distinct case ids, each set in the samples' order."""
    val_cases = kfold_split(sorted({s.case_id for s in samples}), config.folds, config.seed)[fold]
    return ([s for s in samples if s.case_id not in val_cases],
            [s for s in samples if s.case_id in val_cases])


@pytest.fixture(scope="session")
def tiny_case():
    return build_case(2026, n=16)


def make_input_dir(root, n_cases=2, n=16, seed=400):
    """A raw-scan folder: {case}-t1n.nii.gz plus {case}-mask-unhealthy.nii.gz."""
    input_dir = root / "scans"
    input_dir.mkdir()
    for i in range(n_cases):
        t1n, _brain, tumor, _healthy = build_case(seed + i, n=n)
        case_id = f"case{i:02d}"
        write_nifti(t1n, input_dir / f"{case_id}-t1n.nii.gz")
        write_nifti_mask(tumor, input_dir / f"{case_id}-mask-unhealthy.nii.gz")
    return input_dir


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def split_walks(monkeypatch, workers):
    """Give the tap-conv walk ``workers`` workers; the returned list gets the
    part count of every walk that splits."""
    monkeypatch.setattr(util, "free_workers", lambda: workers)
    parts = []

    def spy(*calls):
        parts.append(len(calls))
        return concurrently(*calls)

    monkeypatch.setattr(util, "concurrently", spy)
    return parts


@contextlib.contextmanager
def pool_of(threads):
    """``util.concurrently`` on a pool of its own with ``threads`` threads,
    shut down on exit; the process's pool is put back."""
    saved = util._pool, util._usable_cpus
    util._pool, util._usable_cpus = None, lambda: threads
    try:
        yield
    finally:
        if util._pool is not None:
            util._pool.shutdown()
        util._pool, util._usable_cpus = saved


# ---------------------------------------------------------------------------
# NIfTI fixtures built byte by byte
# ---------------------------------------------------------------------------

NIFTI_HDR = 348


def make_nifti_bytes(shape=(3, 4, 5), datatype=16, data=None, dim0=3,
                     magic=b"n+1\x00", sizeof_hdr=NIFTI_HDR, slope=1.0, inter=0.0,
                     vox_offset=352.0, trailing=(1, 1, 1, 1)):
    dx, dy, dz = shape
    header = bytearray(NIFTI_HDR)
    struct.pack_into("<i", header, 0, sizeof_hdr)
    dims = (dim0, dx, dy, dz) + trailing
    struct.pack_into("<8h", header, 40, *dims)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<f", header, 108, vox_offset)
    struct.pack_into("<2f", header, 112, slope, inter)
    header[344:348] = magic
    if data is None:
        data = np.zeros((dz, dy, dx), dtype=np.float32)
    pad = b"\x00" * max(0, int(vox_offset) - NIFTI_HDR)
    return bytes(header) + pad + np.ascontiguousarray(data).tobytes()
