"""Training losses: masked MAE, 3D SSIM, and their weighted composite.

Everything here runs through the autodiff graph so the composite loss
is differentiable with respect to the prediction. SSIM is the standard
one (Wang et al., IEEE TIP 2004): a 7-voxel Gaussian window of sigma 1.5
and stabilizers c1 = (0.01 L)^2, c2 = (0.03 L)^2 for a data range L.
The window and sigma are fixed; only L varies, with the data.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, blur3d
from .errors import DataError, ShapeError

SSIM_WINDOW = 7      # voxels per side of the cubic window
SSIM_SIGMA = 1.5     # of the window's Gaussian, in voxels


def gaussian_window(size: int, sigma: float) -> np.ndarray:
    """Cubic float64 Gaussian window normalized to sum exactly 1."""
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    one_d = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = one_d[:, None, None] * one_d[None, :, None] * one_d[None, None, :]
    win /= win.sum()
    return win


# the window is the outer product of 1-D Gaussian taps, so its marginal
# along one axis is those taps, and each moment map is three 1-D passes
_TAPS = gaussian_window(SSIM_WINDOW, SSIM_SIGMA).sum(axis=(1, 2))


def _as_graph_volume(x: Tensor | np.ndarray, name: str) -> Tensor:
    if not isinstance(x, Tensor):
        arr = np.asarray(x)
        if arr.ndim == 3:
            arr = arr[None, None]
        x = Tensor(arr)
    if x.data.ndim != 5:
        raise ShapeError(f"{name} must be [N,C,D,H,W] or [D,H,W], got {x.shape}")
    if x.data.shape[1] != 1:
        raise ShapeError(f"{name} must have one channel, got {x.data.shape[1]}")
    return x


def masked_mae(pred: Tensor, gt: Tensor | np.ndarray, region: np.ndarray) -> Tensor:
    """Mean absolute error over the voxels selected by ``region``."""
    gt_t = gt if isinstance(gt, Tensor) else Tensor(np.asarray(gt, dtype=pred.data.dtype))
    if pred.data.shape != gt_t.data.shape:
        raise ShapeError(f"pred {pred.shape} and gt {gt_t.shape} disagree")
    region = np.asarray(region, dtype=bool)
    if region.shape != pred.data.shape:
        raise ShapeError(f"region {region.shape} and pred {pred.shape} disagree")
    count = int(region.sum())
    if count == 0:
        raise DataError("masked_mae region is empty")
    weights = Tensor(region.astype(pred.data.dtype))
    total = ((pred - gt_t).abs() * weights).sum()
    return total / float(count)


def ssim3d(pred: Tensor | np.ndarray, gt: Tensor | np.ndarray, data_range: float) -> Tensor:
    """Mean structural similarity over all valid window positions.

    ``data_range`` is the value span L of the volumes. Local
    means/variances/covariance come from Gaussian-weighted moments inside
    each window (no padding, so only fully-covered positions contribute).
    """
    x = _as_graph_volume(pred, "pred")
    y = _as_graph_volume(gt, "gt")
    if x.data.shape != y.data.shape:
        raise ShapeError(f"pred {x.shape} and gt {y.shape} disagree")
    if min(x.data.shape[2:]) < SSIM_WINDOW:
        raise ShapeError(f"volume {x.data.shape[2:]} is smaller than the {SSIM_WINDOW}^3 window")
    c1 = x.data.dtype.type((0.01 * data_range) ** 2)
    c2 = x.data.dtype.type((0.03 * data_range) ** 2)

    mu_x = blur3d(x, _TAPS)
    mu_y = blur3d(y, _TAPS)
    xx = blur3d(x * x, _TAPS)
    yy = blur3d(y * y, _TAPS)
    xy = blur3d(x * y, _TAPS)
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y

    numer = (mu_x * mu_y * 2.0 + c1) * (cov * 2.0 + c2)
    denom = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return (numer / denom).mean()


def composite_loss(pred: Tensor, gt: Tensor | np.ndarray, region: np.ndarray,
                   lambda_mae: float, lambda_ssim: float) -> Tensor:
    """lambda_mae * masked_mae + lambda_ssim * (1 - ssim3d).

    The SSIM data range is 2, the span of signed-unit training volumes.
    """
    mae_term = masked_mae(pred, gt, region)
    ssim_term = 1.0 - ssim3d(pred, gt, 2.0)
    return mae_term * lambda_mae + ssim_term * lambda_ssim
