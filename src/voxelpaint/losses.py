"""Training losses: masked MAE, 3D SSIM, and their weighted composite.

Everything here runs through the autodiff graph so the composite loss
is differentiable with respect to the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, blur3d
from .errors import DataError, ShapeError


@dataclass(frozen=True)
class SsimParams:
    """Sliding-window SSIM settings.

    data_range is the value span L; the stabilizers are c1 = (0.01 L)^2
    and c2 = (0.03 L)^2. Windows are Gaussian and the map is averaged
    over valid (fully inside) positions only.
    """

    window_size: int = 7
    sigma: float = 1.5
    data_range: float = 1.0

    def __post_init__(self):
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise DataError(f"window_size must be odd and positive, got {self.window_size}")
        if self.sigma <= 0:
            raise DataError(f"sigma must be positive, got {self.sigma}")
        if self.data_range <= 0:
            raise DataError(f"data_range must be positive, got {self.data_range}")

    @property
    def c1(self) -> float:
        return (0.01 * self.data_range) ** 2

    @property
    def c2(self) -> float:
        return (0.03 * self.data_range) ** 2


@dataclass(frozen=True)
class LossWeights:
    mae: float = 1.0
    ssim: float = 1.0

    def __post_init__(self):
        if self.mae < 0 or self.ssim < 0:
            raise DataError(f"loss weights must be >= 0, got {self}")


def gaussian_window(size: int, sigma: float, dtype=np.float64) -> np.ndarray:
    """Cubic Gaussian window normalized to sum exactly 1."""
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    one_d = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = one_d[:, None, None] * one_d[None, :, None] * one_d[None, None, :]
    win /= win.sum()
    return win.astype(dtype)


def _as_graph_volume(x: Tensor | np.ndarray, name: str) -> Tensor:
    if not isinstance(x, Tensor):
        arr = np.asarray(x)
        if arr.ndim == 3:
            arr = arr[None, None]
        x = Tensor(arr)
    elif x.data.ndim == 3:
        if x.requires_grad:
            raise ShapeError(f"{name} carries gradients and must already be 5-D")
        x = Tensor(x.data[None, None])
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


def ssim3d(pred: Tensor | np.ndarray, gt: Tensor | np.ndarray,
           params: SsimParams = SsimParams()) -> Tensor:
    """Mean structural similarity over all valid window positions.

    Local means/variances/covariance come from Gaussian-weighted moments
    inside each window (no padding, so only fully-covered positions
    contribute).
    """
    x = _as_graph_volume(pred, "pred")
    y = _as_graph_volume(gt, "gt")
    if x.data.shape != y.data.shape:
        raise ShapeError(f"pred {x.shape} and gt {y.shape} disagree")
    w = params.window_size
    if min(x.data.shape[2:]) < w:
        raise ShapeError(f"volume {x.data.shape[2:]} is smaller than the {w}^3 window")

    # the window is the outer product of 1-D Gaussian taps, so its marginal
    # along one axis is those taps, and each moment map is three 1-D passes
    taps = gaussian_window(w, params.sigma).sum(axis=(1, 2))
    c1 = x.data.dtype.type(params.c1)
    c2 = x.data.dtype.type(params.c2)

    mu_x = blur3d(x, taps)
    mu_y = blur3d(y, taps)
    xx = blur3d(x * x, taps)
    yy = blur3d(y * y, taps)
    xy = blur3d(x * y, taps)
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y

    numer = (mu_x * mu_y * 2.0 + c1) * (cov * 2.0 + c2)
    denom = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return (numer / denom).mean()


def composite_loss(pred: Tensor, gt: Tensor | np.ndarray, region: np.ndarray,
                   weights: LossWeights = LossWeights(),
                   ssim_params: SsimParams = SsimParams(data_range=2.0)) -> Tensor:
    """weights.mae * masked_mae + weights.ssim * (1 - ssim3d).

    The default data_range of 2 matches signed-unit training volumes.
    """
    mae_term = masked_mae(pred, gt, region)
    ssim_term = 1.0 - ssim3d(pred, gt, ssim_params)
    return mae_term * weights.mae + ssim_term * weights.ssim
