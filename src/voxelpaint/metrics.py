"""Region-restricted evaluation metrics and their aggregation.

Per case, metrics compare prediction and ground truth on the healthy
mask only, after both volumes are scaled by the ground truth's maximum
over the healthy and unhealthy regions together. SSIM is computed on
the healthy mask's bounding box, widened by ``volume.crop_center`` to at
least the SSIM window.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .losses import SsimParams, ssim3d
from .util import atomic_open
from .volume import MaskVolume, Volume, bounding_box, crop_center


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    ssim: float
    psnr: float
    mse: float
    rmse: float
    region_voxels: int
    psnr_infinite: bool = False


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    p25: float
    median: float
    p75: float


@dataclass(frozen=True)
class EvaluationSummary:
    mse: SummaryStats
    psnr: SummaryStats | None
    ssim: SummaryStats
    rmse: SummaryStats
    case_count: int
    psnr_infinite_count: int


def region_max_intensity(gt: Volume, healthy: MaskVolume, unhealthy: MaskVolume) -> float:
    """Ground-truth maximum over the union of both mask regions.

    Taken over each nonempty mask inside its own bounding box: the same
    maximum as over the union, without building the union. A mask whose
    dims differ from the scan's raises ShapeError.
    """
    peaks = []
    for mask in (healthy, unhealthy):
        if mask.dims != gt.dims:
            raise ShapeError(f"{mask.role} mask dims {mask.dims} differ from scan dims {gt.dims}")
        try:
            box = bounding_box(mask.bits)
        except DataError:
            continue
        peaks.append(gt.voxels[box][mask.bits[box]].max())
    if not peaks:
        raise DataError("both mask regions are empty")
    return float(max(peaks))


def evaluate_case(case_id: str, pred: Volume, gt: Volume, healthy: MaskVolume,
                  region_max: float, ssim_params: SsimParams = SsimParams()) -> CaseMetrics:
    """Healthy-region MSE/RMSE/PSNR plus bounding-box SSIM for one case.

    PSNR uses peak 1.0 on the scaled volumes; a zero MSE reports an
    infinite PSNR with the psnr_infinite flag set. Only the SSIM box, the
    mask's tight box widened to the window, is cast and scaled: it holds
    every healthy voxel, and boolean indexing walks it in the same
    row-major order as the whole volume, so the MSE sums the same values
    in the same order.
    """
    if pred.dims != gt.dims or healthy.dims != gt.dims:
        raise ShapeError(f"dims disagree: pred {pred.dims}, gt {gt.dims}, mask {healthy.dims}")
    if not healthy.bits.any():
        raise DataError(f"{case_id}: healthy mask is empty")
    if region_max <= 0:
        raise DataError(f"{case_id}: region max {region_max} must be positive")

    tight = bounding_box(healthy.bits)
    box = crop_center(gt.dims, [max(a.stop - a.start, ssim_params.window_size) for a in tight], tight)
    scale = np.float64(1.0 / region_max)
    pred_s = pred.voxels[box].astype(np.float64) * scale
    gt_s = gt.voxels[box].astype(np.float64) * scale
    region = healthy.bits[box]

    diff = pred_s[region] - gt_s[region]
    mse = float(np.mean(diff * diff))
    rmse = math.sqrt(mse)
    if mse == 0.0:
        psnr, infinite = math.inf, True
    else:
        psnr, infinite = -10.0 * math.log10(mse), False

    ssim = float(ssim3d(pred_s, gt_s, ssim_params).item())

    return CaseMetrics(case_id=case_id, ssim=ssim, psnr=psnr, mse=mse, rmse=rmse,
                       region_voxels=int(np.count_nonzero(region)), psnr_infinite=infinite)


def _stats(values: list[float]) -> SummaryStats:
    arr = np.asarray(values, dtype=np.float64)
    q25, q50, q75 = np.percentile(arr, [25, 50, 75])  # linear interpolation
    return SummaryStats(mean=float(arr.mean()), std=float(arr.std()),  # population std
                        p25=float(q25), median=float(q50), p75=float(q75))


def aggregate_stats(cases: list[CaseMetrics]) -> EvaluationSummary:
    """Summary statistics per metric over the case list.

    Infinite-PSNR cases are excluded from the PSNR aggregation and only
    counted; every other metric uses all cases.
    """
    if not cases:
        raise DataError("aggregate_stats needs at least one case")
    finite_psnr = [c.psnr for c in cases if not c.psnr_infinite]
    return EvaluationSummary(
        mse=_stats([c.mse for c in cases]),
        psnr=_stats(finite_psnr) if finite_psnr else None,
        ssim=_stats([c.ssim for c in cases]),
        rmse=_stats([c.rmse for c in cases]),
        case_count=len(cases),
        psnr_infinite_count=sum(1 for c in cases if c.psnr_infinite),
    )


# -- serialization and the report table ----------------------------------------

_STAT_ROWS = (
    ("mean", "Mean"),
    ("std", "Standard deviation"),
    ("p25", "25 quantile"),
    ("median", "Median"),
    ("p75", "75 quantile"),
)
_METRIC_COLUMNS = ("mse", "psnr", "ssim")


def write_cases_csv(cases: list[CaseMetrics], path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "ssim", "psnr", "mse", "rmse", "region_voxels"])
        for c in cases:
            writer.writerow([c.case_id, repr(c.ssim), repr(c.psnr), repr(c.mse),
                             repr(c.rmse), c.region_voxels])


def render_report_table(summary: dict) -> str:
    """Fixed-width table: one row per statistic, columns MSE, PSNR, SSIM.

    Raises DataError unless the summary is an object whose metric blocks
    are objects or absent (null).
    """
    if not isinstance(summary, dict) or any(
            not isinstance(summary.get(m), (dict, type(None))) for m in _METRIC_COLUMNS):
        raise DataError("summary must be a JSON object whose mse, psnr and ssim are objects")

    def cell(metric: str, key: str) -> str:
        block = summary.get(metric)
        if block is None or block.get(key) is None:
            return "n/a"
        return f"{block[key]:.8f}"

    header = f"{'':22}" + "".join(f"{name.upper():>16}" for name in _METRIC_COLUMNS)
    lines = [header]
    for key, label in _STAT_ROWS:
        row = f"{label:22}" + "".join(f"{cell(m, key):>16}" for m in _METRIC_COLUMNS)
        lines.append(row)
    if summary.get("psnr_infinite_count"):
        lines.append(f"(PSNR excludes {summary['psnr_infinite_count']} case(s) with zero error)")
    return "\n".join(lines) + "\n"
