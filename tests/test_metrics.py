"""Region-restricted evaluation metrics, aggregation, and the report table."""

import csv
import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import evaluate_case_reference, ssim3d_oracle
from voxelpaint.errors import DataError, ShapeError
from voxelpaint.losses import gaussian_window
from voxelpaint.metrics import (
    CaseMetrics,
    aggregate_stats,
    evaluate_case,
    region_max_intensity,
    render_report_table,
    write_cases_csv,
)
from voxelpaint.volume import MaskVolume, Volume


def _fixture(seed=60, n=12, noise=0.0):
    rng = np.random.default_rng(seed)
    gt = Volume((rng.random((n, n, n)) * 900.0 + 100.0).astype(np.float32))
    pred_vox = gt.voxels + noise * rng.standard_normal((n, n, n)).astype(np.float32)
    pred = Volume(pred_vox)
    healthy_bits = np.zeros((n, n, n), dtype=bool)
    healthy_bits[2:9, 3:10, 2:9] = True
    unhealthy_bits = np.zeros((n, n, n), dtype=bool)
    unhealthy_bits[0:2, 0:2, 0:2] = True
    return (pred, gt, MaskVolume(healthy_bits, role="healthy"),
            MaskVolume(unhealthy_bits, role="unhealthy"))


# ---------------------------------------------------------------------------
# region_max_intensity
# ---------------------------------------------------------------------------

def test_region_max_over_mask_union():
    gt = Volume(np.zeros((4, 4, 4), np.float32))
    gt.voxels[0, 0, 0] = 50.0   # healthy region
    gt.voxels[3, 3, 3] = 80.0   # unhealthy region
    gt.voxels[1, 1, 1] = 999.0  # outside both: must not count
    healthy = np.zeros((4, 4, 4), bool)
    healthy[0, 0, 0] = True
    unhealthy = np.zeros((4, 4, 4), bool)
    unhealthy[3, 3, 3] = True
    got = region_max_intensity(gt, MaskVolume(healthy, role="healthy"),
                               MaskVolume(unhealthy, role="unhealthy"))
    assert got == 80.0
    with pytest.raises(DataError):
        region_max_intensity(gt, MaskVolume(np.zeros((4, 4, 4), bool)),
                             MaskVolume(np.zeros((4, 4, 4), bool), role="unhealthy"))


def _masks_pair(dims, seed):
    rng = np.random.default_rng(seed)
    healthy = np.zeros(dims, bool)
    healthy[3:9, 4:8, 5:12] = rng.random((6, 4, 7)) < 0.6
    unhealthy = np.zeros(dims, bool)
    unhealthy[15:20, 12:16, 2:6] = rng.random((5, 4, 4)) < 0.6
    return healthy, unhealthy


@pytest.mark.parametrize("empty", [None, "healthy", "unhealthy"])
def test_region_max_equals_max_over_union(empty):
    dims = (22, 18, 14)
    rng = np.random.default_rng(62)
    gt = Volume(np.asfortranarray(rng.random(dims).astype(np.float32) * 1000.0))
    healthy, unhealthy = _masks_pair(dims, 63)
    if empty == "healthy":
        healthy[:] = False
    elif empty == "unhealthy":
        unhealthy[:] = False
    got = region_max_intensity(gt, MaskVolume(healthy, role="healthy"),
                               MaskVolume(unhealthy, role="unhealthy"))
    assert got == float(gt.voxels[healthy | unhealthy].max())


# ---------------------------------------------------------------------------
# evaluate_case
# ---------------------------------------------------------------------------

def test_perfect_prediction_scores_ssim_one_mse_zero():
    pred, gt, healthy, unhealthy = _fixture()
    rmax = region_max_intensity(gt, healthy, unhealthy)
    m = evaluate_case("c0", Volume(gt.voxels.copy()), gt, healthy, rmax)
    assert m.mse == 0.0
    assert m.rmse == 0.0
    assert m.ssim == 1.0
    assert math.isinf(m.psnr)
    assert m.psnr_infinite
    assert m.region_voxels == healthy.bits.sum()


def test_mse_psnr_match_hand_computation():
    pred, gt, healthy, unhealthy = _fixture()
    rmax = region_max_intensity(gt, healthy, unhealthy)
    pred_vox = gt.voxels.copy()
    pred_vox[healthy.bits] += 0.05 * rmax  # constant offset inside the region
    m = evaluate_case("c1", Volume(pred_vox), gt, healthy, rmax)
    # On peak-scaled volumes the constant offset is 0.05, so MSE = 0.05^2.
    assert m.mse == pytest.approx(0.0025, rel=1e-5)
    assert m.rmse == pytest.approx(0.05, rel=1e-5)
    assert m.psnr == pytest.approx(-10.0 * math.log10(0.0025), rel=1e-6)
    assert not m.psnr_infinite


def test_mse_counts_only_healthy_voxels():
    pred, gt, healthy, unhealthy = _fixture()
    rmax = region_max_intensity(gt, healthy, unhealthy)
    pred_vox = gt.voxels.copy()
    pred_vox[~healthy.bits] += 1000.0  # damage everything outside the region
    m = evaluate_case("c2", Volume(pred_vox), gt, healthy, rmax)
    assert m.mse == 0.0


def test_ssim_over_widened_bounding_box_matches_oracle():
    pred, gt, healthy, unhealthy = _fixture(noise=30.0)
    rmax = region_max_intensity(gt, healthy, unhealthy)
    m = evaluate_case("c3", pred, gt, healthy, rmax)
    # Healthy box spans exactly 7 voxels per axis here, already window-sized.
    box = tuple(slice(lo, lo + 7) for lo in (2, 3, 2))
    ref = ssim3d_oracle(pred.voxels.astype(np.float64)[box] / rmax,
                        gt.voxels.astype(np.float64)[box] / rmax,
                        gaussian_window(7, 1.5), 1e-4, 9e-4)
    assert m.ssim == pytest.approx(ref, abs=1e-9)


def _border_mask(dims):
    # touches the x = 0 face and the last z plane, and is thinner than the
    # window on every axis, so the widened box is clamped at two edges
    bits = np.zeros(dims, bool)
    bits[0:3, 10:14, dims[2] - 2:] = True
    bits[1, 12, dims[2] - 3] = True
    return bits


def _single_voxel_mask(dims):
    bits = np.zeros(dims, bool)
    bits[17, 4, 9] = True
    return bits


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("make_mask", [_border_mask, _single_voxel_mask])
def test_evaluate_case_equals_full_volume_reference(order, make_mask):
    dims = (30, 26, 20)
    rng = np.random.default_rng(64)
    gt_vox = np.rint(rng.random(dims) * 900.0 + 100.0).astype(np.float32)
    pred_vox = gt_vox + (30.0 * rng.standard_normal(dims)).astype(np.float32)
    gt = Volume(np.array(gt_vox, order=order))
    pred = Volume(np.array(pred_vox, order=order))
    healthy = MaskVolume(np.array(make_mask(dims), order=order), role="healthy")
    rmax = 950.0
    got = evaluate_case("c6", pred, gt, healthy, rmax)
    ref = evaluate_case_reference("c6", pred, gt, healthy, rmax)
    assert (got.ssim, got.mse, got.rmse, got.psnr) == (ref.ssim, ref.mse, ref.rmse, ref.psnr)
    assert got == ref


def test_tiny_mask_widens_box_to_window():
    n = 9
    rng = np.random.default_rng(61)
    gt = Volume((rng.random((n, n, n)) * 100.0).astype(np.float32))
    pred = Volume(gt.voxels + 1.0)
    bits = np.zeros((n, n, n), bool)
    bits[4, 4, 4] = True  # single voxel
    m = evaluate_case("c4", pred, gt, MaskVolume(bits, role="healthy"), 100.0)
    assert np.isfinite(m.ssim)


def test_volume_smaller_than_window_is_rejected():
    gt = Volume(np.ones((5, 5, 5), np.float32))
    bits = np.zeros((5, 5, 5), bool)
    bits[2, 2, 2] = True
    with pytest.raises(ShapeError):
        evaluate_case("c5", gt, gt, MaskVolume(bits, role="healthy"), 1.0)


def test_evaluate_case_validation():
    pred, gt, healthy, _ = _fixture()
    with pytest.raises(DataError):
        evaluate_case("c6", pred, gt, MaskVolume(np.zeros(gt.dims, bool)), 1.0)
    with pytest.raises(DataError):
        evaluate_case("c7", pred, gt, healthy, 0.0)
    with pytest.raises(ShapeError):
        evaluate_case("c8", Volume(np.ones((3, 3, 3), np.float32)), gt, healthy, 1.0)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _case(i, ssim, psnr, mse, infinite=False):
    return CaseMetrics(case_id=f"k{i}", ssim=ssim, psnr=psnr, mse=mse,
                       rmse=math.sqrt(mse), region_voxels=10, psnr_infinite=infinite)


def test_aggregate_matches_numpy_percentiles():
    values = [0.2, 0.5, 0.9, 0.4, 0.7]
    cases = [_case(i, v, 20.0 + i, v / 10.0) for i, v in enumerate(values)]
    summary = aggregate_stats(cases)
    assert summary.ssim.mean == pytest.approx(np.mean(values))
    assert summary.ssim.std == pytest.approx(np.std(values))  # population std
    assert summary.ssim.p25 == pytest.approx(np.percentile(values, 25))
    assert summary.ssim.median == pytest.approx(np.median(values))
    assert summary.ssim.p75 == pytest.approx(np.percentile(values, 75))
    assert summary.case_count == 5
    assert summary.psnr_infinite_count == 0


def test_aggregate_excludes_infinite_psnr():
    cases = [_case(0, 1.0, math.inf, 0.0, infinite=True),
             _case(1, 0.8, 20.0, 0.01),
             _case(2, 0.9, 30.0, 0.001)]
    summary = aggregate_stats(cases)
    assert summary.psnr.mean == pytest.approx(25.0)
    assert summary.psnr_infinite_count == 1
    assert summary.ssim.mean == pytest.approx((1.0 + 0.8 + 0.9) / 3.0)


def test_aggregate_all_perfect_reports_no_psnr():
    cases = [_case(i, 1.0, math.inf, 0.0, infinite=True) for i in range(3)]
    summary = aggregate_stats(cases)
    assert summary.psnr is None
    assert summary.psnr_infinite_count == 3
    packed = asdict(summary)
    assert packed["psnr"] is None
    assert packed["ssim"]["mean"] == 1.0


def test_aggregate_requires_cases():
    with pytest.raises(DataError):
        aggregate_stats([])


# ---------------------------------------------------------------------------
# CSV and report table
# ---------------------------------------------------------------------------

def test_cases_csv_round_trips_floats(tmp_path):
    cases = [_case(0, 0.87300897, 24.9959218, 0.00476023)]
    path = tmp_path / "cases.csv"
    write_cases_csv(cases, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["case"] == "k0"
    assert float(rows[0]["ssim"]) == 0.87300897
    assert float(rows[0]["mse"]) == 0.00476023
    assert int(rows[0]["region_voxels"]) == 10


def test_report_table_layout_and_precision():
    summary = {
        "mse": {"mean": 0.00476023, "std": 0.087, "p25": 0.00188717,
                "median": 0.00389297, "p75": 0.00671933},
        "psnr": {"mean": 24.9959218, "std": 4.694, "p25": 21.726779,
                 "median": 24.4689038, "p75": 27.2419672},
        "ssim": {"mean": 0.87300897, "std": 0.00401174, "p25": 0.80683365,
                 "median": 0.87981504, "p75": 0.94228190},
        "case_count": 219,
        "psnr_infinite_count": 0,
    }
    table = render_report_table(summary)
    lines = table.strip("\n").split("\n")
    assert len(lines) == 6  # header + five statistics
    assert lines[0].split() == ["MSE", "PSNR", "SSIM"]
    labels = [line[:22].strip() for line in lines[1:]]
    assert labels == ["Mean", "Standard deviation", "25 quantile",
                      "Median", "75 quantile"]
    # Eight decimal places, echoed verbatim.
    assert "0.87300897" in lines[1]
    assert "24.99592180" in lines[1]
    assert "0.00476023" in lines[1]


def test_report_table_handles_missing_psnr():
    summary = {
        "mse": {"mean": 0.0, "std": 0.0, "p25": 0.0, "median": 0.0, "p75": 0.0},
        "psnr": None,
        "ssim": {"mean": 1.0, "std": 0.0, "p25": 1.0, "median": 1.0, "p75": 1.0},
        "case_count": 2,
        "psnr_infinite_count": 2,
    }
    table = render_report_table(summary)
    assert "n/a" in table
    assert "excludes 2 case(s)" in table
