"""Masked MAE, 3-D SSIM, and the weighted composite loss."""

import numpy as np
import pytest

from conftest import gradcheck, ssim3d_oracle
from voxelpaint.autodiff import Tensor
from voxelpaint.errors import DataError, ShapeError
from voxelpaint.losses import composite_loss, gaussian_window, masked_mae, ssim3d


def vol5(arr):
    return np.asarray(arr)[None, None]


# ---------------------------------------------------------------------------
# Gaussian window
# ---------------------------------------------------------------------------

def test_gaussian_window_normalized_and_symmetric():
    w = gaussian_window(7, 1.5)
    assert w.shape == (7, 7, 7)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.array_equal(w, w[::-1, :, :])
    assert np.array_equal(w, w.transpose(1, 0, 2))
    assert w.argmax() == np.ravel_multi_index((3, 3, 3), w.shape)


def test_gaussian_window_is_separable_product():
    w = gaussian_window(5, 1.2)
    one_d = w[:, 2, 2]
    outer = one_d[:, None, None] * one_d[None, :, None] * one_d[None, None, :]
    outer /= outer.sum()
    assert np.allclose(w, outer, atol=1e-14)


# ---------------------------------------------------------------------------
# SSIM values
# ---------------------------------------------------------------------------

def test_ssim_self_similarity_is_exactly_one():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((9, 9, 9)).astype(np.float32)
    val = ssim3d(a, a.copy(), 1.0).item()
    assert val == 1.0


def test_ssim_is_symmetric_bitwise():
    rng = np.random.default_rng(31)
    a = rng.random((8, 8, 8)).astype(np.float32)
    b = rng.random((8, 8, 8)).astype(np.float32)
    assert ssim3d(a, b, 1.0).item() == ssim3d(b, a, 1.0).item()


# c1 = (0.01 L)^2 and c2 = (0.03 L)^2, written out, at data ranges L = 1 and 2
STABILIZERS = ((1.0, 1e-4, 9e-4), (2.0, 4e-4, 3.6e-3))


def test_ssim_constant_volumes_hit_stabilizer_ratio():
    # Zero variance everywhere: SSIM collapses to c1 / (1 + c1) for the
    # all-zeros vs all-ones pair.
    a = np.zeros((8, 8, 8), dtype=np.float64)
    b = np.ones((8, 8, 8), dtype=np.float64)
    for data_range, c1, _ in STABILIZERS:
        expected = c1 / (1.0 + c1)
        assert abs(ssim3d(a, b, data_range).item() - expected) <= 1e-9, data_range


def test_ssim_stabilizers_from_data_range():
    # With variance in the windows c2 no longer cancels: the map must match
    # the oracle run with both stabilizers as written out.
    rng = np.random.default_rng(39)
    a = rng.random((9, 9, 9))
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0.0, 1.0)
    window = gaussian_window(7, 1.5)
    for data_range, c1, c2 in STABILIZERS:
        ref = ssim3d_oracle(a, b, window, c1, c2)
        assert abs(ssim3d(a, b, data_range).item() - ref) <= 1e-9, data_range
        # a c2 off by the next data range's would show
        assert abs(ssim3d_oracle(a, b, window, c1, 4 * c2) - ref) > 1e-4


def test_ssim_matches_bruteforce_oracle():
    rng = np.random.default_rng(32)
    window = gaussian_window(7, 1.5)
    for shape in [(10, 10, 10), (16, 12, 9), (7, 7, 7)]:
        a = rng.random(shape)
        b = np.clip(a + 0.1 * rng.standard_normal(shape), 0.0, 1.0)
        got = ssim3d(a, b, 1.0).item()
        ref = ssim3d_oracle(a, b, window, 1e-4, 9e-4)
        assert abs(got - ref) <= 1e-6, f"{shape}: {got} vs {ref}"


def test_ssim_detects_degradation_monotonically():
    rng = np.random.default_rng(33)
    a = rng.random((12, 12, 12))
    noisy1 = a + 0.05 * rng.standard_normal(a.shape)
    noisy2 = a + 0.25 * rng.standard_normal(a.shape)
    s1 = ssim3d(a, noisy1, 1.0).item()
    s2 = ssim3d(a, noisy2, 1.0).item()
    assert 1.0 > s1 > s2


def test_ssim_volume_smaller_than_window_rejected():
    with pytest.raises(ShapeError):
        ssim3d(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), 1.0)


def test_ssim_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    gt = rng.random((8, 8, 8))
    pred = Tensor(rng.random((8, 8, 8))[None, None], requires_grad=True)

    def build():
        return ssim3d(pred, gt, 1.0)

    worst = gradcheck(build, [pred], rng, n_samples=20, h=1e-3)
    assert worst <= 1e-3, f"ssim gradcheck rel err {worst:.3e}"


def test_ssim_gradient_non_cubic_volume():
    # separable passes along D, H and W each see a different extent
    rng = np.random.default_rng(35)
    gt = rng.random((11, 8, 9))
    pred = Tensor(rng.random((11, 8, 9))[None, None], requires_grad=True)

    def build():
        return ssim3d(pred, gt, 1.0)

    worst = gradcheck(build, [pred], rng, n_samples=20, h=1e-3)
    assert worst <= 1e-3, f"ssim gradcheck rel err {worst:.3e}"


# ---------------------------------------------------------------------------
# Masked MAE
# ---------------------------------------------------------------------------

def test_masked_mae_hand_example():
    # One voxel off by 1 out of four selected: MAE = 1/4.
    pred = Tensor(vol5(np.array([[[1.0, 0.0, 0.0, 0.0]]], dtype=np.float32)))
    gt = vol5(np.zeros((1, 1, 4), dtype=np.float32))
    region = np.ones_like(gt, dtype=bool)
    assert masked_mae(pred, gt, region).item() == 0.25
    # Restricting the region to two voxels that include the error: 1/2.
    region2 = np.zeros_like(region)
    region2[..., :2] = True
    assert masked_mae(pred, gt, region2).item() == 0.5


def test_masked_mae_full_region_equals_plain_mae():
    rng = np.random.default_rng(35)
    pred = Tensor(rng.standard_normal((1, 1, 6, 6, 6)).astype(np.float64))
    gt = rng.standard_normal((1, 1, 6, 6, 6))
    region = np.ones(pred.shape, dtype=bool)
    got = masked_mae(pred, gt, region).item()
    plain = float(np.abs(pred.data - gt).mean())
    assert abs(got - plain) <= 1e-12


def test_masked_mae_ignores_outside_region():
    pred = Tensor(vol5(np.array([[[5.0, 1.0]]], dtype=np.float32)))
    gt = vol5(np.array([[[0.0, 1.0]]], dtype=np.float32))
    region = np.zeros(pred.shape, dtype=bool)
    region[..., 1] = True  # only the matching voxel
    assert masked_mae(pred, gt, region).item() == 0.0


def test_masked_mae_empty_region_rejected():
    pred = Tensor(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
    with pytest.raises(DataError):
        masked_mae(pred, pred.data.copy(), np.zeros(pred.shape, dtype=bool))


def test_masked_mae_shape_mismatch_rejected():
    pred = Tensor(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        masked_mae(pred, np.zeros((1, 1, 2, 2, 3)), np.ones((1, 1, 2, 2, 3), bool))
    with pytest.raises(ShapeError):
        masked_mae(pred, pred.data.copy(), np.ones((1, 1, 2, 2, 3), bool))


# ---------------------------------------------------------------------------
# Composite loss
# ---------------------------------------------------------------------------

def _composite_fixture(seed=36, n=8):
    rng = np.random.default_rng(seed)
    gt = (rng.random((1, 1, n, n, n)) * 2.0 - 1.0).astype(np.float32)
    pred = np.clip(gt + 0.2 * rng.standard_normal(gt.shape), -1, 1).astype(np.float32)
    region = rng.random(gt.shape) < 0.5
    region.flat[0] = True  # never empty
    return Tensor(pred, requires_grad=True), gt, region


def test_composite_loss_zero_when_prediction_is_exact():
    rng = np.random.default_rng(37)
    gt = (rng.random((1, 1, 8, 8, 8)) * 2.0 - 1.0).astype(np.float32)
    region = np.ones(gt.shape, dtype=bool)
    loss = composite_loss(Tensor(gt.copy(), requires_grad=True), gt, region, 1.0, 1.0)
    assert loss.item() == 0.0


def test_composite_lambda_zeroing_isolates_components():
    pred, gt, region = _composite_fixture()
    mae_only = composite_loss(pred, gt, region, 1.0, 0.0).item()
    ssim_only = composite_loss(pred, gt, region, 0.0, 1.0).item()
    both = composite_loss(pred, gt, region, 1.0, 1.0).item()
    assert abs(mae_only - masked_mae(pred, gt, region).item()) <= 1e-12
    assert abs(ssim_only - (1.0 - ssim3d(pred, gt, 2.0).item())) <= 1e-12
    assert abs(both - (mae_only + ssim_only)) <= 1e-6


def test_composite_default_data_range_is_signed_unit():
    # Mid-gray constant pair differing by 0.5 on signed-unit data: the SSIM
    # term must be computed with L=2 stabilizers, c1 = 4e-4.
    a = Tensor(np.full((1, 1, 8, 8, 8), 0.5, dtype=np.float64), requires_grad=True)
    b = np.zeros((1, 1, 8, 8, 8), dtype=np.float64)
    region = np.ones(a.shape, dtype=bool)
    got = composite_loss(a, b, region, 0.0, 1.0).item()
    expected = 1.0 - (2.0 * 0.5 * 0.0 + 4e-4) / (0.25 + 0.0 + 4e-4)
    assert abs(got - expected) <= 1e-9


def test_composite_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(38)
    gt = (rng.random((1, 1, 8, 8, 8)) * 2.0 - 1.0)
    pred_data = np.clip(gt + 0.3 * rng.standard_normal(gt.shape), -1, 1)
    # Keep |pred - gt| away from zero so the abs() kink cannot flip under FD.
    diff = pred_data - gt
    pred_data = gt + np.where(np.abs(diff) < 0.05, np.sign(diff + 1e-12) * 0.05, diff)
    pred = Tensor(pred_data, requires_grad=True)
    region = rng.random(gt.shape) < 0.5
    region.flat[0] = True

    def build():
        return composite_loss(pred, gt, region, 1.0, 1.0)

    worst = gradcheck(build, [pred], rng, n_samples=20, h=1e-3)
    assert worst <= 1e-3, f"composite gradcheck rel err {worst:.3e}"
