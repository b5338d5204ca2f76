"""Morphology, healthy-mask placement, augmentation geometry, voiding."""

import hashlib

import numpy as np
import pytest

from conftest import ball, build_case, dilate_oracle, erode_oracle, placement_inputs
from voxelpaint.errors import DataError, MaskPlacementError, ShapeError
from voxelpaint.masks import (
    MaskGenParams,
    apply_mask_transform,
    augment_mask,
    dilate,
    erode,
    generate_mask_set,
    make_training_sample,
    sample_healthy_mask,
    void_image,
)
from voxelpaint.volume import MaskVolume, Volume


# ---------------------------------------------------------------------------
# Morphology against brute-force oracles
# ---------------------------------------------------------------------------

def test_dilate_matches_oracle():
    rng = np.random.default_rng(50)
    for _ in range(5):
        bits = rng.random((7, 8, 6)) < 0.15
        for radius in (1, 2, 3):
            assert np.array_equal(dilate(bits, radius), dilate_oracle(bits, radius))
    # radii at and beyond an axis extent
    for shape in ((2, 1, 1), (1, 5, 3), (3, 2, 5)):
        bits = rng.random(shape) < 0.4
        for radius in (2, 3, 7):
            assert np.array_equal(dilate(bits, radius), dilate_oracle(bits, radius)), (shape, radius)


def test_erode_matches_oracle():
    rng = np.random.default_rng(51)
    for _ in range(5):
        bits = rng.random((7, 8, 6)) < 0.7
        for radius in (1, 2):
            assert np.array_equal(erode(bits, radius), erode_oracle(bits, radius))
    # radii at and beyond an axis extent
    for shape in ((2, 1, 1), (1, 5, 3), (3, 2, 5), (7, 8, 6)):
        bits = rng.random(shape) < 0.8
        for radius in (2, 3, 7):
            assert np.array_equal(erode(bits, radius), erode_oracle(bits, radius)), (shape, radius)


def test_erode_shrinks_from_array_borders():
    # A full array must erode: outside the array counts as empty.
    bits = np.ones((5, 5, 5), dtype=bool)
    shrunk = erode(bits, 1)
    assert shrunk.sum() == 27
    assert shrunk[2, 2, 2]
    assert not shrunk[0].any() and not shrunk[-1].any()


def test_dilate_zero_radius_is_identity():
    rng = np.random.default_rng(52)
    bits = rng.random((4, 4, 4)) < 0.3
    assert np.array_equal(dilate(bits, 0), bits)
    assert np.array_equal(erode(bits, 0), bits)


def test_dilate_then_erode_recovers_solid_shapes():
    solid = np.zeros((9, 9, 9), dtype=bool)
    solid[3:6, 3:6, 3:6] = True
    assert np.array_equal(erode(dilate(solid, 1), 1), solid)


# ---------------------------------------------------------------------------
# Mirrors and rotations against numpy oracles
# ---------------------------------------------------------------------------

def _random_bits(rng, shape=(16, 16, 16)):
    return rng.random(shape) < 0.3


def test_mirror_matches_flip_oracle_all_combos():
    rng = np.random.default_rng(53)
    bits = _random_bits(rng)
    for mx in (False, True):
        for my in (False, True):
            for mz in (False, True):
                got = apply_mask_transform(bits, (mx, my, mz), 0.0, 0.0)
                ref = bits
                for axis, flag in enumerate((mx, my, mz)):
                    if flag:
                        ref = np.flip(ref, axis)
                assert np.array_equal(got, ref), (mx, my, mz)


def test_mirror_involution_all_combos():
    rng = np.random.default_rng(54)
    bits = _random_bits(rng, (10, 12, 8))
    for mx in (False, True):
        for my in (False, True):
            for mz in (False, True):
                once = apply_mask_transform(bits, (mx, my, mz), 0.0, 0.0)
                twice = apply_mask_transform(once, (mx, my, mz), 0.0, 0.0)
                assert np.array_equal(twice, bits), (mx, my, mz)


def test_right_angle_rotations_match_rot90_oracle():
    rng = np.random.default_rng(55)
    bits = _random_bits(rng)
    no_mirror = (False, False, False)
    for quarter in range(4):
        theta = 90.0 * quarter
        got_xy = apply_mask_transform(bits, no_mirror, theta, 0.0)
        assert np.array_equal(got_xy, np.rot90(bits, k=quarter, axes=(0, 1))), theta
        got_yz = apply_mask_transform(bits, no_mirror, 0.0, theta)
        assert np.array_equal(got_yz, np.rot90(bits, k=quarter, axes=(1, 2))), theta


def test_rotation_composition_returns_identity():
    rng = np.random.default_rng(56)
    bits = _random_bits(rng)
    none = (False, False, False)
    k90 = apply_mask_transform(bits, none, 90.0, 0.0)
    back = apply_mask_transform(k90, none, 270.0, 0.0)
    assert np.array_equal(back, bits)
    k180 = apply_mask_transform(bits, none, 180.0, 0.0)
    assert np.array_equal(apply_mask_transform(k180, none, 180.0, 0.0), bits)
    assert np.array_equal(apply_mask_transform(bits, none, 360.0, 0.0), bits)


def test_rotation_preserves_count_at_right_angles():
    rng = np.random.default_rng(57)
    bits = _random_bits(rng)
    for theta in (90.0, 180.0, 270.0):
        assert apply_mask_transform(bits, (False, False, False), theta, 0.0).sum() == bits.sum()


def test_oblique_rotation_stays_reasonable():
    # Nearest-neighbour resampling at arbitrary angles: the voxel count may
    # drift slightly but the mass must stay in the same ballpark and inside
    # the grid.
    bits = ball(16, (8.0, 8.0, 8.0), 3.0)
    out = apply_mask_transform(bits, (False, False, False), 37.0, 113.0)
    assert out.shape == bits.shape
    assert 0.5 * bits.sum() < out.sum() < 2.0 * bits.sum()


# ---------------------------------------------------------------------------
# Healthy-mask placement
# ---------------------------------------------------------------------------

def test_sampled_mask_satisfies_all_placement_rules():
    for seed in range(8):
        t1n, brain, tumor, healthy = build_case(3000 + seed)
        params = MaskGenParams(margin=1)
        assert healthy.bits.sum() > 0
        assert not (healthy.bits & ~brain.bits).any(), "mask leaves the brain"
        forbidden = dilate(tumor.bits, params.margin)
        assert not (healthy.bits & forbidden).any(), "mask touches the margin"


def test_sample_healthy_mask_is_deterministic():
    _, brain, tumor, _ = build_case(3100)
    params = MaskGenParams(margin=1)
    forbidden, block = placement_inputs(tumor, params)
    a = sample_healthy_mask(brain, forbidden, block, params, np.random.default_rng(5))
    b = sample_healthy_mask(brain, forbidden, block, params, np.random.default_rng(5))
    assert np.array_equal(a.bits, b.bits)


def test_sample_healthy_mask_volume_fraction():
    _, brain, tumor, _ = build_case(3200)
    params = MaskGenParams(margin=1, volume_fraction=0.5)
    healthy = sample_healthy_mask(brain, *placement_inputs(tumor, params), params,
                                  np.random.default_rng(6))
    assert 0 < healthy.bits.sum() <= tumor.bits.sum()


def test_generate_mask_set_validates_inputs():
    brain = MaskVolume(np.zeros((8, 8, 8), bool), role="brain")
    tumor = MaskVolume(np.zeros((8, 8, 8), bool), role="unhealthy")
    with pytest.raises(DataError):
        generate_mask_set(brain, tumor, MaskGenParams(), np.random.default_rng(0))
    brain2 = MaskVolume(ball(8, (3.5,) * 3, 2.0), role="brain")
    outside = MaskVolume(~brain2.bits, role="unhealthy")
    with pytest.raises(DataError):
        generate_mask_set(brain2, outside, MaskGenParams(), np.random.default_rng(0))
    small = MaskVolume(np.zeros((8, 8, 7), bool), role="unhealthy")
    with pytest.raises(ShapeError):
        generate_mask_set(brain2, small, MaskGenParams(), np.random.default_rng(0))


def test_placement_fails_when_brain_equals_forbidden_zone():
    # Tumor fills the brain: after dilation there is no legal voxel left,
    # and erosion of the shape cannot help.
    bits = ball(10, (4.5,) * 3, 3.0)
    brain = MaskVolume(bits, role="brain")
    tumor = MaskVolume(bits.copy(), role="unhealthy")
    params = MaskGenParams(margin=2)
    with pytest.raises(MaskPlacementError):
        sample_healthy_mask(brain, *placement_inputs(tumor, params), params,
                            np.random.default_rng(1))


def test_erosion_fallback_places_shrunken_shape():
    # Two brain slabs: one holds the tumor (and is fully inside the margin
    # zone), the other is too thin for the full tumor block but exactly
    # thick enough for its one-step erosion.
    n = 16
    brain_bits = np.zeros((n, n, n), dtype=bool)
    brain_bits[1:15, 1:15, 1:7] = True     # slab A, holds the tumor
    brain_bits[:, :, 9:12] = True          # slab B, 3 voxels thick
    tumor_bits = np.zeros_like(brain_bits)
    tumor_bits[2:14, 2:14, 1:6] = True     # 12 x 12 x 5 block
    brain = MaskVolume(brain_bits, role="brain")
    tumor = MaskVolume(tumor_bits, role="unhealthy")
    params = MaskGenParams(margin=1, max_attempts=100)
    healthy = sample_healthy_mask(brain, *placement_inputs(tumor, params), params,
                                  np.random.default_rng(2))
    assert 0 < healthy.bits.sum() < tumor.bits.sum()
    # Only the eroded 10 x 10 x 3 block fits, and only inside slab B.
    assert healthy.bits.sum() == 10 * 10 * 3
    assert healthy.bits[:, :, 9:12].sum() == healthy.bits.sum()
    assert not (healthy.bits & dilate(tumor.bits, 1)).any()
    assert not (healthy.bits & ~brain.bits).any()


def test_generate_mask_set_count_and_constraints():
    _, brain, tumor, _ = build_case(3300)
    params = MaskGenParams(margin=1)
    masks = generate_mask_set(brain, tumor, params, np.random.default_rng(7))
    assert len(masks) == 5
    forbidden = dilate(tumor.bits, params.margin)
    for m in masks:
        assert m.bits.sum() > 0
        assert not (m.bits & forbidden).any()
        assert not (m.bits & ~brain.bits).any()


def test_generate_mask_set_deterministic():
    _, brain, tumor, _ = build_case(3400)
    params = MaskGenParams(margin=1, variants=3)
    a = generate_mask_set(brain, tumor, params, np.random.default_rng(8))
    b = generate_mask_set(brain, tumor, params, np.random.default_rng(8))
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.bits, mb.bits)


# sha256 of the concatenated mask bits, computed before per-scan placement
# work moved out of sample_healthy_mask; any change to the RNG stream or to
# a placement shows here
@pytest.mark.parametrize("seed, margin, fraction, count, rng_seed, digest", [
    (3300, 1, 1.0, 5, 7, "b7e64f333112e58ab2bcad3fe11b1fed91d54cbbccfaee513aca5638bb20e53e"),
    (3400, 2, 0.5, 3, 8, "057ed097fbc8964ab639a17ccaa3021daf25299953752bad3461e2651e9b2692"),
])
def test_generate_mask_set_pinned_output(seed, margin, fraction, count, rng_seed, digest):
    _, brain, tumor, _ = build_case(seed)
    params = MaskGenParams(margin=margin, volume_fraction=fraction, variants=count)
    masks = generate_mask_set(brain, tumor, params, np.random.default_rng(rng_seed))
    assert hashlib.sha256(b"".join(m.bits.tobytes() for m in masks)).hexdigest() == digest


def test_augment_mask_deterministic_and_role_preserving():
    _, _, _, healthy = build_case(3500)
    a = augment_mask(healthy, np.random.default_rng(9))
    b = augment_mask(healthy, np.random.default_rng(9))
    assert np.array_equal(a.bits, b.bits)
    assert a.role == "healthy"
    assert a.bits.shape == healthy.bits.shape


# ---------------------------------------------------------------------------
# Voiding and sample assembly
# ---------------------------------------------------------------------------

def test_void_image_zeroes_masked_voxels():
    bits = np.zeros((4, 4, 4), dtype=bool)
    bits[1, 2, 3] = True
    mask = MaskVolume(bits, role="combined")
    raw = Volume(np.full((4, 4, 4), 5.0, np.float32))
    voided = void_image(raw, mask)
    assert voided.voxels[1, 2, 3] == 0.0
    untouched = ~bits
    assert np.array_equal(voided.voxels[untouched], raw.voxels[untouched])


def test_void_image_shape_mismatch():
    with pytest.raises(ShapeError):
        void_image(Volume(np.zeros((4, 4, 4), np.float32)),
                   MaskVolume(np.zeros((5, 5, 5), bool)))


def test_make_training_sample_assembles_components():
    t1n, _, tumor, healthy = build_case(3600)
    s = make_training_sample("caseA", t1n, tumor, healthy)
    assert s.case_id == "caseA"
    assert np.array_equal(s.combined.bits, healthy.bits | tumor.bits)
    assert s.combined.role == "combined"
    # Scans void to zero inside the combined mask.
    assert np.all(s.t1n_voided.voxels[s.combined.bits] == 0.0)
    outside = ~s.combined.bits
    assert np.array_equal(s.t1n_voided.voxels[outside], t1n.voxels[outside])
    assert np.array_equal(s.t1n.voxels, t1n.voxels)


def test_make_training_sample_rejects_overlap():
    t1n, _, tumor, _ = build_case(3700)
    with pytest.raises(DataError):
        make_training_sample("caseB", t1n, tumor,
                             MaskVolume(tumor.bits.copy(), role="healthy"))
