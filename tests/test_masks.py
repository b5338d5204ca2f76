"""Morphology, healthy-mask placement, augmentation geometry, voiding."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import (apply_mask_transform_reference, ball, build_case, dilate_oracle,
                      erode_oracle, placement_inputs, transform_grid)
from voxelpaint.errors import DataError, MaskPlacementError, ShapeError
from voxelpaint.masks import (
    BoxMask,
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
                got = transform_grid(bits, (mx, my, mz), 0.0, 0.0)
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
                once = transform_grid(bits, (mx, my, mz), 0.0, 0.0)
                twice = transform_grid(once, (mx, my, mz), 0.0, 0.0)
                assert np.array_equal(twice, bits), (mx, my, mz)


def test_right_angle_rotations_match_rot90_oracle():
    rng = np.random.default_rng(55)
    bits = _random_bits(rng)
    no_mirror = (False, False, False)
    for quarter in range(4):
        theta = 90.0 * quarter
        got_xy = transform_grid(bits, no_mirror, theta, 0.0)
        assert np.array_equal(got_xy, np.rot90(bits, k=quarter, axes=(0, 1))), theta
        got_yz = transform_grid(bits, no_mirror, 0.0, theta)
        assert np.array_equal(got_yz, np.rot90(bits, k=quarter, axes=(1, 2))), theta


def test_rotation_composition_returns_identity():
    rng = np.random.default_rng(56)
    bits = _random_bits(rng)
    none = (False, False, False)
    k90 = transform_grid(bits, none, 90.0, 0.0)
    back = transform_grid(k90, none, 270.0, 0.0)
    assert np.array_equal(back, bits)
    k180 = transform_grid(bits, none, 180.0, 0.0)
    assert np.array_equal(transform_grid(k180, none, 180.0, 0.0), bits)
    assert np.array_equal(transform_grid(bits, none, 360.0, 0.0), bits)


def test_rotation_preserves_count_at_right_angles():
    rng = np.random.default_rng(57)
    bits = _random_bits(rng)
    for theta in (90.0, 180.0, 270.0):
        assert transform_grid(bits, (False, False, False), theta, 0.0).sum() == bits.sum()


def test_oblique_rotation_stays_reasonable():
    # Nearest-neighbour resampling at arbitrary angles: the voxel count may
    # drift slightly but the mass must stay in the same ballpark and inside
    # the grid.
    bits = ball(16, (8.0, 8.0, 8.0), 3.0)
    out = transform_grid(bits, (False, False, False), 37.0, 113.0)
    assert out.shape == bits.shape
    assert 0.5 * bits.sum() < out.sum() < 2.0 * bits.sum()


EXACT_ANGLES = (0.0, 45.0, 90.0, 180.0, 270.0)


def _random_box_mask(rng):
    """A nonempty box mask on a small grid, its box on a grid face a third of the time per axis."""
    dims = tuple(int(n) for n in rng.integers(2, 15, size=3))
    ext = tuple(int(rng.integers(1, (n if rng.random() < 0.3 else max(n // 2, 1)) + 1))
                for n in dims)
    start = []
    for n, e in zip(dims, ext):
        side = int(rng.integers(6))
        start.append(0 if side == 0 else n - e if side == 1 else int(rng.integers(0, n - e + 1)))
    bits = rng.random(ext) < 0.5
    bits[tuple(int(rng.integers(e)) for e in ext)] = True
    return BoxMask(bits, tuple(start), dims)


def test_box_transform_matches_whole_grid_reference():
    # the box path against the whole-grid mirror and rotation in conftest
    rng = np.random.default_rng(58)
    seen = {"face": 0, "inner": 0, "odd": 0, "even": 0, "empty": 0}
    angles_seen = set()
    for _ in range(300):
        mask = _random_box_mask(rng)
        mirrors = tuple(bool(b) for b in rng.random(3) < 0.5)
        thetas = [float(rng.choice(EXACT_ANGLES)) if rng.random() < 0.6
                  else float(rng.uniform(0.0, 360.0)) for _ in range(2)]
        got = apply_mask_transform(mask, mirrors, *thetas)
        ref = apply_mask_transform_reference(mask.volume().bits, mirrors, *thetas)
        assert got.dims == mask.dims
        assert all(0 <= a and a + e <= n for a, e, n in zip(got.start, got.bits.shape, got.dims))
        assert np.array_equal(got.volume().bits, ref), (mask.start, mask.dims, mirrors, thetas)
        touches = any(a == 0 or a + e == n
                      for a, e, n in zip(mask.start, mask.bits.shape, mask.dims))
        seen["face" if touches else "inner"] += 1
        for e in mask.bits.shape:
            seen["odd" if e % 2 else "even"] += 1
        seen["empty"] += not ref.any()
        angles_seen.update(t for t in thetas if t in EXACT_ANGLES)
    assert min(seen.values()) > 0, seen
    assert angles_seen == set(EXACT_ANGLES)


def test_rotation_off_the_grid_empties_the_candidate():
    # a corner voxel of a square plane turned 45 degrees about the centre lands
    # sqrt(2) times as far out as the plane's faces
    dims = (9, 9, 5)
    corner = BoxMask(np.ones((1, 1, 1), bool), (0, 0, 2), dims)
    none = (False, False, False)
    assert not apply_mask_transform(corner, none, 45.0, 0.0).bits.any()
    assert not apply_mask_transform_reference(corner.volume().bits, none, 45.0, 0.0).any()


class _ScriptedRng:
    """Hands out given placement integers and angles in order, and never mirrors."""

    def __init__(self, integers, angles):
        self._integers, self._angles = iter(integers), iter(angles)
        self.integer_draws = 0

    def integers(self, low, high):
        self.integer_draws += 1
        return next(self._integers)

    def random(self, n):
        return np.ones(n)

    def uniform(self, low, high):
        return next(self._angles)


def test_candidate_rotated_off_the_grid_is_redrawn():
    dims = (9, 9, 5)
    brain = MaskVolume(np.ones(dims, bool), role="brain")
    tumor_bits = np.zeros(dims, bool)
    tumor_bits[6, 6, 2] = True
    tumor = MaskVolume(tumor_bits, role="unhealthy")
    # first attempt: the corner, turned off the grid; second: (1, 1, 2), unturned
    rng = _ScriptedRng(integers=(0, 0, 2, 1, 1, 2), angles=(45.0, 0.0, 0.0, 0.0))
    (healthy,) = generate_mask_set(brain, tumor, MaskGenParams(margin=1, variants=1), rng)
    assert rng.integer_draws == 6
    assert np.array_equal(np.argwhere(healthy.bits), [[1, 1, 2]])


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
    assert a.start == b.start and np.array_equal(a.bits, b.bits)


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
                                  np.random.default_rng(2)).volume()
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


def test_augment_mask_deterministic_and_inside_the_grid():
    _, brain, tumor, _ = build_case(3500)
    params = MaskGenParams(margin=1)
    placed = sample_healthy_mask(brain, *placement_inputs(tumor, params), params,
                                 np.random.default_rng(9))
    a = augment_mask(placed, np.random.default_rng(10))
    b = augment_mask(placed, np.random.default_rng(10))
    assert a.start == b.start and np.array_equal(a.bits, b.bits)
    assert a.dims == placed.dims == brain.dims
    assert all(0 <= s and s + e <= n for s, e, n in zip(a.start, a.bits.shape, a.dims))
    assert a.volume().role == "healthy"


def test_generate_mask_set_memory_stays_near_the_masks_it_returns():
    # a BraTS grid: placement works on the mask's box, so the traced peak above
    # the returned masks stays far below one volume (the whole-volume
    # placement of earlier versions peaked 4.4 volumes above them here, this
    # one 0.14)
    dims = (240, 240, 155)
    x, y, z = (np.arange(n, dtype=np.float32).reshape([-1 if a == i else 1 for a in range(3)])
               for i, n in enumerate(dims))
    brain_bits = ((x - 119.5) / 100) ** 2 + ((y - 119.5) / 110) ** 2 + ((z - 77) / 70) ** 2 <= 1
    tumor_bits = (x - 150) ** 2 + (y - 110) ** 2 + (z - 80) ** 2 <= 18.0 ** 2
    brain = MaskVolume(np.asfortranarray(brain_bits), role="brain")
    tumor = MaskVolume(np.asfortranarray(tumor_bits), role="unhealthy")
    del brain_bits, tumor_bits
    volume = float(np.prod(dims))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        masks = generate_mask_set(brain, tumor, MaskGenParams(margin=4, variants=5),
                                  np.random.default_rng(11))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = sum(m.bits.nbytes for m in masks)
    assert len(masks) == 5 and returned == 5 * volume
    assert (peak - returned) / volume < 1.0


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
    assert np.array_equal(s.t1n.voxels, t1n.voxels)


@pytest.mark.parametrize("component", ["mask-healthy", "mask-unhealthy"])
def test_make_training_sample_rejects_a_mask_of_other_dims(component):
    t1n, _, tumor, healthy = build_case(3650)
    other = MaskVolume(np.zeros((16, 16, 8), bool))
    masks = {"mask-healthy": healthy, "mask-unhealthy": tumor, component: other}
    with pytest.raises(DataError, match=f"caseC: {component} dims"):
        make_training_sample("caseC", t1n, masks["mask-unhealthy"], masks["mask-healthy"])


def test_make_training_sample_rejects_overlap():
    t1n, _, tumor, _ = build_case(3700)
    with pytest.raises(DataError):
        make_training_sample("caseB", t1n, tumor,
                             MaskVolume(tumor.bits.copy(), role="healthy"))
