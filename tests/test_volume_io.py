"""Volume containers, the window rule, stitching, NIfTI reading and writing."""

import gzip
import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import evaluate_case_reference, make_nifti_bytes, pool_of
from voxelpaint.errors import DataError, NiftiError, ShapeError
from voxelpaint.masks import (MaskGenParams, generate_mask_set,
                              make_training_sample, void_image)
from voxelpaint import nifti
from voxelpaint.nifti import read_nifti, read_nifti_mask, write_nifti, write_nifti_mask
from voxelpaint.metrics import evaluate_case
from voxelpaint.volume import MaskVolume, Volume, bounding_box, crop_center, stitch

WHOLE = (slice(None),) * 3


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def test_volume_casts_to_f32_and_validates():
    v = Volume(np.ones((2, 3, 4), dtype=np.float64))
    assert v.voxels.dtype == np.float32
    assert v.dims == (2, 3, 4)
    with pytest.raises(ShapeError):
        Volume(np.ones((2, 2)))


def test_mask_volume_roles_and_count():
    m = MaskVolume(np.eye(3)[None].repeat(3, 0), role="unhealthy")
    assert m.bits.dtype == np.bool_
    assert m.bits.sum() == 9
    with pytest.raises(DataError):
        MaskVolume(np.zeros((2, 2, 2)), role="suspicious")


# ---------------------------------------------------------------------------
# The window rule
# ---------------------------------------------------------------------------

def _starts(window):
    return tuple(w.start for w in window)


def test_crop_center_standard_scan_geometry():
    window = crop_center((240, 240, 155), (208, 208, 144), WHOLE)
    assert _starts(window) == (16, 16, 5)
    assert tuple(w.stop - w.start for w in window) == (208, 208, 144)


def test_crop_center_floor_on_odd_differences():
    window = crop_center((7, 8, 9), (4, 4, 4), WHOLE)
    assert _starts(window) == ((7 - 4) // 2, 2, 2)
    assert window[0] == slice(1, 5)


def test_crop_center_extracts_expected_block():
    data = np.arange(5 * 6 * 7, dtype=np.float32).reshape(5, 6, 7)
    window = crop_center(data.shape, (3, 4, 5), WHOLE)
    assert np.array_equal(data[window], data[1:4, 1:5, 1:6])


def test_crop_rejects_oversized_target():
    with pytest.raises(ShapeError):
        crop_center((8, 8, 8), (9, 8, 8), WHOLE)
    with pytest.raises(ShapeError):
        crop_center((8, 8, 8), (0, 8, 8), WHOLE)
    with pytest.raises(ShapeError):
        crop_center((8, 8, 8), (4, 4), WHOLE)
    with pytest.raises(ShapeError):
        crop_center((8, 8, 8), (4, 4, 4), WHOLE[:2])


def test_crop_center_around_a_box_shifts_to_fit():
    # centred on [1, 3), then moved right to start at 0; on [7, 9), left to end at 10
    assert crop_center((10,), (6,), (slice(1, 3),)) == (slice(0, 6),)
    assert crop_center((10,), (6,), (slice(7, 9),)) == (slice(4, 10),)
    assert crop_center((10,), (3,), (slice(4, 7),)) == (slice(4, 7),)
    assert crop_center((10,), (5,), (slice(4, 6),)) == (slice(2, 7),)


def test_ssim_box_equals_the_widening_loop_oracle():
    # evaluate_case takes its SSIM box from crop_center around the mask's
    # tight box; the reference widens that box one voxel a side in a loop.
    # Each mask is a small blob flush with the low edge, flush with the
    # high edge, or inside, axis by axis, so the widened box is clamped at
    # 0, at n, or not at all.
    rng = np.random.default_rng(48)
    for case in range(200):
        dims = tuple(int(rng.integers(7, 15)) for _ in range(3))
        size = [int(rng.integers(1, 7)) for _ in dims]
        lo = [int(rng.choice([0, n - e, rng.integers(0, n - e + 1)])) for n, e in zip(dims, size)]
        bits = np.zeros(dims, bool)
        bits[tuple(slice(a, a + e) for a, e in zip(lo, size))] = rng.random(size) < 0.6
        bits[tuple(lo)] = bits[tuple(a + e - 1 for a, e in zip(lo, size))] = True
        gt = Volume(rng.uniform(1.0, 2.0, dims).astype(np.float32))
        pred = Volume(rng.uniform(1.0, 2.0, dims).astype(np.float32))
        healthy = MaskVolume(bits, role="healthy")
        assert evaluate_case("c", pred, gt, healthy, 2.0) == \
            evaluate_case_reference("c", pred, gt, healthy, 2.0), case

    # one voxel near each end: the widened box is clamped at 0 on one axis
    # and at n on another
    bits = np.zeros((12, 9, 10), bool)
    bits[1, 8, 5] = True
    tight = bounding_box(bits)
    window = crop_center(bits.shape, [max(b.stop - b.start, 7) for b in tight], tight)
    assert window == (slice(0, 7), slice(2, 9), slice(2, 9))


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------

def test_stitch_replaces_only_masked_voxels_randomized():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        src = tuple(int(rng.integers(4, 11)) for _ in range(3))
        tgt = tuple(int(rng.integers(2, s + 1)) for s in src)
        box = crop_center(src, tgt, WHOLE)
        original = Volume(rng.standard_normal(src).astype(np.float32))
        pred = rng.standard_normal(tgt).astype(np.float32)
        bits = rng.random(tgt) < 0.4
        out = stitch(original, pred, bits, box).voxels

        inner = tuple(slice(a, a + t) for a, t in zip(_starts(box), tgt))
        # Inside the crop window, masked voxels carry the prediction and
        # unmasked voxels the original, bit for bit.
        window = out[inner]
        assert np.array_equal(window[bits], pred[bits])
        assert np.array_equal(window[~bits], original.voxels[inner][~bits])
        # Outside the crop window nothing may change.
        touched = np.zeros(src, dtype=bool)
        touched[inner] = bits
        assert np.array_equal(out[~touched], original.voxels[~touched])


def test_stitch_preserves_metadata_and_validates():
    original = Volume(np.zeros((6, 6, 6), np.float32), affine_bytes=bytes(range(76)))
    box = crop_center((6, 6, 6), (4, 4, 4), WHOLE)
    pred = np.ones((4, 4, 4), np.float32)
    bits = np.ones((4, 4, 4), bool)
    out = stitch(original, pred, bits, box)
    assert out.affine_bytes == bytes(range(76))
    with pytest.raises(ShapeError):
        stitch(original, np.ones((3, 3, 3), np.float32), bits, box)
    with pytest.raises(ShapeError):
        stitch(original, pred, np.ones((3, 3, 3), bool), box)
    with pytest.raises(ShapeError):   # a window cut from a larger volume
        stitch(original, pred, bits, crop_center((9, 9, 9), (4, 4, 4), (slice(7, 9),) * 3))


# ---------------------------------------------------------------------------
# Bounding box
# ---------------------------------------------------------------------------

def _argwhere_box(bits):
    coords = np.argwhere(bits)
    return tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(coords.min(0), coords.max(0)))


def test_bounding_box_matches_argwhere_oracle():
    rng = np.random.default_rng(44)
    for _ in range(300):
        dims = tuple(int(rng.integers(1, 10)) for _ in range(3))
        bits = rng.random(dims) < rng.uniform(0.005, 0.5)
        bits[tuple(int(rng.integers(0, d)) for d in dims)] = True
        for arr in (bits, np.asfortranarray(bits)):
            assert bounding_box(arr) == _argwhere_box(arr)

    dims = (7, 5, 6)
    faces = np.zeros(dims, bool)
    for voxel in ((0, 2, 3), (6, 1, 1), (3, 0, 2), (2, 4, 4), (4, 3, 0), (1, 2, 5)):
        faces[voxel] = True
    one = np.zeros(dims, bool)
    one[5, 0, 3] = True
    for bits in (faces, one, np.ones(dims, bool)):
        assert bounding_box(bits) == _argwhere_box(bits)
    assert bounding_box(faces) == (slice(0, 7), slice(0, 5), slice(0, 6))
    assert bounding_box(one) == (slice(5, 6), slice(0, 1), slice(3, 4))


def test_bounding_box_of_an_empty_mask_raises():
    with pytest.raises(DataError):
        bounding_box(np.zeros((3, 4, 5), bool))
    brain = MaskVolume(np.ones((3, 4, 5), bool), role="brain")
    with pytest.raises(DataError, match="tumor mask is empty"):
        generate_mask_set(brain, MaskVolume(np.zeros((3, 4, 5), bool), role="unhealthy"),
                          MaskGenParams(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Disk order through the scan path
# ---------------------------------------------------------------------------

def _disk_case(tmp_path, dims=(21, 17, 13)):
    """A scan and a tumor mask written to .nii.gz and read back."""
    rng = np.random.default_rng(45)
    grid = np.indices(dims)
    brain = sum((grid[i] - (d - 1) / 2) ** 2 / (0.45 * d) ** 2 for i, d in enumerate(dims)) <= 1
    voxels = np.where(brain, 100.0 + 900.0 * rng.random(dims), 0.0).astype(np.float32)
    tumor = sum((grid[i] - c) ** 2 for i, c in enumerate((8, 9, 6))) <= 2.1 ** 2
    write_nifti(Volume(voxels), tmp_path / "s-t1n.nii.gz")
    write_nifti_mask(MaskVolume(tumor, role="unhealthy"), tmp_path / "s-mask-unhealthy.nii.gz")
    return (read_nifti(tmp_path / "s-t1n.nii.gz"),
            read_nifti_mask(tmp_path / "s-mask-unhealthy.nii.gz", "unhealthy"))


def test_scan_path_keeps_disk_order(tmp_path):
    t1n, tumor = _disk_case(tmp_path)
    assert t1n.voxels.flags.f_contiguous and tumor.bits.flags.f_contiguous
    brain = MaskVolume(t1n.voxels > 0, role="brain")
    healthy = generate_mask_set(brain, tumor, MaskGenParams(margin=1, variants=2),
                                np.random.default_rng(46))
    sample = make_training_sample("s", t1n, tumor, healthy[0])
    for array in (sample.healthy.bits, sample.combined.bits):
        assert array.flags.f_contiguous
    voided = void_image(t1n, sample.combined)
    box = crop_center(t1n.dims, (16, 16, 8), WHOLE)
    out = stitch(voided, np.ones((16, 16, 8), np.float32), sample.combined.bits[box], box)
    assert voided.voxels.flags.f_contiguous and out.voxels.flags.f_contiguous


def test_writing_disk_order_arrays_copies_no_voxels(tmp_path):
    # large enough that the writer's fixed costs stay far below the bound
    t1n, tumor = _disk_case(tmp_path, dims=(48, 40, 32))
    voided = void_image(t1n, tumor)
    box = crop_center(t1n.dims, (16, 16, 8), WHOLE)
    stitched = stitch(t1n, np.ones((16, 16, 8), np.float32), tumor.bits[box], box)
    for write, item, nbytes in ((write_nifti, t1n, t1n.voxels.nbytes),
                                (write_nifti, voided, t1n.voxels.nbytes),
                                (write_nifti, stitched, t1n.voxels.nbytes),
                                (write_nifti_mask, tumor, tumor.bits.nbytes)):
        tracemalloc.start()
        try:
            write(item, tmp_path / "out.nii")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 4, f"{write.__name__} peaked at {peak / nbytes:.2f}x the voxels"
    assert read_nifti_mask(tmp_path / "out.nii", "unhealthy").bits.tobytes() == tumor.bits.tobytes()


# ---------------------------------------------------------------------------
# NIfTI
# ---------------------------------------------------------------------------

def test_nifti_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    vox = rng.standard_normal((6, 5, 4)).astype(np.float32)
    vol = Volume(vox, affine_bytes=bytes(range(76)))
    for name in ["plain.nii", "zipped.nii.gz"]:
        path = tmp_path / name
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.voxels.tobytes() == vox.tobytes()
        assert back.dims == (6, 5, 4)
        assert back.affine_bytes == bytes(range(76))


def test_nifti_gzip_rewrite_is_byte_identical(tmp_path):
    vol = Volume(np.ones((2, 3, 4), np.float32))
    write_nifti(vol, tmp_path / "a.nii.gz")
    write_nifti(vol, tmp_path / "b.nii.gz")
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


def test_nifti_x_fastest_on_disk(tmp_path):
    vox = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    write_nifti(Volume(vox), tmp_path / "v.nii")
    raw = (tmp_path / "v.nii").read_bytes()
    first_two = np.frombuffer(raw, dtype="<f4", count=2, offset=352)
    assert np.array_equal(first_two, vox[:, 0, 0])


def test_nifti_mask_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    bits = rng.random((5, 4, 3)) < 0.5
    write_nifti_mask(MaskVolume(bits, role="healthy"), tmp_path / "m.nii.gz")
    back = read_nifti_mask(tmp_path / "m.nii.gz", role="healthy")
    assert np.array_equal(back.bits, bits)
    assert back.role == "healthy"
    with gzip.open(tmp_path / "m.nii.gz", "rb") as fh:
        raw = fh.read()
    assert struct.unpack_from("<2h", raw, 70) == (2, 8)  # datatype uint8, bitpix 8
    assert len(raw) == 352 + bits.size
    on_disk = np.frombuffer(raw, dtype="u1", offset=352).reshape(3, 4, 5).transpose(2, 1, 0)
    assert np.array_equal(on_disk, bits.astype(np.uint8))


def test_nifti_float32_mask_from_older_writer_still_reads(tmp_path):
    # earlier versions stored masks as gzipped float32 0.0/1.0 voxels
    rng = np.random.default_rng(45)
    bits = rng.random((5, 4, 3)) < 0.5
    data = bits.astype(np.float32).transpose(2, 1, 0)
    with gzip.GzipFile(tmp_path / "old.nii.gz", "wb", mtime=0) as fh:
        fh.write(make_nifti_bytes((5, 4, 3), datatype=16, data=data))
    back = read_nifti_mask(tmp_path / "old.nii.gz", role="healthy")
    assert np.array_equal(back.bits, bits)


@pytest.mark.parametrize("datatype,stored_on,stored_off,slope,inter", [
    (2, 1, 0, 1.0, 0.0),       # uint8 as written today
    (2, 7, 0, 0.0, 99.0),      # slope 0: unscaled, the intercept is ignored
    (16, 1.0, 0.0, 1.0, 0.0),  # float32 from older versions
    (4, 1, 0, 2.0, -1.2),      # int16 scaled: 0.8 is set, -1.2 is not
    (2, 5, 4, 0.25, -0.5),     # 0.75 is set, exactly 0.5 is not
    (2, 0, 1, -1.0, 1.0),      # a negative slope inverts the codes
])
def test_nifti_mask_encodings_give_the_same_bits(tmp_path, datatype, stored_on, stored_off,
                                                 slope, inter):
    rng = np.random.default_rng(47)
    bits = rng.random((5, 4, 3)) < 0.5
    dtype = {2: np.uint8, 4: "<i2", 16: np.float32}[datatype]
    data = np.where(bits, stored_on, stored_off).astype(dtype).transpose(2, 1, 0)
    raw = make_nifti_bytes((5, 4, 3), datatype=datatype, data=data, slope=slope, inter=inter)
    (tmp_path / "m.nii").write_bytes(raw)
    assert np.array_equal(read_nifti_mask(tmp_path / "m.nii", role="healthy").bits, bits)
    assert np.array_equal(read_nifti(tmp_path / "m.nii").voxels > 0.5, bits)


def test_nifti_float32_mask_with_nan_is_rejected(tmp_path):
    data = np.zeros((3, 4, 5), np.float32)
    data[1, 2, 3] = np.nan
    (tmp_path / "m.nii").write_bytes(make_nifti_bytes((5, 4, 3), datatype=16, data=data))
    with pytest.raises(NiftiError) as exc:
        read_nifti_mask(tmp_path / "m.nii", role="healthy")
    assert exc.value.code == "non_finite"


def test_nifti_gzip_header_is_fixed_and_fastest_level(tmp_path):
    # magic, deflate, FLG.FEXTRA, mtime 0, XFL 4 (fastest level), OS 255
    # (unknown); XLEN 8, one subfield "VP" of 4 bytes: the member's length
    expected = bytes.fromhex("1f8b08040000000004ff" "0800" "5650" "0400")
    write_nifti(Volume(np.ones((3, 4, 5), np.float32)), tmp_path / "v.nii.gz")
    write_nifti_mask(MaskVolume(np.ones((3, 4, 5), bool)), tmp_path / "m.nii.gz")
    for name in ("v.nii.gz", "m.nii.gz"):
        blob = (tmp_path / name).read_bytes()   # one member
        assert blob[:16] == expected
        assert struct.unpack_from("<I", blob, 16) == (len(blob),)


def test_nifti_gzip_level_leaves_voxel_bytes_unchanged(tmp_path):
    # Level 1 decompresses to exactly the bytes the earlier level-9 writer
    # produced (the digest was taken from that writer) and the plain file holds.
    vox = (np.arange(24 * 20 * 16, dtype=np.float32).reshape(24, 20, 16)
           * np.float32(0.37)) % np.float32(901.0)
    vol = Volume(vox, affine_bytes=bytes(range(76)))
    write_nifti(vol, tmp_path / "v.nii")
    write_nifti(vol, tmp_path / "v.nii.gz")
    with gzip.open(tmp_path / "v.nii.gz", "rb") as fh:
        unzipped = fh.read()
    assert hashlib.sha256(unzipped).hexdigest() == (
        "ab9255af4f4646819c4b959035caab7625495f0ea627161ed71784e6f3a833aa")
    assert unzipped == (tmp_path / "v.nii").read_bytes()


def test_nifti_scl_slope_applied(tmp_path):
    data = np.arange(8, dtype="<i2").reshape(2, 2, 2)
    raw = make_nifti_bytes((2, 2, 2), datatype=4, data=data, slope=2.0, inter=10.0)
    (tmp_path / "s.nii").write_bytes(raw)
    vol = read_nifti(tmp_path / "s.nii")
    flat = vol.voxels.transpose(2, 1, 0).ravel()
    assert np.array_equal(flat, np.arange(8, dtype=np.float32) * 2.0 + 10.0)


def test_nifti_zero_slope_means_unscaled(tmp_path):
    data = np.full((2, 2, 2), 7, dtype=np.uint8)
    raw = make_nifti_bytes((2, 2, 2), datatype=2, data=data, slope=0.0, inter=99.0)
    (tmp_path / "u.nii").write_bytes(raw)
    assert np.all(read_nifti(tmp_path / "u.nii").voxels == 7.0)


def test_nifti_honors_larger_vox_offset(tmp_path):
    data = np.full((2, 2, 2), 3, dtype=np.float32)
    raw = make_nifti_bytes((2, 2, 2), data=data, vox_offset=400.0)
    (tmp_path / "o.nii").write_bytes(raw)
    assert np.all(read_nifti(tmp_path / "o.nii").voxels == 3.0)


def test_nifti_reads_a_zero_vox_offset_as_352(tmp_path):
    data = np.full((2, 2, 2), 5, dtype=np.float32)
    raw = bytearray(make_nifti_bytes((2, 2, 2), data=data))
    struct.pack_into("<f", raw, 108, 0.0)
    (tmp_path / "z.nii").write_bytes(raw)
    assert np.all(read_nifti(tmp_path / "z.nii").voxels == 5.0)


@pytest.mark.parametrize("offset", [350.0, 351.9, 400.5, -352.0],
                         ids=["in_extension_flags", "fraction_in_flags", "fraction", "negative"])
@pytest.mark.parametrize("read", [read_nifti, lambda path: read_nifti_mask(path, "healthy")],
                         ids=["scan", "mask"])
def test_nifti_refuses_a_vox_offset_inside_the_header_or_fractional(tmp_path, read, offset):
    # float32 voxels of 3 after 48 zero bytes: a reader that truncated 400.5 or started
    # at 350 would see finite garbage, not an error
    raw = bytearray(make_nifti_bytes((2, 2, 2), data=np.full((2, 2, 2), 3, np.float32), vox_offset=400.0))
    struct.pack_into("<f", raw, 108, offset)
    path = tmp_path / "o.nii"
    path.write_bytes(raw)
    with pytest.raises(NiftiError, match="vox_offset") as exc:
        read(path)
    assert exc.value.code == "bad_header"


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("read", [read_nifti, lambda path: read_nifti_mask(path, "healthy")],
                         ids=["scan", "mask"])
def test_nifti_refuses_a_vox_offset_that_is_not_finite(tmp_path, read, offset):
    raw = bytearray(make_nifti_bytes((2, 2, 2), datatype=2, data=np.ones((2, 2, 2), np.uint8)))
    struct.pack_into("<f", raw, 108, offset)
    path = tmp_path / "o.nii"
    path.write_bytes(raw)
    with pytest.raises(NiftiError, match="vox_offset") as exc:
        read(path)
    assert exc.value.code == "bad_header"


def test_nifti_accepts_trailing_singleton_dims(tmp_path):
    raw = make_nifti_bytes((2, 2, 2), dim0=4, trailing=(1, 1, 1, 1))
    (tmp_path / "t.nii").write_bytes(raw)
    assert read_nifti(tmp_path / "t.nii").dims == (2, 2, 2)


@pytest.mark.parametrize("corrupt,code", [
    (dict(sizeof_hdr=340), "bad_header"),
    (dict(magic=b"ni1\x00"), "bad_magic"),
    (dict(datatype=8), "bad_datatype"),
    (dict(dim0=2), "bad_dims"),
    (dict(dim0=4, trailing=(2, 1, 1, 1)), "bad_dims"),
    (dict(shape=(0, 2, 2)), "bad_dims"),
])
def test_nifti_malformed_headers(tmp_path, corrupt, code):
    raw = make_nifti_bytes(**corrupt)
    path = tmp_path / "bad.nii"
    path.write_bytes(raw)
    with pytest.raises(NiftiError) as exc:
        read_nifti(path)
    assert exc.value.code == code


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nifti_rejects_non_finite_voxels(tmp_path, bad):
    data = np.ones((5, 4, 3), dtype=np.float32)
    data[2, 1, 0] = bad
    path = tmp_path / "bad.nii"
    path.write_bytes(make_nifti_bytes(data=data))
    with pytest.raises(NiftiError) as exc:
        read_nifti(path)
    assert exc.value.code == "non_finite"


def test_nifti_truncated_header_and_data(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(make_nifti_bytes()[:100])
    with pytest.raises(NiftiError) as exc:
        read_nifti(path)
    assert exc.value.code == "truncated"
    full = make_nifti_bytes()
    path.write_bytes(full[:len(full) - 8])
    with pytest.raises(NiftiError) as exc:
        read_nifti(path)
    assert exc.value.code == "truncated"


def test_nifti_gzipped_fixture_also_parses(tmp_path):
    raw = make_nifti_bytes((2, 3, 4))
    with gzip.GzipFile(tmp_path / "z.nii.gz", "wb", mtime=0) as fh:
        fh.write(raw)
    assert read_nifti(tmp_path / "z.nii.gz").dims == (2, 3, 4)


def _two_members(raw):
    half = len(raw) // 2
    return gzip.compress(raw[:half], mtime=0) + gzip.compress(raw[half:], mtime=0)


@pytest.mark.parametrize("layout", ["members", "padded", "padded_between", "members_padded"])
def test_nifti_gzip_members_and_padding_read_as_the_gzip_module_does(tmp_path, layout):
    data = np.arange(24, dtype=np.float32).reshape(4, 3, 2)
    raw = make_nifti_bytes((2, 3, 4), data=data)
    half = len(raw) // 2
    blob = {
        "members": _two_members(raw),
        "padded": gzip.compress(raw, mtime=0) + bytes(9),
        "padded_between": gzip.compress(raw[:half], mtime=0) + bytes(3)
                          + gzip.compress(raw[half:], mtime=0),
        "members_padded": _two_members(raw) + bytes(2),
    }[layout]
    path = tmp_path / "v.nii.gz"
    path.write_bytes(blob)
    with gzip.open(path, "rb") as fh:
        assert fh.read() == raw
    assert read_nifti(path).voxels.tobytes() == data.transpose(2, 1, 0).tobytes()


@pytest.mark.parametrize("damage", ["cut", "junk", "bad_crc", "not_gzip", "cut_member"])
def test_nifti_damaged_gzip_raises_bad_gzip(tmp_path, damage):
    raw = make_nifti_bytes((5, 4, 3))
    blob = gzip.compress(raw, mtime=0)
    blob = {
        "cut": blob[:len(blob) // 2],                      # the gzip module: EOFError
        "junk": blob + b"junk",                            # BadGzipFile
        "bad_crc": blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:],   # BadGzipFile
        "not_gzip": raw,                                   # BadGzipFile
        "cut_member": _two_members(raw)[:-5],              # EOFError
    }[damage]
    path = tmp_path / "v.nii.gz"
    path.write_bytes(blob)
    for read in (read_nifti, lambda p: read_nifti_mask(p, "healthy")):
        with pytest.raises(NiftiError) as exc:
            read(path)
        assert exc.value.code == "bad_gzip"
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_nifti_gzip_reads_alike_at_any_inflate_chunk(tmp_path, monkeypatch, chunk):
    # members, padding and damage that straddle the edge of an inflate
    # chunk read as they do when the stream fits in one
    monkeypatch.setattr(nifti, "_INFLATE_CHUNK", chunk)
    data = np.arange(24, dtype=np.float32).reshape(4, 3, 2)
    raw = make_nifti_bytes((2, 3, 4), data=data)
    blob = gzip.compress(raw, mtime=0)
    path = tmp_path / "v.nii.gz"
    for good in (blob, blob + bytes(9), _two_members(raw) + bytes(2),
                 gzip.compress(raw[:100], mtime=0) + bytes(3) + gzip.compress(raw[100:], mtime=0)):
        path.write_bytes(good)
        assert read_nifti(path).voxels.tobytes() == data.transpose(2, 1, 0).tobytes()
    for bad in (blob[:len(blob) // 2], blob + b"junk", _two_members(raw)[:-5]):
        path.write_bytes(bad)
        with pytest.raises(NiftiError) as exc:
            read_nifti(path)
        assert exc.value.code == "bad_gzip"


def test_nifti_read_holds_the_voxel_bytes_once(tmp_path):
    # the stream inflates piecewise into one buffer and float32 voxels stay
    # on it, so no second copy of the voxel bytes is ever held. Few distinct
    # values keep the file small beside the voxels, so a copy shows clearly.
    vox = np.asfortranarray(np.random.default_rng(3).integers(0, 16, (96, 96, 64)).astype(np.float32))
    path = tmp_path / "s.nii.gz"
    write_nifti(Volume(vox), path)
    tracemalloc.start()
    try:
        back = read_nifti(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.voxels.tobytes(order="F") == vox.tobytes(order="F")
    assert back.voxels.flags.writeable and back.voxels.flags.aligned
    over = (peak - path.stat().st_size) / vox.nbytes
    assert over < 1.5, f"read held {over:.2f}x the voxel bytes beside the compressed file"


def test_nifti_plain_read_holds_the_file_bytes_once(tmp_path):
    # the twin of the test above for a plain .nii: the file is read straight
    # into the buffer the voxels stay on, so it is never held twice. The
    # finiteness check's map, one byte a voxel, is the rest of the peak.
    vox = np.asfortranarray(np.random.default_rng(3).integers(0, 16, (96, 96, 64)).astype(np.float32))
    path = tmp_path / "s.nii"
    write_nifti(Volume(vox), path)
    tracemalloc.start()
    try:
        back = read_nifti(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.voxels.tobytes(order="F") == vox.tobytes(order="F")
    assert back.voxels.flags.writeable and back.voxels.flags.aligned
    over = (peak - path.stat().st_size) / vox.nbytes
    assert over < 0.5, f"read held {over:.2f}x the voxel bytes beside the file"


def test_nifti_gzip_members_read_in_one_pass(tmp_path):
    # pigz and BGZF write many small members. Noise voxels barely compress,
    # so a copy of the compressed bytes left over at a member boundary would
    # weigh as much as the voxels themselves.
    vox = np.asfortranarray(np.random.default_rng(5).standard_normal((64, 64, 48), np.float32))
    path = tmp_path / "s.nii.gz"
    write_nifti(Volume(vox), tmp_path / "s.nii")
    raw = (tmp_path / "s.nii").read_bytes()
    step = 1 << 14
    path.write_bytes(b"".join(gzip.compress(raw[i:i + step], mtime=0)
                              for i in range(0, len(raw), step)))
    assert path.stat().st_size > 0.9 * len(raw)
    tracemalloc.start()
    try:
        back = read_nifti(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.voxels.tobytes(order="F") == vox.tobytes(order="F")
    over = (peak - path.stat().st_size) / vox.nbytes
    assert over < 1.5, f"read held {over:.2f}x the voxel bytes beside the compressed file"


def _scan_and_mask(seed=48, dims=(40, 36, 28)):
    """A scan with zero background around a noisy brain, and a mask."""
    rng = np.random.default_rng(seed)
    grid = np.indices(dims)
    brain = sum((grid[i] - (d - 1) / 2) ** 2 / (0.42 * d) ** 2 for i, d in enumerate(dims)) <= 1
    voxels = np.where(brain, np.rint(200.0 + 800.0 * rng.random(dims)), 0.0).astype(np.float32)
    return Volume(voxels, affine_bytes=bytes(range(76))), MaskVolume(brain & (grid[0] < 20))


@pytest.mark.parametrize("kind", ["scan", "mask"])
def test_nifti_gzip_decodes_to_the_plain_file(tmp_path, kind):
    # one gzip member that both the gzip module and zlib's gzip mode decode
    # to exactly the bytes of the plain file
    volume = _scan_and_mask()[kind == "mask"]
    write = write_nifti if kind == "scan" else write_nifti_mask
    write(volume, tmp_path / "v.nii")
    write(volume, tmp_path / "v.nii.gz")
    plain = (tmp_path / "v.nii").read_bytes()
    blob = (tmp_path / "v.nii.gz").read_bytes()
    assert gzip.decompress(blob) == plain
    inflater = zlib.decompressobj(wbits=31)
    assert inflater.decompress(blob) == plain
    assert inflater.eof and inflater.unused_data == b""
    encode = nifti.encode_nifti if kind == "scan" else nifti.encode_nifti_mask
    assert b"".join(encode(volume, "x.nii.gz")) == blob


def test_nifti_file_from_the_gzipfile_writer_still_reads(tmp_path):
    # earlier versions deflated through gzip.GzipFile with the default strategy
    scan, mask = _scan_and_mask()
    for volume, write, read in ((scan, write_nifti, read_nifti),
                                (mask, write_nifti_mask, lambda p: read_nifti_mask(p, "healthy"))):
        write(volume, tmp_path / "v.nii")
        with open(tmp_path / "old.nii.gz", "wb") as out, gzip.GzipFile(
                filename="", fileobj=out, mode="wb", compresslevel=1, mtime=0) as fh:
            fh.write((tmp_path / "v.nii").read_bytes())
        old, new = read(tmp_path / "old.nii.gz"), read(tmp_path / "v.nii")
        if volume is scan:
            assert old.voxels.tobytes() == new.voxels.tobytes() and old.affine_bytes == new.affine_bytes
        else:
            assert np.array_equal(old.bits, new.bits)


# ---------------------------------------------------------------------------
# gzip members: the writer's layout, read side by side
# ---------------------------------------------------------------------------

def _member_starts(blob):
    """Where each member starts, stepping by the length fields."""
    starts, pos = [], 0
    while pos < len(blob):
        starts.append(pos)
        pos += struct.unpack_from("<I", blob, pos + 16)[0]
    assert pos == len(blob)
    return starts


@pytest.mark.parametrize("member", [lambda n: n + 1, lambda n: n, lambda n: n - 1, lambda n: 400],
                         ids=["below", "at", "above", "many"])
def test_nifti_gzip_members_decode_to_the_plain_file(tmp_path, monkeypatch, member):
    # a file one byte shorter than MEMBER, exactly MEMBER, one byte longer,
    # and several times longer: the gzip module reads the members in turn
    scan = _scan_and_mask(dims=(9, 8, 7))[0]
    write_nifti(scan, tmp_path / "v.nii")
    plain = (tmp_path / "v.nii").read_bytes()
    monkeypatch.setattr(nifti, "MEMBER", member(len(plain)))
    write_nifti(scan, tmp_path / "v.nii.gz")
    blob = (tmp_path / "v.nii.gz").read_bytes()
    assert gzip.decompress(blob) == plain
    assert len(_member_starts(blob)) == -(-len(plain) // nifti.MEMBER)
    assert read_nifti(tmp_path / "v.nii.gz").voxels.tobytes() == scan.voxels.tobytes()


def test_nifti_gzip_members_decode_at_the_real_member_size(tmp_path):
    vox = np.zeros((128, 128, 72), np.float32)   # 4.5 MiB: two members
    vox[20:100, 30:90, 10:60] = np.random.default_rng(6).integers(0, 900, (80, 60, 50))
    write_nifti(Volume(vox), tmp_path / "v.nii")
    write_nifti(Volume(vox), tmp_path / "v.nii.gz")
    blob = (tmp_path / "v.nii.gz").read_bytes()
    assert len(_member_starts(blob)) == 2
    assert gzip.decompress(blob) == (tmp_path / "v.nii").read_bytes()
    assert read_nifti(tmp_path / "v.nii.gz").voxels.tobytes() == vox.tobytes()


def test_nifti_gzip_bytes_do_not_depend_on_the_pool(tmp_path, monkeypatch):
    scan, mask = _scan_and_mask()
    monkeypatch.setattr(nifti, "MEMBER", 5000)
    blobs = []
    for threads in (1, 2):
        with pool_of(threads):
            write_nifti(scan, tmp_path / f"v{threads}.nii.gz")
            write_nifti_mask(mask, tmp_path / f"m{threads}.nii.gz")
            blobs.append([(tmp_path / f"{k}{threads}.nii.gz").read_bytes() for k in "vm"])
            assert read_nifti(tmp_path / f"v{threads}.nii.gz").voxels.tobytes() == scan.voxels.tobytes()
    assert len(_member_starts(blobs[0][0])) > 20
    assert blobs[0] == blobs[1]


def _damaged(blob, damage):
    """The many-member ``blob`` with one kind of damage."""
    starts = _member_starts(blob)
    mid, last = starts[len(starts) // 2], starts[-1]
    crc_at = starts[len(starts) // 2 + 1] - 8
    return {
        "bad_crc_middle": blob[:crc_at] + bytes([blob[crc_at] ^ 1]) + blob[crc_at + 1:],
        "cut_last": blob[:-5],
        "cut_middle": blob[:crc_at - 3] + blob[crc_at:],
        "length_middle": blob[:mid + 16] + struct.pack("<I", crc_at + 8 - mid + 1) + blob[mid + 20:],
        "length_last": blob[:last + 16] + struct.pack("<I", len(blob) - last - 1) + blob[last + 20:],
        "junk": blob + b"junk",
    }[damage]


@pytest.mark.parametrize("damage", ["bad_crc_middle", "cut_last", "cut_middle", "length_middle",
                                    "length_last", "junk"])
@pytest.mark.parametrize("threads", [1, 2])
def test_nifti_damaged_gzip_member_raises_bad_gzip(tmp_path, monkeypatch, damage, threads):
    monkeypatch.setattr(nifti, "MEMBER", 5000)
    scan = _scan_and_mask()[0]
    path = tmp_path / "v.nii.gz"
    write_nifti(scan, path)
    path.write_bytes(_damaged(path.read_bytes(), damage))
    with pool_of(threads), pytest.raises(NiftiError) as exc:
        read_nifti(path)
    assert exc.value.code == "bad_gzip"
    assert str(path) in str(exc.value)


def test_nifti_gzip_member_claiming_more_than_deflate_can_hold_is_refused_unallocated(tmp_path):
    # ten 30-byte members, each an empty deflate block whose ISIZE claims
    # 4 MiB: sized from those fields, the buffer would be 40 MiB
    empty = zlib.compressobj(wbits=-15)
    block = empty.compress(b"") + empty.flush()
    member = (nifti._MEMBER_HEADER + struct.pack("<I", 30) + block
              + struct.pack("<II", zlib.crc32(b""), nifti.MEMBER))
    assert len(member) == 30
    path = tmp_path / "liar.nii.gz"
    path.write_bytes(member * 10)
    tracemalloc.start()
    try:
        with pytest.raises(NiftiError) as exc:
            read_nifti(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == "bad_gzip"
    assert peak < 2**20, f"refusing a 300-byte file peaked at {peak / 2**20:.1f} MiB"


def test_nifti_gzip_of_an_all_zero_scan_still_reads_member_by_member_side_by_side(tmp_path):
    # zeros deflate to near deflate's largest ratio; the writer's members
    # must still pass the ratio check and read to the same bytes
    vox = np.zeros((128, 128, 72), np.float32)
    write_nifti(Volume(vox), tmp_path / "z.nii.gz")
    blob = (tmp_path / "z.nii.gz").read_bytes()
    members = nifti._tiled_members(blob)
    assert members is not None and len(members) == 2
    assert read_nifti(tmp_path / "z.nii.gz").voxels.tobytes() == vox.tobytes()
