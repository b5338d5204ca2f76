"""Minimal NIfTI-1 reader and writer.

Supports the subset this toolkit needs: single-file little-endian
volumes (magic "n+1\\0"), datatypes uint8/int16/float32, a single frame,
optional gzip compression chosen by the ".gz" suffix. scl_slope and
scl_inter are applied on read when the slope is nonzero. Orientation
and affine header fields are carried through untouched and never
interpreted. Scans are written as float32 and masks as uint8, gzipped at
deflate level 1.

Voxel arrays come out of the reader in disk order ([x, y, z] indexing
over x-fastest memory, i.e. Fortran order), and the writer copies
nothing for an array in that order. A float32 scan's voxels are a view
on the buffer its file was inflated into, so a read holds them once.

A malformed file raises NiftiError; its ``code`` is one of bad_gzip
(truncated, corrupt or junk-trailed gzip stream), bad_header, bad_magic,
bad_datatype, bad_dims, truncated (fewer bytes than the header or voxel
data needs) or non_finite (a NaN or infinite voxel).
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import NiftiError
from .util import atomic_open
from .volume import MaskVolume, Volume

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

# field offsets in the 348-byte header
_OFF_SIZEOF_HDR = 0
_OFF_DIM = 40
_OFF_DATATYPE = 70
_OFF_BITPIX = 72
_OFF_PIXDIM = 76
_OFF_VOX_OFFSET = 108
_OFF_SCL_SLOPE = 112   # scl_slope, then scl_inter
_OFF_AFFINE = 252   # qform_code .. srow_z, passed through opaquely
_END_AFFINE = 328
_OFF_MAGIC = 344

_DTYPES = {2: np.dtype("u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}

# deflate level for .nii.gz output: on a 240x240x155 scan level 1 writes
# about 13x faster than level 9 for files about 20 % larger
GZIP_LEVEL = 1


# compressed bytes inflated per zlib call. Small pieces let a scan's
# decompressed bytes grow in one buffer; one call for the whole stream
# would hold them twice, as zlib's pieces and then joined. A 240x240x155
# float32 scan (34 MiB of voxels) then reads at a 55 MiB traced peak.
_INFLATE_CHUNK = 1 << 16


def _read_bytes(path: Path) -> bytearray:
    """The file's bytes, decompressed when the name ends .gz, in a writable
    buffer that the voxel array can use without a copy.

    Reads as the gzip module does: members concatenated, zero padding
    after a member skipped. Raises NiftiError bad_gzip on a truncated,
    corrupt or junk-trailed stream.
    """
    data = path.read_bytes()
    if not str(path).endswith(".gz"):
        return bytearray(data)
    out = bytearray()
    rest = memoryview(data)
    try:
        while rest:
            inflater = zlib.decompressobj(wbits=31)   # 31: gzip header and trailer
            while rest and not inflater.eof:
                out += inflater.decompress(rest[:_INFLATE_CHUNK])
                rest = rest[_INFLATE_CHUNK:]
            if not inflater.eof:
                raise NiftiError("bad_gzip", f"{path}: compressed stream ends before its last member does")
            rest = memoryview((inflater.unused_data + rest).lstrip(b"\x00"))
    except zlib.error as exc:
        raise NiftiError("bad_gzip", f"{path}: not a valid gzip stream ({exc})") from exc
    return out


def _read_stored(path: Path):
    """Parse one file: the raw bytes, the voxels as stored in [x, y, z]
    order (a writable view on the bytes), and scl_slope and scl_inter.

    Raises NiftiError with code bad_gzip, bad_header, bad_magic,
    bad_datatype, bad_dims or truncated.
    """
    raw = _read_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise NiftiError("truncated", f"{path} holds {len(raw)} bytes, header needs {HEADER_SIZE}")
    (sizeof_hdr,) = struct.unpack_from("<i", raw, _OFF_SIZEOF_HDR)
    if sizeof_hdr != HEADER_SIZE:
        raise NiftiError("bad_header", f"{path}: sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}")
    magic = bytes(raw[_OFF_MAGIC:_OFF_MAGIC + 4])
    if magic != MAGIC:
        raise NiftiError("bad_magic", f"{path}: magic {magic!r}, expected {MAGIC!r}")
    dim = struct.unpack_from("<8h", raw, _OFF_DIM)
    nd = dim[0]
    if nd < 3 or nd > 7:
        raise NiftiError("bad_dims", f"{path}: dim[0] is {nd}, need a 3-D volume")
    if any(dim[i + 1] != 1 for i in range(3, nd)):
        raise NiftiError("bad_dims", f"{path}: trailing dims {dim[4:nd + 1]} are not all 1")
    dx, dy, dz = dim[1], dim[2], dim[3]
    if min(dx, dy, dz) < 1:
        raise NiftiError("bad_dims", f"{path}: non-positive extents {(dx, dy, dz)}")
    (datatype,) = struct.unpack_from("<h", raw, _OFF_DATATYPE)
    if datatype not in _DTYPES:
        raise NiftiError("bad_datatype", f"{path}: datatype code {datatype} not supported")
    (vox_offset,) = struct.unpack_from("<f", raw, _OFF_VOX_OFFSET)
    # 0 is how some writers leave it; voxels then follow the 4 extension-flag bytes
    offset = VOX_OFFSET if vox_offset == 0 else vox_offset
    if not (np.isfinite(offset) and offset >= VOX_OFFSET and offset == int(offset)):
        raise NiftiError("bad_header", f"{path}: vox_offset is {vox_offset}, "
                                       f"not 0 or a whole number of bytes from {VOX_OFFSET}")
    offset = int(offset)
    slope, inter = struct.unpack_from("<2f", raw, _OFF_SCL_SLOPE)

    dtype = _DTYPES[datatype]
    count = dx * dy * dz
    need = offset + count * dtype.itemsize
    if len(raw) < need:
        raise NiftiError("truncated", f"{path} holds {len(raw)} bytes, voxel data needs {need}")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return raw, flat.reshape(dz, dy, dx).transpose(2, 1, 0), slope, inter


def _scaled(path: Path, stored: np.ndarray, slope: float, inter: float) -> np.ndarray:
    """Stored voxels as float32 with scl_slope and scl_inter applied.

    Float32 voxels are used in place, on the buffer they were read into;
    other types are converted to a new array. Raises NiftiError non_finite
    on a NaN or infinite voxel, which would poison normalization and every
    loss downstream.
    """
    voxels = stored.astype(np.float32, copy=False)
    if slope != 0.0:
        voxels *= np.float32(slope)
        voxels += np.float32(inter)
    finite = np.isfinite(voxels)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise NiftiError("non_finite", f"{path}: {bad} voxel(s) are NaN or infinite")
    return voxels


def read_nifti(path) -> Volume:
    """Parse one scan into a Volume.

    Raises NiftiError with code bad_gzip, bad_header, bad_magic,
    bad_datatype, bad_dims, truncated, or non_finite.
    """
    path = Path(path)
    raw, stored, slope, inter = _read_stored(path)
    return Volume(_scaled(path, stored, slope, inter), affine_bytes=bytes(raw[_OFF_AFFINE:_END_AFFINE]))


def read_nifti_mask(path, role: str) -> MaskVolume:
    """Read a binary mask; any voxel whose scaled value is above 0.5 counts as set.

    Unscaled integer voxels, as this package writes them, go straight to
    bits: for an integer, v > 0.5 is v > 0. Float voxels (masks written by
    older versions) and scaled ones go through the float32 scan path, so
    the threshold and the non_finite check are exactly read_nifti's.
    """
    path = Path(path)
    _, stored, slope, inter = _read_stored(path)
    if stored.dtype.kind in "iu" and (slope == 0.0 or (slope == 1.0 and inter == 0.0)):
        return MaskVolume(stored > 0, role=role)
    return MaskVolume(_scaled(path, stored, slope, inter) > 0.5, role=role)


def write_nifti(volume: Volume, path) -> None:
    """Serialize as float32 with identity scaling; gzip when path ends .gz."""
    _write(path, volume.voxels, 16, volume.affine_bytes)


def write_nifti_mask(mask: MaskVolume, path) -> None:
    """Serialize as uint8 0/1 voxels; gzip when path ends .gz."""
    _write(path, mask.bits.view(np.uint8), 2, None)   # a bool is one byte, 0 or 1


def _write(path, voxels: np.ndarray, datatype: int, affine_bytes: bytes | None) -> None:
    """Write [x, y, z] voxels as the given datatype, atomically."""
    dtype = _DTYPES[datatype]
    header = bytearray(VOX_OFFSET)  # the 348-byte header, then 4 zero extension bytes
    struct.pack_into("<i", header, _OFF_SIZEOF_HDR, HEADER_SIZE)
    dx, dy, dz = voxels.shape
    struct.pack_into("<8h", header, _OFF_DIM, 3, dx, dy, dz, 1, 1, 1, 1)
    struct.pack_into("<h", header, _OFF_DATATYPE, datatype)
    struct.pack_into("<h", header, _OFF_BITPIX, 8 * dtype.itemsize)
    struct.pack_into("<8f", header, _OFF_PIXDIM, 1, 1, 1, 1, 0, 0, 0, 0)
    struct.pack_into("<f", header, _OFF_VOX_OFFSET, VOX_OFFSET)
    struct.pack_into("<2f", header, _OFF_SCL_SLOPE, 1.0, 0.0)
    if affine_bytes is not None and len(affine_bytes) == _END_AFFINE - _OFF_AFFINE:
        header[_OFF_AFFINE:_END_AFFINE] = affine_bytes
    header[_OFF_MAGIC:_OFF_MAGIC + 4] = MAGIC
    # x fastest on disk: no copy for an array in disk (Fortran) order
    data = np.ascontiguousarray(voxels.transpose(2, 1, 0), dtype=dtype)

    with atomic_open(path, "wb") as out:
        if str(path).endswith(".gz"):
            # fileobj + fixed mtime: no filename or timestamp in the gzip header,
            # so identical volumes serialize to identical bytes anywhere
            with gzip.GzipFile(filename="", fileobj=out, mode="wb",
                               compresslevel=GZIP_LEVEL, mtime=0) as fh:
                fh.write(header)
                fh.write(data)
        else:
            out.write(header)
            out.write(data)
