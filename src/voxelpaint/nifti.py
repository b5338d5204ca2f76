"""Minimal NIfTI-1 reader and writer.

Supports the subset this toolkit needs: single-file little-endian
volumes (magic "n+1\\0"), datatypes uint8/int16/float32, a single frame,
optional gzip compression chosen by the ".gz" suffix. scl_slope and
scl_inter are applied on read when the slope is nonzero. Orientation
and affine header fields are carried through untouched and never
interpreted. Scans are written as float32 and masks as uint8; a .nii.gz
is a run of gzip members, each holding the next MEMBER bytes of the file
and naming its own length, deflated with zlib's run-length strategy
(GZIP_LEVEL). Members are deflated, and inflated, side by side on the
pool of ``util.concurrently``.
``encode_nifti`` and ``encode_nifti_mask`` give a file's bytes without
writing them, so a volume that several files hold is deflated once and
``write_encoded`` writes its bytes to each.

Voxel arrays come out of the reader in disk order ([x, y, z] indexing
over x-fastest memory, i.e. Fortran order), and the writer copies
nothing for an array in that order. A float32 scan's voxels are a view
on the buffer its file was read or inflated into, so a read holds them
once.

A malformed file raises NiftiError; its ``code`` is one of bad_gzip
(truncated, corrupt or junk-trailed gzip stream, or a member whose length
field is wrong), bad_header, bad_magic,
bad_datatype, bad_dims, truncated (fewer bytes than the header or voxel
data needs) or non_finite (a NaN or infinite voxel).
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from functools import partial
from pathlib import Path

import numpy as np

from .errors import NiftiError
from .util import atomic_open, concurrently
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

# Every .nii.gz is a run of gzip members (RFC 1952) laid out as BGZF lays
# out its blocks (Li et al., Bioinformatics 25(16), 2009): the header and
# voxel bytes cut into MEMBER-byte pieces, each one member. A member is the
# fixed header below (no name, mtime 0, XFL 4 for the fastest level, OS 255
# unknown, FLG.FEXTRA) whose one extra subfield, "VP", holds the member's
# total length in 4 bytes; a raw deflate stream with zlib's run-length
# strategy (Z_RLE), which matches only repeats of the previous byte; then
# the CRC-32 and length trailer. Any gzip reader decodes the members in
# turn; this one finds them by their length fields and inflates them side
# by side. The layout depends only on the file's length, so the bytes do
# not depend on the worker count. A skull-stripped scan is about 81 % zero
# background; Z_RLE deflated a 240x240x155 float32 scan in 143 ms against
# 186 ms through gzip.GzipFile at level 1, to a file 8 % larger, and every
# level from 1 to 9 gives the same stream (1 is the level XFL names). On 2
# CPUs, 9 members of 4 MiB wrote that scan in 95 ms against 145 as one
# member and read it in 65 ms against 96; 1 and 2 MiB members timed the
# same. At 4 MiB a 64^3 float32 scan is one member, deflated on the calling
# thread, and the 352-byte header always fits in the first member.
GZIP_LEVEL = 1
MEMBER = 1 << 22
_MEMBER_HEADER = bytes.fromhex("1f8b08040000000004ff" "0800" "5650" "0400")   # then the length
_HEADER_SIZE = len(_MEMBER_HEADER) + 4
_TRAILER_SIZE = 8


# compressed bytes inflated per zlib call. Small pieces let a member's
# decompressed bytes go straight to their place in one buffer; one call for
# the whole member would hold them twice, as zlib's output and then copied.
# A 240x240x155 float32 scan (34 MiB of voxels) then reads at a 47 MiB
# traced peak: its voxels, its 3 MiB file and the finiteness check's map.
_INFLATE_CHUNK = 1 << 16
_NONZERO = re.compile(rb"[^\x00]")   # the end of the zero padding after a gzip member


def _read_bytes(path: Path) -> bytearray:
    """The file's bytes, decompressed when the name ends .gz, in a writable
    buffer that the voxel array can use without a copy.

    A plain file is read straight into one buffer sized from its ``fstat``.
    A file this writer made, its members' length fields tiling it exactly,
    is inflated into one buffer sized from the members' ISIZE fields, its
    members side by side (``util.concurrently``). Any other gzip file reads
    as the gzip module reads it: members concatenated, zero padding after a
    member skipped. Raises NiftiError bad_gzip on a truncated, corrupt or
    junk-trailed stream, or a member whose length field is wrong.
    """
    if not str(path).endswith(".gz"):
        with open(path, "rb") as fh:
            out = bytearray(os.fstat(fh.fileno()).st_size)
            del out[fh.readinto(out):]   # a file that shrank since fstat
        return out
    data = path.read_bytes()
    try:
        members = _tiled_members(data)
        if members is None:
            out, pos = bytearray(), 0
            while pos < len(data):
                pos = _inflate_member(path, data, pos, out.extend)
                nonzero = _NONZERO.search(data, pos)
                pos = nonzero.start() if nonzero else len(data)
            return out
        out = bytearray(sum(size for _, size in members))
        view, at, calls = memoryview(out), 0, []
        for start, size in members:
            calls.append(partial(_inflate_into, path, data, start, view[at:at + size]))
            at += size
        concurrently(*calls)
    except zlib.error as exc:
        raise NiftiError("bad_gzip", f"{path}: not a valid gzip stream ({exc})") from exc
    return out


def _length_field(data: bytes, pos: int) -> int | None:
    """The length field of the member at ``data[pos]``, or None if its header is not this writer's."""
    if not data.startswith(_MEMBER_HEADER, pos) or pos + _HEADER_SIZE > len(data):
        return None
    return struct.unpack_from("<I", data, pos + len(_MEMBER_HEADER))[0]


def _tiled_members(data: bytes) -> list | None:
    """(start, ISIZE) of each member when the length fields step exactly
    from the start of the file to its end and no member holds more than
    MEMBER bytes; otherwise None."""
    members, pos = [], 0
    while pos < len(data):
        length = _length_field(data, pos)
        if length is None or length < _HEADER_SIZE + _TRAILER_SIZE or pos + length > len(data):
            return None
        (size,) = struct.unpack_from("<I", data, pos + length - 4)
        if size > MEMBER:
            return None
        members.append((pos, size))
        pos += length
    return members or None


def _inflate_member(path: Path, data: bytes, pos: int, sink) -> int:
    """Inflate the gzip member that starts at ``data[pos]``, handing its
    bytes to ``sink`` a piece at a time; return the offset just past it.

    zlib checks the member's CRC-32 and ISIZE. A member that carries a
    length field must end exactly where the field says.
    """
    start, length = pos, _length_field(data, pos)
    stop = len(data) if length is None else min(len(data), start + length)
    view, inflater = memoryview(data), zlib.decompressobj(wbits=31)   # 31: gzip header and trailer
    while not inflater.eof and pos < stop:
        piece = view[pos:pos + min(_INFLATE_CHUNK, stop - pos)]
        sink(inflater.decompress(piece))
        pos += len(piece)
    pos -= len(inflater.unused_data)   # back to the first byte after the member
    if not inflater.eof and stop == len(data):
        raise NiftiError("bad_gzip", f"{path}: compressed stream ends before its last member does")
    if not inflater.eof or (length is not None and pos != start + length):
        raise NiftiError("bad_gzip", f"{path}: the member at byte {start} does not end "
                                     f"where its length field says, {length} bytes on")
    return pos


def _inflate_into(path: Path, data: bytes, start: int, out: memoryview) -> None:
    """Inflate the member at ``data[start]`` into ``out``, which its ISIZE sized."""
    at = 0

    def fill(piece):
        nonlocal at
        if at + len(piece) > len(out):
            raise NiftiError("bad_gzip", f"{path}: the member at byte {start} inflates past its ISIZE")
        out[at:at + len(piece)] = piece
        at += len(piece)

    _inflate_member(path, data, start, fill)


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
    write_encoded(encode_nifti(volume, path), path)


def write_nifti_mask(mask: MaskVolume, path) -> None:
    """Serialize as uint8 0/1 voxels; gzip when path ends .gz."""
    write_encoded(encode_nifti_mask(mask, path), path)


def encode_nifti(volume: Volume, path) -> list:
    """The buffers, in order, that ``write_nifti(volume, path)`` writes."""
    return _encode(volume.voxels, 16, volume.affine_bytes, str(path).endswith(".gz"))


def encode_nifti_mask(mask: MaskVolume, path) -> list:
    """The buffers, in order, that ``write_nifti_mask(mask, path)`` writes."""
    return _encode(mask.bits.view(np.uint8), 2, None, str(path).endswith(".gz"))   # a bool is one byte


def write_encoded(buffers: list, path) -> None:
    """Write a file's buffers, as ``encode_nifti`` returns them, atomically."""
    with atomic_open(path, "wb") as out:
        for buffer in buffers:
            out.write(buffer)


def _encode(voxels: np.ndarray, datatype: int, affine_bytes: bytes | None, gz: bool) -> list:
    """[x, y, z] voxels as a file of the given datatype: the header and the
    voxels, or, with ``gz``, the gzip members that hold them."""
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
    if not gz:
        return [header, data]
    flat = data.reshape(-1).view(np.uint8)
    first = MEMBER - len(header)   # the header fills the start of the first member
    calls = [partial(_deflate_member, header, flat[:first])]
    calls += [partial(_deflate_member, flat[lo:lo + MEMBER]) for lo in range(first, flat.size, MEMBER)]
    return [buffer for member in concurrently(*calls) for buffer in member]


def _deflate_member(*pieces) -> list:
    """The buffers of one gzip member holding the pieces' bytes in turn: its
    header with the length field, the raw Z_RLE deflate stream, the trailer."""
    deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -15, 8, zlib.Z_RLE)   # -15: raw deflate
    body, crc = [deflate.compress(piece) for piece in pieces] + [deflate.flush()], 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    length = _HEADER_SIZE + sum(map(len, body)) + _TRAILER_SIZE
    return [_MEMBER_HEADER + struct.pack("<I", length), *body,
            struct.pack("<2I", crc, sum(map(len, pieces)))]
