"""Minimal single-file NIfTI-1 volume IO.

Writes and reads the strict subset this toolkit needs: a 348-byte header,
a 4-byte extender, and a raw little-endian voxel payload starting at byte
352.  Exactly two datatypes are supported, float32 for scalar fields and
uint8 for masks and other unit-domain data (quantised to 0..255).  dim[0]
is always 3 and the magic is ``n+1\\0`` even though header and payload
share the file.

Anything else (big-endian files, other datatypes, 4-D data, intensity
scaling through an scl_slope other than 0 or 1 or a nonzero scl_inter) is
out of scope and rejected loudly rather than half supported.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import DOMAINS, UNBOUNDED, UNIT, DomainError, Volume, _write_atomic

HEADER_SIZE = 348
DATA_OFFSET = 352
MAGIC = b"n+1\x00"
DT_UINT8 = 2
DT_FLOAT32 = 16
_DTYPES = {"float32": (DT_FLOAT32, 32), "uint8": (DT_UINT8, 8)}
_CODES = {DT_FLOAT32: "float32", DT_UINT8: "uint8"}


class NiftiError(ValueError):
    """A malformed or unsupported file; ``field`` names the offending part and ``message`` its fault."""

    def __init__(self, field: str, message: str) -> None:
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    datatype: str


def _pack_header(header: VolumeHeader) -> bytes:
    code, bitpix = _DTYPES[header.datatype]
    w, h, d = header.dims
    if max(w, h, d) > 32767:
        raise NiftiError("dim", f"NIfTI-1 stores dims as int16, so none may exceed 32767, got {(w, h, d)}")
    with np.errstate(over="ignore"):
        sx, sy, sz = (float(s) for s in np.asarray(header.spacing, dtype=np.float32))
    if any(not np.isfinite(s) or s <= 0.0 for s in (sx, sy, sz)):
        raise NiftiError("pixdim", f"spacing {header.spacing} is {(sx, sy, sz)} in float32, not positive and finite")
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)          # sizeof_hdr
    struct.pack_into("<8h", buf, 40, 3, w, h, d, 1, 1, 1, 1)  # dim
    struct.pack_into("<h", buf, 70, code)                # datatype
    struct.pack_into("<h", buf, 72, bitpix)              # bitpix
    struct.pack_into("<8f", buf, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)  # pixdim
    struct.pack_into("<f", buf, 108, float(DATA_OFFSET))  # vox_offset
    struct.pack_into("<f", buf, 112, 1.0)                # scl_slope
    struct.pack_into("<f", buf, 116, 0.0)                # scl_inter
    struct.pack_into("<b", buf, 123, 2)                  # xyzt_units: mm
    buf[344:348] = MAGIC
    return bytes(buf)


def _unpack_header(raw: bytes) -> VolumeHeader:
    if len(raw) < HEADER_SIZE:
        raise NiftiError("sizeof_hdr", f"file too short for a header ({len(raw)} bytes)")
    size = struct.unpack_from("<i", raw, 0)[0]
    if size != HEADER_SIZE:
        raise NiftiError("sizeof_hdr", f"expected {HEADER_SIZE}, got {size} (big-endian or not NIfTI-1)")
    if raw[344:348] != MAGIC:
        raise NiftiError("magic", f"expected {MAGIC!r}, got {raw[344:348]!r}")
    dim = struct.unpack_from("<8h", raw, 40)
    if dim[0] != 3:
        raise NiftiError("dim[0]", f"only 3-D volumes are supported, got {dim[0]}")
    w, h, d = dim[1], dim[2], dim[3]
    if min(w, h, d) < 1:
        raise NiftiError("dim", f"dims must be positive, got {(w, h, d)}")
    code = struct.unpack_from("<h", raw, 70)[0]
    if code not in _CODES:
        raise NiftiError("datatype", f"unsupported code {code} (only float32={DT_FLOAT32}, uint8={DT_UINT8})")
    datatype = _CODES[code]
    bitpix = struct.unpack_from("<h", raw, 72)[0]
    if bitpix != _DTYPES[datatype][1]:
        raise NiftiError("bitpix", f"expected {_DTYPES[datatype][1]} for {datatype}, got {bitpix}")
    pixdim = struct.unpack_from("<8f", raw, 76)
    spacing = (float(pixdim[1]), float(pixdim[2]), float(pixdim[3]))
    if any(not np.isfinite(s) or s <= 0.0 for s in spacing):
        raise NiftiError("pixdim", f"spacing must be positive, got {spacing}")
    vox_offset = struct.unpack_from("<f", raw, 108)[0]
    if vox_offset != float(DATA_OFFSET):
        raise NiftiError("vox_offset", f"expected {DATA_OFFSET}, got {vox_offset}")
    slope = struct.unpack_from("<f", raw, 112)[0]
    if slope not in (0.0, 1.0):  # 0 means "no scaling" in NIfTI-1; NaN fails too
        raise NiftiError("scl_slope", f"scaled data is unsupported: slope must be 0 or 1, got {slope}")
    inter = struct.unpack_from("<f", raw, 116)[0]
    if inter != 0.0:
        raise NiftiError("scl_inter", f"scaled data is unsupported: intercept must be 0, got {inter}")
    return VolumeHeader(dims=(w, h, d), spacing=spacing, datatype=datatype)


def write_volume(path: str | Path, v: Volume, datatype: str = "float32") -> VolumeHeader:
    """Serialise ``v``; returns the header that was written.

    float32 stores values as-is (they must be exactly representable ones if
    a bitwise round trip is expected); a value beyond float32's range is
    rejected, as :func:`read_volume` would reject the ``inf`` it becomes.
    uint8 requires the unit domain and quantises by round-half-up to 0..255.  The file is written atomically by
    :func:`ribfill.grid._write_atomic`, so a failed or interrupted write
    leaves the previous file whole.
    """
    if datatype not in _DTYPES:
        raise NiftiError("datatype", f"unsupported datatype {datatype!r}")
    if datatype == "uint8":
        if v.domain != UNIT:
            raise DomainError("uint8 output needs a unit-domain volume")
        payload = np.floor(v.data * 255.0 + 0.5).astype(np.uint8)
    else:
        with np.errstate(over="ignore"):
            payload = v.data.astype("<f4")
        if not np.isfinite(payload).all():
            raise NiftiError("data", "a value is beyond float32's range, so it would be stored as inf")
    header = VolumeHeader(dims=v.dims, spacing=v.spacing, datatype=datatype)
    raw = _pack_header(header)  # a bad header raises here, before any file is made or touched
    _write_atomic(path, raw + b"\x00\x00\x00\x00" + payload.tobytes())
    return header


def read_volume(path: str | Path, domain: str | None = None) -> tuple[Volume, VolumeHeader]:
    """Read a volume written by :func:`write_volume`.

    uint8 payloads come back as values/255 in the unit domain; float32
    payloads default to the unbounded domain unless the caller declares
    otherwise via ``domain`` (declaring ``unit`` for out-of-range data
    fails the usual construction check).  Every :class:`NiftiError` it
    raises ends its message with the file's path.
    """
    raw = Path(path).read_bytes()
    try:
        header = _unpack_header(raw)
        w, h, d = header.dims
        itemsize = 1 if header.datatype == "uint8" else 4
        need = w * h * d * itemsize
        payload = raw[DATA_OFFSET:]
        if len(payload) < need:
            raise NiftiError("data", f"payload truncated: need {need} bytes, have {len(payload)}")
        if len(payload) > need:
            raise NiftiError("data", f"payload oversized: need {need} bytes, have {len(payload)}")
        if header.datatype == "uint8":
            arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
            dom = UNIT if domain is None else domain
        else:
            arr = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            if not np.isfinite(arr).all():
                raise NiftiError("data", "payload holds a non-finite value")
            dom = UNBOUNDED if domain is None else domain
    except NiftiError as exc:
        raise NiftiError(exc.field, f"{exc.message} in {path}") from None
    if dom not in DOMAINS:
        raise DomainError(f"unknown value domain {dom!r}")
    arr = arr.reshape(d, h, w)
    return Volume(arr, header.spacing, dom), header
