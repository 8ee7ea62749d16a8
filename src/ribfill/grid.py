"""Dense voxel grids and the handful of operations everything else builds on.

A :class:`Volume` is a 3-D scalar field on a regular grid with per-axis
spacing in millimetres.  Arrays are stored ``(z, y, x)`` so that the C-order
flat layout runs x-fastest, which is also the on-disk payload order used by
:mod:`ribfill.nifti`.  Public dims are reported ``(W, H, D)``; the height
axis is z, i.e. array axis 0.

Volumes are immutable: the wrapped array is marked read-only at construction
and every operation returns a fresh instance.

Every artifact the toolkit writes (NIfTI volumes, manifests, checkpoints and
the CLI's CSVs) reaches disk through :func:`_write_atomic`, so a failed or
killed writer leaves the previous file whole, never a torn one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HU = "HU"
UNIT = "unit"
UNBOUNDED = "unbounded"
DOMAINS = (HU, UNIT, UNBOUNDED)


class ShapeError(ValueError):
    """Raised when array rank or grid dims do not match what an op needs."""


class DomainError(ValueError):
    """Raised when values fall outside the declared value domain."""


class BoundsError(ValueError):
    """Raised when a box reaches outside the grid it indexes."""


@dataclass(frozen=True, eq=False)
class Volume:
    """A scalar field on a regular grid.

    Parameters
    ----------
    data : ndarray
        3-D array, any numeric dtype; converted to float64 ``(z, y, x)``.
        The stored array is frozen; pass a copy if you need to keep writing
        to yours.
    spacing : (sx, sy, sz)
        Voxel edge lengths in mm, all finite and positive.
    domain : str
        One of ``HU``, ``unit``, ``unbounded``.  ``unit`` enforces values
        in [0, 1] at construction.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    domain: str = UNBOUNDED

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3-D array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"all dims must be at least 1, got shape {arr.shape}")
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        # a value in [0, 1] is finite, so a unit-domain array inside it skips the finiteness scan;
        # NaN fails both comparisons and an infinity the range, and those still get the error below
        in_unit = self.domain == UNIT and arr.min() >= 0.0 and arr.max() <= 1.0
        if not in_unit and not np.isfinite(arr).all():
            raise DomainError("volume contains non-finite values")
        sp = tuple(float(s) for s in self.spacing)
        if len(sp) != 3 or any(not np.isfinite(s) or s <= 0.0 for s in sp):
            raise DomainError(f"spacing must be three positive finite mm values, got {self.spacing}")
        if self.domain not in DOMAINS:
            raise DomainError(f"unknown value domain {self.domain!r}")
        if self.domain == UNIT and not in_unit:
            raise DomainError("unit-domain volume has values outside [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Grid extent as (W, H, D)."""
        d, h, w = self.data.shape
        return (w, h, d)

    def ravel(self) -> np.ndarray:
        """Canonical flat order: x fastest, then y, then z."""
        return self.data.reshape(-1)


@dataclass(frozen=True, eq=False)
class Mask(Volume):
    """A Volume whose every voxel is exactly 0.0 or 1.0 (unit domain)."""

    domain: str = UNIT

    def __post_init__(self) -> None:
        if self.domain != UNIT:
            raise DomainError("masks live in the unit domain")
        super().__post_init__()
        a = self.data
        if not ((a == 0.0) | (a == 1.0)).all():
            raise DomainError("mask values must be exactly 0 or 1")


@dataclass(frozen=True)
class Box:
    """Axis-aligned cuboid: integer origin (x, y, z) and size (w, h, d)."""

    origin: tuple[int, int, int]
    size: tuple[int, int, int]

    def __post_init__(self) -> None:
        o = tuple(int(v) for v in self.origin)
        s = tuple(int(v) for v in self.size)
        if len(o) != 3 or len(s) != 3:
            raise ShapeError("box origin and size must each have three components")
        if any(v < 0 for v in o):
            raise BoundsError(f"box origin must be non-negative, got {o}")
        if any(v <= 0 for v in s):
            raise BoundsError(f"box size must be positive, got {s}")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "size", s)

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        """(z, y, x) slice triple for indexing a volume array."""
        (x, y, z), (w, h, d) = self.origin, self.size
        return (slice(z, z + d), slice(y, y + h), slice(x, x + w))

    def fits(self, dims: tuple[int, int, int]) -> bool:
        return all(self.origin[i] + self.size[i] <= dims[i] for i in range(3))


# ---------------------------------------------------------------------------
# thresholding


def _finite_threshold(tau: float) -> float:
    """tau as a float; DomainError unless it is finite."""
    tau = float(tau)
    if not np.isfinite(tau):
        raise DomainError(f"threshold must be finite, got {tau}")
    return tau


def binarize(v: Volume, tau: float) -> Mask:
    """Threshold at ``tau``: voxels >= tau become 1, the rest 0."""
    return Mask((v.data >= _finite_threshold(tau)).astype(np.float64), v.spacing)


# ---------------------------------------------------------------------------
# resampling


def _resize_axis(arr: np.ndarray, axis: int, n_new: int) -> np.ndarray:
    n_old = arr.shape[axis]
    if n_new == n_old:
        return arr
    if n_old == 1:
        return arr.repeat(n_new, axis)
    if n_new == 1:
        pos = np.array([(n_old - 1) / 2.0])
    else:
        pos = np.arange(n_new, dtype=np.float64) * ((n_old - 1) / (n_new - 1))
    np.clip(pos, 0.0, float(n_old - 1), out=pos)
    lo = np.floor(pos).astype(np.intp)
    np.clip(lo, 0, n_old - 2, out=lo)
    f = pos - lo
    lo_rows = arr.take(lo, axis)
    out = arr.take(lo + 1, axis)
    # lo + f * (hi - lo), blended in place in the gathered hi rows
    out -= lo_rows
    out *= f.reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
    out += lo_rows
    # outputs landing exactly on an input sample copy it bit for bit; the
    # blend above does so on its own for f == 0 but not for the clamped
    # f == 1 at the top corner
    hit = np.flatnonzero(f == 1.0)
    if hit.size:
        out[(slice(None),) * axis + (hit,)] = arr.take(lo[hit] + 1, axis)
    return out


def trilinear_resize(v: Volume, dims: tuple[int, int, int]) -> Volume:
    """Separable corner-aligned linear resample to ``dims`` = (W', H', D').

    Endpoints map to endpoints, so constants are preserved exactly and the
    output range never leaves the input range.  A resample to the volume's
    own dims is a copy, bit for bit.  Spacing is rescaled by the dims ratio
    so physical extent is carried along.
    """
    w2, h2, d2 = (int(n) for n in dims)
    if min(w2, h2, d2) < 1:
        raise ShapeError(f"target dims must be positive, got {dims}")
    w1, h1, d1 = v.dims
    out = v.data
    out = _resize_axis(out, 2, w2)
    out = _resize_axis(out, 1, h2)
    out = _resize_axis(out, 0, d2)
    if out is v.data:
        out = out.copy()  # no axis changed; the data is finite, so a clip to its own range is a no-op
    else:
        np.clip(out, v.data.min(), v.data.max(), out=out)
    sx, sy, sz = v.spacing
    spacing = (sx * w1 / w2, sy * h1 / h2, sz * d1 / d2)
    return Volume(out, spacing, v.domain)


# ---------------------------------------------------------------------------
# cropping


def crop(v: Volume, box: Box) -> Volume:
    """Copy the sub-grid covered by ``box`` (same spacing and domain)."""
    if not box.fits(v.dims):
        raise BoundsError(f"box {box.origin}+{box.size} exceeds dims {v.dims}")
    out = v.data[box.slices].copy()
    if isinstance(v, Mask):
        return Mask(out, v.spacing)
    return Volume(out, v.spacing, v.domain)


# ---------------------------------------------------------------------------
# file output


def _write_atomic(path: str | Path, *parts: bytes | np.ndarray) -> None:
    """Replace the file at ``path`` with the concatenation of ``parts`` so that it is never seen half written.

    Each part is a bytes-like object (a C-contiguous array counts) and is
    written as it is, so no joined copy is made.  The bytes go to
    ``<name>.<pid>.tmp`` beside ``path``, are flushed and synced to disk and
    then renamed onto it.  A failed or interrupted write
    removes the temporary and leaves the previous file whole; only a killed
    process can leave the temporary behind, next to an intact target.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
