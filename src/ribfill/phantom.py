"""Synthetic thorax CT volumes for desk-scale experiments.

The phantom is deliberately cartoonish but has the right topology for
rib-repair work: an elliptic soft-tissue torso in air, a posterior spine
column, an anterior sternum bar, and mirrored left/right rib pairs.  Each
rib is a tube of constant radius around a half-ellipse arc lying in an
axial plane.  Voxels take exactly three HU levels (air, soft tissue,
bone), so a single threshold recovers the bone stencil.

Randomness is confined to small per-rib jitter of the arc axes and height,
drawn from a seeded generator; jitter 0 gives a bitwise left/right
symmetric volume because the left ribs are produced by mirroring the
rasterised right-side tubes, never by re-deriving mirrored coordinates.

A tube is rasterised from the squared distance of each pixel to the arc's
samples.  Each sample scores only its own square of pixels, the
``ceil(2r + 2) + 2`` pixels a side from ``floor(p - r - 1)``, which holds
every pixel within ``r + 1`` of it; one scatter-min writes all squares into
the tube's window.  That is exact, not an approximation.  A pixel within
``r`` of its nearest sample lies in that sample's square and gets the same
minimum from the same terms; a pixel farther than ``r`` from every sample
fails the disc test on every plane whatever partial minimum it holds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grid import HU, Volume

_TORSO_FRAC = (0.42, 0.38)   # torso semi-axes as fractions of W, H
_RIB_FRAC = 0.88             # rib arc semi-axes as a fraction of the torso's
_RIB_BAND = (0.14, 0.86)     # z placement band for rib-pair centres, of D-1
_SPINE_RADIUS = 2.0          # spine cylinder radius, in rib radii
_STERNUM_HALF_W = 2.0        # sternum half-width, in rib radii
_STERNUM_HALF_T = 1.2        # sternum half-thickness, in rib radii
_STERNUM_BAND = (0.35, 0.92)  # sternum z extent, of D-1
_ARC_STEP = 0.35             # curve sampling step along the arc, voxels
_TERMS_BYTES = 1 << 18       # bytes of distance terms per scatter-min, or one square's if more


class GeometryError(ValueError):
    """Raised when the requested phantom cannot fit its grid."""


@dataclass(frozen=True)
class PhantomSpec:
    """Knobs for one phantom; all lengths are in voxels of the native grid."""

    dims: tuple[int, int, int] = (96, 96, 48)
    spacing: tuple[float, float, float] = (4.0, 4.0, 8.0)
    rib_pairs: int = 12
    rib_radius: float = 1.4
    jitter: float = 0.5
    seed: int = 0
    hu_air: float = -1000.0
    hu_soft: float = 40.0
    hu_bone: float = 700.0


def _validate(spec: PhantomSpec) -> tuple[float, float]:
    try:
        w, h, d = (operator.index(n) for n in spec.dims)
    except (TypeError, ValueError):
        raise GeometryError(f"dims must be three integers, got {spec.dims!r}") from None
    for field in ("rib_pairs", "seed"):
        try:
            operator.index(getattr(spec, field))
        except TypeError:
            raise GeometryError(f"{field} must be an integer, got {getattr(spec, field)!r}") from None
    if spec.seed < 0:
        raise GeometryError(f"seed must be non-negative, got {spec.seed}")
    try:
        spacing = [float(s) for s in spec.spacing]
    except (TypeError, ValueError):
        spacing = []
    if len(spacing) != 3 or not all(0.0 < s < math.inf for s in spacing):
        raise GeometryError(f"spacing must be three positive finite values, got {spec.spacing!r}")
    for field in ("hu_air", "hu_soft", "hu_bone"):
        if not math.isfinite(getattr(spec, field)):
            raise GeometryError(f"{field} must be finite, got {getattr(spec, field)}")
    if spec.rib_pairs < 1:
        raise GeometryError(f"need at least one rib pair, got {spec.rib_pairs}")
    # written as "not (valid)" so that NaN, which fails every comparison, is rejected
    if not spec.rib_radius > 0.0:
        raise GeometryError(f"rib radius must be positive, got {spec.rib_radius}")
    if not 0.0 <= spec.jitter < math.inf:
        raise GeometryError(f"jitter must be non-negative and finite, got {spec.jitter}")
    a = _TORSO_FRAC[0] * w
    b = _TORSO_FRAC[1] * h
    r = spec.rib_radius
    if a - r - 0.5 < 2.0 or b - r - 0.5 < 2.0:
        raise GeometryError(
            f"dims {spec.dims} too small for rib radius {r}: torso semi-axes ({a:.1f}, {b:.1f})"
        )
    if d < 2.0 * r + 4.0:
        raise GeometryError(f"height {d} too small for rib radius {r}")
    return a, b


def _reach(p: np.ndarray, r: float, n: int) -> tuple[int, int]:
    """First and last index on a grid axis of length ``n`` within ``r + 1`` of the samples ``p``."""
    return max(0, int(math.floor(p.min() - r - 1.0))), min(n - 1, int(math.ceil(p.max() + r + 1.0)))


def _rasterize_tube(
    bone: np.ndarray, a: float, b: float, zc: float, r: float, cx: float, cy: float, mirror: bool
) -> None:
    """OR one rib tube into ``bone``; ``mirror`` flips it to the left side.

    ``d2`` is the squared distance to the nearest sample whose square holds
    the pixel.  The squares are scatter-min'd, a group of samples at a time,
    into a flat window that spans every square and the tube's reach, so no
    index needs a mask; ``d2`` is that window cropped to the reach.  A pixel
    within ``r`` of its nearest sample gets the exact minimum from that
    sample's square; any other fails every disc test
    ``d2 <= r*r - (z - zc)**2`` whatever value it holds.  One comparison
    tests every plane of the tube at once, and one OR writes them.
    """
    dz, hy, wx = bone.shape
    m = max(16, int(math.ceil(math.pi * max(a, b) / _ARC_STEP)) + 1)
    t = np.linspace(0.0, math.pi, m)
    px = cx + a * np.sin(t)
    py = cy - b * np.cos(t)

    x0, x1 = _reach(px, r, wx)
    y0, y1 = _reach(py, r, hy)
    z_lo = max(0, int(math.ceil(zc - r)))
    z_hi = min(dz - 1, int(math.floor(zc + r)))
    if x1 < x0 or y1 < y0 or z_hi < z_lo:
        return
    n = int(math.ceil(2.0 * r + 2.0)) + 2
    k = np.arange(n)
    sx = np.floor(px - r - 1.0).astype(np.intp)
    sy = np.floor(py - r - 1.0).astype(np.intp)
    ox, oy = int(sx.min()), int(sy.min())
    cols = max(int(sx.max()) + n, x1 + 1) - ox
    rows = max(int(sy.max()) + n, y1 + 1) - oy
    dx2 = (sx[:, None] + k - px[:, None]) ** 2
    dy2 = (sy[:, None] + k - py[:, None]) ** 2
    corner = (sy - oy) * cols + (sx - ox)
    square = (k[:, None] * cols + k).ravel()
    pad = np.full(rows * cols, np.inf)
    g = max(1, _TERMS_BYTES // (8 * n * n))
    for s in (slice(i, i + g) for i in range(0, m, g)):
        np.minimum.at(pad, (corner[s, None] + square).ravel(), (dy2[s, :, None] + dx2[s, None, :]).ravel())
    d2 = pad.reshape(rows, cols)[y0 - oy : y1 - oy + 1, x0 - ox : x1 - ox + 1]

    # a plane whose rad2 rounds below 0 gets an all-false disc, since every d2 is >= 0
    rad2 = np.array([r * r - (z - zc) ** 2 for z in range(z_lo, z_hi + 1)])
    disc = d2 <= rad2[:, None, None]
    if mirror:
        bone[z_lo : z_hi + 1, y0 : y1 + 1, wx - 1 - x1 : wx - x0] |= disc[:, :, ::-1]
    else:
        bone[z_lo : z_hi + 1, y0 : y1 + 1, x0 : x1 + 1] |= disc


def _bone_stencil(spec: PhantomSpec) -> np.ndarray:
    """Bool (z, y, x) array of everything that will be painted as bone."""
    a_t, b_t = _validate(spec)
    w, h, d = spec.dims
    r = spec.rib_radius
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    a_rib = _RIB_FRAC * a_t
    b_rib = _RIB_FRAC * b_t

    rng = np.random.default_rng(spec.seed)
    offsets = rng.uniform(-1.0, 1.0, size=(spec.rib_pairs, 2, 3)) * spec.jitter

    z_lo = _RIB_BAND[0] * (d - 1)
    z_hi = _RIB_BAND[1] * (d - 1)
    bone = np.zeros((d, h, w), dtype=bool)
    for k in range(spec.rib_pairs):
        if spec.rib_pairs == 1:
            z_k = 0.5 * (z_lo + z_hi)
        else:
            z_k = z_lo + (z_hi - z_lo) * k / (spec.rib_pairs - 1)
        for side, mirror in ((0, False), (1, True)):
            da, db, dzk = offsets[k, side]
            a = min(max(a_rib + da, 2.0), a_t - r - 0.5)
            b = min(max(b_rib + db, 2.0), b_t - r - 0.5)
            zc = min(max(z_k + dzk, r), (d - 1) - r)
            _rasterize_tube(bone, a, b, zc, r, cx, cy, mirror)

    xg = np.arange(w, dtype=np.float64) - cx
    yg = np.arange(h, dtype=np.float64) - cy

    r_sp = _SPINE_RADIUS * r
    y_sp = -_RIB_FRAC * b_t
    spine_xy = (xg[None, :] ** 2 + (yg[:, None] - y_sp) ** 2) <= r_sp * r_sp
    sp_lo = max(0, int(round(z_lo - r)))
    sp_hi = min(d - 1, int(round(z_hi + r)))
    bone[sp_lo : sp_hi + 1] |= spine_xy[None, :, :]

    y_st = _RIB_FRAC * b_t
    stern_xy = (np.abs(xg)[None, :] <= _STERNUM_HALF_W * r) & (
        np.abs(yg[:, None] - y_st) <= _STERNUM_HALF_T * r
    )
    st_lo = int(round(_STERNUM_BAND[0] * (d - 1)))
    st_hi = int(round(_STERNUM_BAND[1] * (d - 1)))
    bone[st_lo : st_hi + 1] |= stern_xy[None, :, :]
    return bone


def generate_phantom(spec: PhantomSpec = PhantomSpec()) -> Volume:
    """Render one phantom as an HU-domain volume."""
    a_t, b_t = _validate(spec)
    w, h, d = spec.dims
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    xg = (np.arange(w, dtype=np.float64) - cx) / a_t
    yg = (np.arange(h, dtype=np.float64) - cy) / b_t
    torso_xy = (xg[None, :] ** 2 + yg[:, None] ** 2) <= 1.0

    vol = np.empty((d, h, w), dtype=np.float64)
    vol[...] = np.where(torso_xy, spec.hu_soft, spec.hu_air)
    np.copyto(vol, spec.hu_bone, where=_bone_stencil(spec))
    return Volume(vol, spec.spacing, HU)
