"""Overlap and surface-distance metrics, each with a brute-force oracle.

The distance machinery is an exact separable squared Euclidean distance
transform: one min-plus pass per axis, ``d[i] = min_v f[v] + w*(i - v)^2``
with ``w`` that axis' spacing squared, composed x then y then z.  Each term
is the same rounded product the naive all-pairs scan forms, and rounded
addition is monotone, so taking the minimum axis by axis commutes with the
later sums: the result equals the scan's all-pairs minimum bit for bit, at
any spacing.  The oracles here are kept deliberately naive so tests can
hold the fast path to that.

Empty masks have no surface, so Hausdorff distances on them raise instead
of returning a sentinel that could slip through an aggregation unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mask, ShapeError

_FAR = 1e30  # finite "no mask voxel here" sentinel; dwarfs any real distance
_MINPLUS_BYTES = 32 << 20  # budget for one (rows, n, n) min-plus block of an EDT pass


class EmptyMaskError(ValueError):
    """A surface metric was asked about a mask with no voxels; ``case`` is the evaluated case's index, if known."""

    def __init__(self, message: str, case: int | None = None) -> None:
        super().__init__(message)
        self.case = case


@dataclass(frozen=True)
class MetricReport:
    """Overlap plus surface distances for one predicted/truth mask pair."""

    dsc: float
    hd: float       # symmetric Hausdorff, mm
    hd_ab: float    # directed a -> b, mm
    hd_ba: float    # directed b -> a, mm
    n_a: int
    n_b: int


def _check_masks(a: Mask, b: Mask, need_spacing: bool = False) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"dims mismatch: {a.dims} vs {b.dims}")
    if need_spacing and a.spacing != b.spacing:
        raise ShapeError(f"spacing mismatch: {a.spacing} vs {b.spacing}")


def dsc(a: Mask, b: Mask) -> float:
    """Dice coefficient; two empty masks agree perfectly (1.0)."""
    _check_masks(a, b)
    fa = a.data != 0.0
    fb = b.data != 0.0
    na = int(fa.sum())
    nb = int(fb.sum())
    if na + nb == 0:
        return 1.0
    inter = int((fa & fb).sum())
    return 2.0 * inter / (na + nb)


# ---------------------------------------------------------------------------
# exact separable squared EDT


def _edt_pass(arr: np.ndarray, axis: int, w: float) -> np.ndarray:
    """d[..., i] = min_v f[..., v] + w*(i - v)^2 along ``axis``, rows in blocks."""
    moved = np.moveaxis(arr, axis, -1)
    n = moved.shape[-1]
    flat = moved.reshape(-1, n)
    off = np.arange(n)
    cost = w * ((off[:, None] - off) * (off[:, None] - off))  # cost[i, v]
    out = np.empty(flat.shape)
    rows = max(1, _MINPLUS_BYTES // (8 * n * n))
    for r0 in range(0, flat.shape[0], rows):
        out[r0 : r0 + rows] = (flat[r0 : r0 + rows, None, :] + cost).min(axis=-1)
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def edt_sq(mask: Mask) -> np.ndarray:
    """Squared distance (mm^2) from every voxel to the nearest mask voxel."""
    fg = mask.data != 0.0
    if not fg.any():
        raise EmptyMaskError("distance transform of an empty mask")
    sx, sy, sz = mask.spacing
    f = np.where(fg, 0.0, _FAR)
    f = _edt_pass(f, 2, sx * sx)
    f = _edt_pass(f, 1, sy * sy)
    f = _edt_pass(f, 0, sz * sz)
    return np.ascontiguousarray(f)


def brute_force_edt_sq(mask: Mask) -> np.ndarray:
    """All-pairs reference for :func:`edt_sq`; O(voxels * mask size)."""
    fg = np.argwhere(mask.data != 0.0)
    if fg.size == 0:
        raise EmptyMaskError("distance transform of an empty mask")
    sx, sy, sz = mask.spacing
    d, h, w = mask.data.shape
    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(h), np.arange(w), indexing="ij")
    pts = np.stack([zz.ravel(), yy.ravel(), xx.ravel()], axis=1).astype(np.float64)
    out = np.full(pts.shape[0], np.inf)
    fgf = fg.astype(np.float64)
    for i0 in range(0, fgf.shape[0], 64):
        blk = fgf[i0 : i0 + 64]
        dx = pts[:, None, 2] - blk[None, :, 2]
        dy = pts[:, None, 1] - blk[None, :, 1]
        dz = pts[:, None, 0] - blk[None, :, 0]
        d2 = dx * dx * (sx * sx)
        d2 += dy * dy * (sy * sy)
        d2 += dz * dz * (sz * sz)
        np.minimum(out, d2.min(axis=1), out=out)
    return out.reshape(d, h, w)


# ---------------------------------------------------------------------------
# Hausdorff distances


def _directed_sq(a: Mask, b: Mask) -> np.ndarray:
    """Squared distance from each of a's voxels to the nearest b voxel."""
    _check_masks(a, b, need_spacing=True)
    fa = a.data != 0.0
    if not fa.any():
        raise EmptyMaskError("directed Hausdorff from an empty mask")
    return edt_sq(b)[fa]


def directed_hausdorff_sq(a: Mask, b: Mask) -> float:
    """max over a's voxels of the squared distance to the nearest b voxel."""
    return float(_directed_sq(a, b).max())


def _check_percentile(percentile: float) -> None:
    if not 0.0 < percentile <= 100.0:
        raise ShapeError(f"percentile must be in (0, 100], got {percentile}")


def directed_hausdorff(a: Mask, b: Mask, percentile: float = 100.0) -> float:
    """Directed Hausdorff in mm; ``percentile`` < 100 gives the robust variant."""
    _check_percentile(percentile)
    dists = np.sqrt(_directed_sq(a, b))
    if percentile == 100.0:
        return float(dists.max())
    return float(np.percentile(dists, percentile))


def hausdorff(a: Mask, b: Mask, percentile: float = 100.0) -> float:
    """Symmetric Hausdorff in mm: max of the two directed distances."""
    return max(directed_hausdorff(a, b, percentile), directed_hausdorff(b, a, percentile))


def brute_force_hausdorff_sq(a: Mask, b: Mask) -> tuple[float, float]:
    """Naive (directed a->b, directed b->a) squared distances, all pairs."""
    _check_masks(a, b, need_spacing=True)
    ca = np.argwhere(a.data != 0.0).astype(np.float64)
    cb = np.argwhere(b.data != 0.0).astype(np.float64)
    if ca.size == 0 or cb.size == 0:
        raise EmptyMaskError("Hausdorff with an empty mask")
    sx, sy, sz = a.spacing
    dx = ca[:, None, 2] - cb[None, :, 2]
    dy = ca[:, None, 1] - cb[None, :, 1]
    dz = ca[:, None, 0] - cb[None, :, 0]
    d2 = dx * dx * (sx * sx)
    d2 += dy * dy * (sy * sy)
    d2 += dz * dz * (sz * sz)
    return float(d2.min(axis=1).max()), float(d2.min(axis=0).max())


def metric_report(pred: Mask, truth: Mask, percentile: float = 100.0) -> MetricReport:
    """DSC plus Hausdorff distances for one pair, as written to eval CSVs."""
    hd_ab = directed_hausdorff(pred, truth, percentile)
    hd_ba = directed_hausdorff(truth, pred, percentile)
    return MetricReport(
        dsc=dsc(pred, truth),
        hd=max(hd_ab, hd_ba),
        hd_ab=hd_ab,
        hd_ba=hd_ba,
        n_a=int(np.count_nonzero(pred.data)),
        n_b=int(np.count_nonzero(truth.data)),
    )
