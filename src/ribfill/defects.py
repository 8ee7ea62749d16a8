"""From a CT volume to a training pair: bone stencil, cuboid defect, split.

The flow mirrors the intended clinical setting: threshold the CT to get the
bone stencil, bring it to the working grid, place a cuboid "defect" box whose
height sits in a band of the thorax, and split the stencil at that box into
the defective part (network input) and the removed part (regression target).
The box is the defect's only record.  The two halves always partition the
stencil exactly: the removed part is ``stencil`` inside the box and the
defective part is ``stencil`` outside it, nothing is lost or counted twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    HU,
    UNIT,
    BoundsError,
    Box,
    DomainError,
    Mask,
    Volume,
    binarize,
    trilinear_resize,
)

# Reference grid the full-scale defaults were stated against; defect sizes
# are rescaled from it when working at other dims.
FULL_SCALE_DIMS = (256, 256, 128)
FULL_SCALE_DEFECT = (64, 64, 64)

DEFAULT_WINDOW = (-1024.0, 2048.0)
DEFAULT_HU_THRESHOLD = 200.0
DEFAULT_BAND = (0.5, 0.75)
DESK_DIMS = (64, 64, 32)


class PlacementError(RuntimeError):
    """No defect box with enough bone was found within the attempt budget."""


class EmptyImplantError(ValueError):
    """The defect box missed the bone stencil entirely, or covered all of it, so one half of the split is empty."""


def scaled_defect_size(work_dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Shrink the full-scale defect box proportionally to the working grid."""
    out = tuple(
        max(1, int(round(FULL_SCALE_DEFECT[i] * work_dims[i] / FULL_SCALE_DIMS[i])))
        for i in range(3)
    )
    for i in range(3):
        if out[i] > work_dims[i]:
            raise DomainError(f"scaled defect {out} exceeds working dims {work_dims}")
    return out


@dataclass(frozen=True)
class DefectSpec:
    """Where and how large the carved-out cuboid may be."""

    size: tuple[int, int, int] | None = None  # None: full-scale box rescaled to the grid
    band: tuple[float, float] = DEFAULT_BAND
    min_bone_fraction: float = 0.01
    max_attempts: int = 32

    def __post_init__(self) -> None:
        lo, hi = self.band
        if not (0.0 <= lo <= hi <= 1.0):
            raise DomainError(f"height band must satisfy 0 <= lo <= hi <= 1, got {self.band}")
        if self.size is not None and any(s < 1 for s in self.size):
            raise DomainError(f"defect size must be positive, got {self.size}")
        if not (0.0 <= self.min_bone_fraction <= 1.0):
            raise DomainError(f"min bone fraction must be in [0, 1], got {self.min_bone_fraction}")
        if self.max_attempts < 1:
            raise DomainError(f"need at least one placement attempt, got {self.max_attempts}")


@dataclass(frozen=True)
class TrainingCase:
    """One (input, target) pair plus the geometry that produced it."""

    defective: Mask      # bone stencil with the box zeroed; the network input
    implant: Mask        # bone stencil inside the box, on the full grid
    box: Box
    seed: int

    @property
    def defect_mask(self) -> Mask:
        """The keep-mask: 0 inside the box, 1 outside."""
        keep = np.ones_like(self.defective.data)
        keep[self.box.slices] = 0.0
        return Mask(keep, self.defective.spacing)

    def reconstruct(self) -> Mask:
        """Voxelwise max of the two halves: the original stencil."""
        return Mask(np.maximum(self.defective.data, self.implant.data), self.defective.spacing)


def normalize_ct(ct: Volume, window: tuple[float, float] = DEFAULT_WINDOW) -> Volume:
    """Clamp HU to ``window`` and map it affinely onto [0, 1]."""
    lo, hi = (float(window[0]), float(window[1]))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"window must be finite with lo < hi, got {window}")
    out = np.clip(ct.data, lo, hi)
    out -= lo
    out /= hi - lo
    np.clip(out, 0.0, 1.0, out=out)
    return Volume(out, ct.spacing, UNIT)


def threshold_bone(ct: Volume, hu_threshold: float = DEFAULT_HU_THRESHOLD) -> Mask:
    """Bone stencil: everything at or above ``hu_threshold`` HU."""
    if ct.domain != HU:
        raise DomainError(f"expected an HU-domain volume, got {ct.domain!r}")
    return binarize(ct, hu_threshold)


def place_defect(bone: Mask, spec: DefectSpec, seed: int) -> Box:
    """Place the defect cuboid on the stencil's grid.

    The height-axis start is drawn uniformly from the band scaled to the
    grid height, then clamped so the box fits; x and y starts are uniform
    over all fitting positions.  A placement is accepted once the box
    covers at least ``min_bone_fraction`` of its own volume in bone
    voxels; up to ``max_attempts`` draws are made before giving up.
    """
    dims = bone.dims
    w, h, d = dims
    size = scaled_defect_size(dims) if spec.size is None else spec.size
    sw, sh, sd = (min(size[i], dims[i]) for i in range(3))
    lo_z = int(round(spec.band[0] * d))
    hi_z = int(round(spec.band[1] * d))
    need = max(1, math.ceil(spec.min_bone_fraction * sw * sh * sd))

    rng = np.random.default_rng(seed)
    best = -1
    for _ in range(spec.max_attempts):
        x0 = int(rng.integers(0, w - sw + 1))
        y0 = int(rng.integers(0, h - sh + 1))
        z0 = int(rng.integers(lo_z, hi_z + 1))
        z0 = max(0, min(z0, d - sd))
        box = Box((x0, y0, z0), (sw, sh, sd))
        inside = int(np.count_nonzero(bone.data[box.slices]))
        best = max(best, inside)
        if inside >= need:
            return box
    raise PlacementError(
        f"no box of size {(sw, sh, sd)} with >= {need} bone voxels found in "
        f"{spec.max_attempts} attempts (best was {best})"
    )


def split_case(bone: Mask, box: Box, seed: int) -> TrainingCase:
    """Split the stencil at ``box`` into defective input and implant target, neither of them empty."""
    if not box.fits(bone.dims):
        raise BoundsError(f"box {box.origin}+{box.size} exceeds dims {bone.dims}")
    inside = bone.data[box.slices]
    if not inside.any():
        raise EmptyImplantError(f"defect box {box.origin}+{box.size} contains no bone")
    implant = np.zeros_like(bone.data)
    implant[box.slices] = inside
    defective = bone.data.copy()
    defective[box.slices] = 0.0
    if not defective.any():
        raise EmptyImplantError(f"defect box {box.origin}+{box.size} leaves no bone outside it")
    return TrainingCase(Mask(defective, bone.spacing), Mask(implant, bone.spacing), box, seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything :func:`prepare_case` needs, with desk-scale defaults."""

    work_dims: tuple[int, int, int] = DESK_DIMS
    window: tuple[float, float] = DEFAULT_WINDOW
    hu_threshold: float = DEFAULT_HU_THRESHOLD
    defect: DefectSpec = DefectSpec()


def prepare_case(ct: Volume, config: PipelineConfig, seed: int) -> TrainingCase:
    """Threshold, resample to the working grid, carve a defect, split.

    The stencil is thresholded at native resolution, resampled with
    trilinear weights, then re-binarised at 0.5 so the working-grid
    stencil is crisp again.  Deterministic given (ct, config, seed).
    """
    stencil = threshold_bone(ct, config.hu_threshold)
    work = binarize(trilinear_resize(stencil, config.work_dims), 0.5)
    return split_case(work, place_defect(work, config.defect, seed), seed)


def normalized_working_ct(ct: Volume, config: PipelineConfig) -> Volume:
    """The windowed CT on the working grid, for inspection alongside a case."""
    return trilinear_resize(normalize_ct(ct, config.window), config.work_dims)
