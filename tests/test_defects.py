"""Defect pipeline: windowing, thresholding, box placement, case splitting."""

import numpy as np
import pytest

from conftest import random_mask
from ribfill.defects import (
    DefectSpec,
    EmptyImplantError,
    PipelineConfig,
    PlacementError,
    normalize_ct,
    place_defect,
    prepare_case,
    scaled_defect_size,
    split_case,
    threshold_bone,
)
from ribfill.grid import (
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
from ribfill.phantom import PhantomSpec, generate_phantom

S = (1.0, 1.0, 1.0)


def test_normalize_ct_window_midpoint():
    ct = Volume(np.full((2, 2, 2), 512.0), S, HU)
    out = normalize_ct(ct)
    assert out.domain == UNIT
    assert np.all(out.data == 0.5)  # (512 + 1024) / 3072


def test_normalize_ct_clamps_and_validates():
    ct = Volume(np.array([[[-2000.0, -1024.0, 2048.0, 3000.0]]]), S, HU)
    out = normalize_ct(ct)
    assert out.data.reshape(-1).tolist() == [0.0, 0.0, 1.0, 1.0]
    with pytest.raises(DomainError):
        normalize_ct(ct, (100.0, 100.0))
    with pytest.raises(DomainError):
        normalize_ct(ct, (100.0, -100.0))


def test_threshold_bone_requires_hu():
    ct = Volume(np.array([[[199.0, 200.0, 201.0]]]), S, HU)
    m = threshold_bone(ct)
    assert m.data.reshape(-1).tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(DomainError):
        threshold_bone(Volume(np.zeros((2, 2, 2)), S, UNIT))


def test_scaled_defect_size_desk():
    assert scaled_defect_size((64, 64, 32)) == (16, 16, 16)
    assert scaled_defect_size((256, 256, 128)) == (64, 64, 64)
    assert scaled_defect_size((128, 64, 64)) == (32, 16, 32)


def test_defect_start_clamps_to_fit_full_scale():
    # at full scale, band [0.5, 0.75] of 128 with a 64-deep box forces z0 = 64
    bone = Mask(np.ones((128, 32, 32)), S)
    spec = DefectSpec(size=(16, 16, 64))
    for seed in range(10):
        assert place_defect(bone, spec, seed).origin[2] == 64


def test_defect_band_sampling_and_mask_shape():
    bone = Mask(np.ones((64, 24, 24)), S)
    spec = DefectSpec(size=(8, 8, 8))
    starts = set()
    for seed in range(40):
        box = place_defect(bone, spec, seed)
        keep = split_case(bone, box, seed).defect_mask
        assert box.size == (8, 8, 8)
        z0 = box.origin[2]
        starts.add(z0)
        assert 32 <= z0 <= 48  # band [0.5, 0.75] of 64, box always fits
        assert np.count_nonzero(keep.data) == 64 * 24 * 24 - 8 * 8 * 8
        assert np.all(keep.data[box.slices] == 0.0)
    assert len(starts) > 5  # actually samples the band


def test_defect_size_clamps_to_grid():
    bone = Mask(np.ones((8, 8, 8)), S)
    box = place_defect(bone, DefectSpec(size=(64, 64, 64)), 0)
    assert box.size == (8, 8, 8)
    assert box.origin == (0, 0, 0)


def test_default_defect_size_scales_to_the_stencil_grid():
    assert DefectSpec().size is None
    bone = Mask(np.ones((32, 64, 64)), S)  # (W, H, D) = (64, 64, 32)
    assert place_defect(bone, DefectSpec(), 0).size == scaled_defect_size((64, 64, 32))


def test_placement_rejects_bone_free_boxes():
    # bone only in one octant: placements elsewhere must be resampled
    arr = np.zeros((16, 16, 16))
    arr[8:, 8:, 8:] = 1.0
    bone = Mask(arr, S)
    spec = DefectSpec(size=(4, 4, 4), band=(0.5, 0.75))
    box = place_defect(bone, spec, seed=1)
    inside = bone.data[box.slices]
    assert inside.sum() >= np.ceil(0.01 * 64)
    empty = Mask(np.zeros((16, 16, 16)), S)
    with pytest.raises(PlacementError, match="attempts"):
        place_defect(empty, spec, seed=1)


def test_min_bone_fraction_is_ceiled():
    # 1% of a 4x4x4 box is 0.64 -> needs at least 1 voxel
    arr = np.zeros((8, 8, 8))
    arr[4, 4, 4] = 1.0
    bone = Mask(arr, S)
    spec = DefectSpec(size=(4, 4, 4), band=(0.0, 1.0), max_attempts=200)
    box = place_defect(bone, spec, seed=0)
    assert bone.data[box.slices].sum() >= 1


def test_split_case_partitions_exactly():
    rng = np.random.default_rng(4)
    bone = random_mask(rng, (16, 16, 16), 0.3)
    spec = DefectSpec(size=(6, 6, 6))
    box = place_defect(bone, spec, seed=2)
    case = split_case(bone, box, seed=2)
    # no overlap, and together they re-compose the stencil
    assert not np.minimum(case.defective.data, case.implant.data).any()
    assert np.array_equal(case.reconstruct().data, bone.data)
    outside = np.ones((16, 16, 16), dtype=bool)
    outside[box.slices] = False
    assert np.all(case.implant.data[outside] == 0.0)


def test_split_case_rejects_empty_implant():
    bone = Mask(np.zeros((8, 8, 8)), S)
    with pytest.raises(EmptyImplantError, match=r"\(0, 0, 0\)\+\(4, 4, 4\) contains no bone"):
        split_case(bone, Box((0, 0, 0), (4, 4, 4)), seed=0)
    # nor an empty defective volume: the box holds every bone voxel
    data = np.zeros((8, 8, 8))
    data[1:3, 2, 0:4] = 1.0
    with pytest.raises(EmptyImplantError, match=r"\(0, 0, 0\)\+\(4, 4, 4\) leaves no bone outside it"):
        split_case(Mask(data, S), Box((0, 0, 0), (4, 4, 4)), seed=0)


def test_split_case_rejects_box_outside_grid():
    # 64 box voxels, only 8 of them on the grid
    bone = Mask(np.ones((8, 8, 8)), S)
    with pytest.raises(BoundsError, match=r"\(6, 6, 6\)\+\(4, 4, 4\).*\(8, 8, 8\)"):
        split_case(bone, Box((6, 6, 6), (4, 4, 4)), seed=0)


def test_prepare_case_desk_defaults_on_phantom():
    ct = generate_phantom(PhantomSpec(seed=9))
    config = PipelineConfig()
    case = prepare_case(ct, config, seed=5)
    assert case.defective.dims == (64, 64, 32)
    assert case.implant.dims == (64, 64, 32)
    assert case.box.size == (16, 16, 16)
    assert case.box.origin[2] == 16  # desk band collapses to the clamp point
    # the split partitions the independently recomputed working stencil
    work = binarize(trilinear_resize(threshold_bone(ct), (64, 64, 32)), 0.5)
    assert np.array_equal(case.reconstruct().data, work.data)
    again = prepare_case(ct, config, seed=5)
    assert np.array_equal(again.defective.data, case.defective.data)
    assert again.box == case.box


def test_defect_spec_validation():
    with pytest.raises(DomainError):
        DefectSpec(band=(0.8, 0.2))
    with pytest.raises(DomainError):
        DefectSpec(band=(-0.1, 0.5))
    with pytest.raises(DomainError):
        DefectSpec(size=(0, 4, 4))
    with pytest.raises(DomainError):
        DefectSpec(min_bone_fraction=1.5)
    with pytest.raises(DomainError):
        DefectSpec(max_attempts=0)
