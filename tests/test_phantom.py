"""Phantom geometry: HU levels, symmetry, determinism, validation."""

import math

import numpy as np
import pytest

from ribfill.grid import HU
from ribfill.phantom import GeometryError, PhantomSpec, generate_phantom

SMALL = PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), rib_pairs=8, rib_radius=1.2)


def test_exactly_three_hu_levels():
    v = generate_phantom(SMALL)
    assert v.domain == HU
    levels = set(np.unique(v.data))
    assert levels == {-1000.0, 40.0, 700.0}


def test_left_right_symmetry_without_jitter():
    spec = PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), jitter=0.0, seed=5)
    v = generate_phantom(spec)
    assert np.array_equal(v.data, v.data[:, :, ::-1])
    # even widths mirror between voxels, odd widths across a column
    odd = generate_phantom(PhantomSpec(dims=(65, 64, 32), spacing=(6.0, 6.0, 12.0), jitter=0.0))
    assert np.array_equal(odd.data, odd.data[:, :, ::-1])


def test_jitter_breaks_symmetry_but_not_determinism():
    spec = PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), jitter=0.8, seed=5)
    a = generate_phantom(spec)
    b = generate_phantom(spec)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, a.data[:, :, ::-1])
    c = generate_phantom(PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), jitter=0.8, seed=6))
    assert not np.array_equal(a.data, c.data)


def test_bone_is_minority_and_sits_in_torso_band():
    v = generate_phantom(PhantomSpec(seed=2))
    bone = v.data >= 200.0
    assert 0.0 < bone.mean() < 0.5
    # anterior midline (sternum) bone exists in the defect height band
    d, h, w = v.data.shape
    band = bone[d // 2 : (3 * d) // 4]
    assert band.any()
    midline = band[:, :, w // 2 - 1 : w // 2 + 2]
    assert midline.any()


def test_ribs_form_separate_bands():
    # each rib pair shows up as its own z run in some lateral column
    spec = PhantomSpec(seed=1, jitter=0.0)
    v = generate_phantom(spec)
    bone = v.data >= 200.0
    d, h, w = bone.shape
    onsets = [
        (np.diff(bone[:, h // 2, x].astype(int)) == 1).sum() for x in range(w // 2, w)
    ]
    assert max(onsets) == spec.rib_pairs


def test_too_small_grids_rejected():
    with pytest.raises(GeometryError):
        generate_phantom(PhantomSpec(dims=(10, 10, 32)))
    with pytest.raises(GeometryError):
        generate_phantom(PhantomSpec(dims=(96, 96, 4)))
    with pytest.raises(GeometryError):
        generate_phantom(PhantomSpec(rib_radius=0.0))
    with pytest.raises(GeometryError):
        generate_phantom(PhantomSpec(rib_pairs=0))
    # NaN fails every comparison, and an infinite jitter would clamp the geometry
    for bad in ({"rib_radius": math.nan}, {"jitter": math.nan}, {"jitter": math.inf}):
        with pytest.raises(GeometryError):
            generate_phantom(PhantomSpec(**bad))
