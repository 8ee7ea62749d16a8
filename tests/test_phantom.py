"""Phantom geometry: HU levels, symmetry, determinism, validation."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribfill import phantom
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


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"dims": (96.5, 96, 48)}, "dims"),
        ({"dims": (96, 96)}, "dims"),
        ({"rib_pairs": 2.5}, "rib_pairs"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.0}, "seed"),
    ],
)
def test_fields_that_are_not_whole_numbers_rejected_by_name(bad, field):
    with pytest.raises(GeometryError, match=field):
        generate_phantom(PhantomSpec(**bad))


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"spacing": (0.0, 1.0, 1.0)}, "spacing"),
        ({"spacing": (1.0, -2.0, 1.0)}, "spacing"),
        ({"spacing": (1.0, 1.0, math.nan)}, "spacing"),
        ({"spacing": (math.inf, 1.0, 1.0)}, "spacing"),
        ({"spacing": (1.0, 1.0)}, "spacing"),
        ({"hu_air": math.nan}, "hu_air"),
        ({"hu_soft": math.inf}, "hu_soft"),
        ({"hu_bone": math.nan}, "hu_bone"),
    ],
)
def test_bad_spacing_and_hu_levels_rejected_by_name_before_rendering(monkeypatch, bad, field):
    def render(spec):
        raise AssertionError("rendered a phantom whose spec is invalid")

    monkeypatch.setattr(phantom, "_bone_stencil", render)
    with pytest.raises(GeometryError, match=field):
        generate_phantom(PhantomSpec(**bad))


def test_numpy_integer_fields_accepted():
    plain = PhantomSpec(dims=(64, 48, 32), rib_pairs=5, seed=3)
    numpy = PhantomSpec(dims=(np.int64(64), np.int32(48), np.int16(32)), rib_pairs=np.int64(5), seed=np.uint32(3))
    assert generate_phantom(numpy).data.tobytes() == generate_phantom(plain).data.tobytes()


def _rasterize_tube_all_samples(bone, a, b, zc, r, cx, cy, mirror):
    """Reference rasterizer: every sample chunk is scored against the tube's whole rectangle."""
    dz, hy, wx = bone.shape
    m = max(16, int(math.ceil(math.pi * max(a, b) / phantom._ARC_STEP)) + 1)
    t = np.linspace(0.0, math.pi, m)
    px = cx + a * np.sin(t)
    py = cy - b * np.cos(t)
    x0 = max(0, int(math.floor(px.min() - r - 1.0)))
    x1 = min(wx - 1, int(math.ceil(px.max() + r + 1.0)))
    y0 = max(0, int(math.floor(py.min() - r - 1.0)))
    y1 = min(hy - 1, int(math.ceil(py.max() + r + 1.0)))
    if x1 < x0 or y1 < y0:
        return
    xs = np.arange(x0, x1 + 1, dtype=np.float64)
    ys = np.arange(y0, y1 + 1, dtype=np.float64)
    dx2 = (xs[:, None] - px[None, :]) ** 2
    dy2 = (ys[:, None] - py[None, :]) ** 2
    d2 = np.full((ys.size, xs.size), np.inf)
    for i in range(0, m, 64):
        block = dy2[:, None, i : i + 64] + dx2[None, :, i : i + 64]
        np.minimum(d2, block.min(axis=2), out=d2)
    for z in range(max(0, int(math.ceil(zc - r))), min(dz - 1, int(math.floor(zc + r))) + 1):
        rad2 = r * r - (z - zc) ** 2
        if rad2 < 0.0:
            continue
        disc = d2 <= rad2
        if mirror:
            bone[z, y0 : y1 + 1, wx - 1 - x1 : wx - x0] |= disc[:, ::-1]
        else:
            bone[z, y0 : y1 + 1, x0 : x1 + 1] |= disc


@settings(max_examples=100)
@given(
    dims=st.tuples(*[st.integers(16, 96)] * 3),
    rib_radius=st.floats(0.3, 4.0),
    jitter=st.floats(0.0, 3.0),
    rib_pairs=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_rasterizer_equals_the_all_samples_one(dims, rib_radius, jitter, rib_pairs, seed):
    spec = PhantomSpec(dims=dims, rib_radius=rib_radius, jitter=jitter, rib_pairs=rib_pairs, seed=seed)
    got = phantom._bone_stencil(spec)
    with mock.patch.object(phantom, "_rasterize_tube", _rasterize_tube_all_samples):
        want = phantom._bone_stencil(spec)
    assert got.tobytes() == want.tobytes()


def _or_halves(lo, hi):
    """Floats in [lo, hi], or the integers and half-integers there, which sit on a square's edges."""
    return st.floats(lo, hi) | st.integers(int(2 * lo), int(2 * hi)).map(lambda k: k / 2)


@settings(max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(4, 40), st.integers(4, 40)),
    a=st.floats(2.0, 30.0),
    b=st.floats(2.0, 30.0),
    r=_or_halves(0.5, 8.0) | st.floats(0.3, 0.5),
    centre=st.tuples(_or_halves(-4.0, 44.0), _or_halves(-4.0, 44.0), _or_halves(0.0, 11.0)),
    mirror=st.booleans(),
)
def test_one_tube_equals_the_all_samples_rasterizer(shape, a, b, r, centre, mirror):
    # tubes that leave the grid, and integer and half-integer centres and radii,
    # which put pixels exactly r or r + 1 from a sample and make 2r + 2 whole,
    # are the edge cases of each sample's square of ceil(2r + 2) + 2 pixels
    cx, cy, zc = centre
    got = np.zeros(shape, dtype=bool)
    want = np.zeros(shape, dtype=bool)
    phantom._rasterize_tube(got, a, b, zc, r, cx, cy, mirror)
    _rasterize_tube_all_samples(want, a, b, zc, r, cx, cy, mirror)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec, digest",
    [
        # perfbench's train_desk, eval_cohort and prep_cohort phantoms, then the CLI default
        (
            PhantomSpec(dims=(64, 64, 32), spacing=(6.0, 6.0, 12.0), rib_radius=2.6, seed=1016164991),
            "799b4b12f3f1700cf1553cb301180382c13301d5d50f3a03ec78d97289862e86",
        ),
        (
            PhantomSpec(dims=(128, 128, 64), spacing=(3.0, 3.0, 6.0), seed=1099128568),
            "77f209bc339996379fdc251119ad827a3c15c87b300331689a7e7ecaee8347ce",
        ),
        (PhantomSpec(seed=1016164991), "8909d31e66d79bd05ff9ea2c8e8d0546ed78a7fcf57f8d7813fd6b1b7ca1b1bd"),
        (PhantomSpec(), "701426b0e879522a6afcaf6b8d906ecbedecc3e0966bd4c5312cde731a0815e2"),
    ],
    ids=["train_desk", "eval_cohort", "prep_cohort", "cli_default"],
)
def test_phantom_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(generate_phantom(spec).data.tobytes()).hexdigest() == digest
