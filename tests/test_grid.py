"""Volume construction rules, thresholding, resampling, cropping, atomic writes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fail_atomic_write, random_mask, unit_volume
from ribfill.cli import build_parser, main
from ribfill.grid import (
    HU,
    UNIT,
    BoundsError,
    Box,
    DomainError,
    Mask,
    ShapeError,
    Volume,
    _write_atomic,
    binarize,
    crop,
    trilinear_resize,
)
from ribfill.manifest import read_manifest, write_manifest
from ribfill.net import NetConfig, OptState, init_params, save_checkpoint
from ribfill.nifti import write_volume

S = (1.0, 1.0, 1.0)


def test_volume_basics():
    v = Volume(np.zeros((4, 3, 2)), (1.0, 2.0, 3.0), HU)
    assert v.dims == (2, 3, 4)
    assert v.spacing == (1.0, 2.0, 3.0)
    assert v.data.dtype == np.float64
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0  # frozen


def test_volume_rejects_bad_input():
    with pytest.raises(ShapeError):
        Volume(np.zeros((4, 4)), S)
    with pytest.raises(ShapeError):
        Volume(np.zeros((4, 0, 4)), S)
    with pytest.raises(DomainError):
        Volume(np.full((2, 2, 2), np.nan), S)
    with pytest.raises(DomainError):
        Volume(np.zeros((2, 2, 2)), (1.0, -1.0, 1.0))
    with pytest.raises(DomainError):
        Volume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        Volume(np.zeros((2, 2, 2)), S, "voltage")
    with pytest.raises(DomainError):
        Volume(np.full((2, 2, 2), 1.5), S, UNIT)
    with pytest.raises(DomainError):
        Mask(np.full((2, 2, 2), 0.5), S)
    with pytest.raises(DomainError):
        Mask(np.zeros((2, 2, 2)), S, domain=HU)


_NON_FINITE = "volume contains non-finite values"
_OUT_OF_UNIT = "unit-domain volume has values outside [0, 1]"


@pytest.mark.parametrize("values, message", [
    ([0.5, np.nan], _NON_FINITE),
    ([0.5, np.inf], _NON_FINITE),
    ([0.5, -np.inf], _NON_FINITE),
    ([1.5, np.nan], _NON_FINITE),
    ([1.5, np.inf], _NON_FINITE),
    ([-np.inf, 1.5], _NON_FINITE),
    ([0.5, 1.5], _OUT_OF_UNIT),
    ([-0.5, 0.5], _OUT_OF_UNIT),
], ids=["nan", "inf", "-inf", "nan+1.5", "inf+1.5", "-inf+1.5", "1.5", "-0.5"])
def test_unit_volume_reports_non_finite_before_out_of_range(values, message):
    """The range scan stands in for the finiteness scan on unit data, so its errors keep their order."""
    with pytest.raises(DomainError) as exc:
        Volume(np.array(values).reshape(1, 1, -1), S, UNIT)
    assert str(exc.value) == message
    # finiteness is checked before the spacing, the unit range after it
    with pytest.raises(DomainError) as exc:
        Volume(np.array(values).reshape(1, 1, -1), (1.0, 0.0, 1.0), UNIT)
    assert str(exc.value).startswith(message if message == _NON_FINITE else "spacing must be")


def test_unit_volume_accepts_its_closed_range_and_masks_stay_exact():
    v = Volume(np.array([-0.0, 0.0, 0.25, 1.0]).reshape(1, 1, 4), S, UNIT)
    assert v.data.tobytes() == np.array([-0.0, 0.0, 0.25, 1.0]).tobytes()
    Mask(np.array([-0.0, 1.0]).reshape(1, 1, 2), S)
    with pytest.raises(DomainError) as exc:
        Mask(np.array([0.0, 0.5]).reshape(1, 1, 2), S)
    assert str(exc.value) == "mask values must be exactly 0 or 1"


def test_ravel_is_x_fastest():
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)  # (z, y, x)
    v = Volume(arr, S)
    flat = v.ravel()
    # x varies fastest: consecutive flat entries step x
    assert flat[0] == arr[0, 0, 0]
    assert flat[1] == arr[0, 0, 1]
    assert flat[4] == arr[0, 1, 0]
    assert flat[12] == arr[1, 0, 0]


def test_binarize_threshold_semantics():
    v = Volume(np.array([[[-5.0, 0.0, 199.9, 200.0, 350.0]]]), S, HU)
    m = binarize(v, 200.0)
    assert isinstance(m, Mask)
    assert m.data.tolist() == [[[0.0, 0.0, 0.0, 1.0, 1.0]]]
    with pytest.raises(DomainError):
        binarize(v, np.nan)
    with pytest.raises(DomainError):
        binarize(v, np.inf)


def test_resize_two_to_three_is_halfway():
    v = Volume(np.array([0.0, 1.0]).reshape(1, 1, 2), S, UNIT)
    out = trilinear_resize(v, (3, 1, 1))
    assert out.data.reshape(-1).tolist() == [0.0, 0.5, 1.0]
    assert out.domain == UNIT


def test_resize_identity_spacing_and_constants():
    rng = np.random.default_rng(3)
    v = Volume(rng.normal(size=(6, 5, 4)), (1.5, 2.0, 2.5))
    same = trilinear_resize(v, v.dims)
    assert np.array_equal(same.data, v.data)
    assert same.spacing == v.spacing
    # spacing scales with the dims ratio
    out = trilinear_resize(v, (8, 10, 3))
    assert out.spacing == (1.5 * 4 / 8, 2.0 * 5 / 10, 2.5 * 6 / 3)
    const = Volume(np.full((6, 5, 4), 0.1), S)
    assert np.all(trilinear_resize(const, (9, 7, 11)).data == 0.1)


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, -2.5, 7.0, 5e-324, -1e308],
    [0.0, -0.0, 1.0, -0.0, 0.5, 0.0],  # the range's own ends are signed zeros
])
def test_resize_to_the_same_grid_is_a_bitwise_copy(values):
    v = Volume(np.array(values).reshape(1, 2, 3), (1.5, 2.0, 2.5))
    same = trilinear_resize(v, v.dims)
    assert same.data.tobytes() == v.data.tobytes()
    assert not np.shares_memory(same.data, v.data)
    assert (same.spacing, same.domain) == (v.spacing, v.domain)


def test_resize_corner_aligned_endpoints():
    rng = np.random.default_rng(4)
    v = Volume(rng.normal(size=(3, 3, 5)), S)
    out = trilinear_resize(v, (9, 3, 3))
    assert np.array_equal(out.data[:, :, 0], v.data[:, :, 0])
    assert np.array_equal(out.data[:, :, -1], v.data[:, :, -1])
    # doubling-ish ratios hit original samples exactly at even positions
    up = trilinear_resize(v, (9, 5, 5))
    assert np.array_equal(up.data[::2][:, ::2][:, :, ::2], v.data)


def test_resize_range_never_leaves_input_range():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = unit_volume(rng, (7, 6, 5))
        out = trilinear_resize(v, (13, 3, 9))
        assert out.data.min() >= v.data.min()
        assert out.data.max() <= v.data.max()
        assert out.domain == UNIT


def test_resize_single_plane_cases():
    v = Volume(np.array([1.0, 3.0, 5.0]).reshape(1, 1, 3), S)
    down = trilinear_resize(v, (1, 1, 1))
    assert down.data.reshape(-1).tolist() == [3.0]  # centre of the row
    flat = Volume(np.array([[[2.0]]]), S)
    up = trilinear_resize(flat, (4, 1, 1))
    assert np.all(up.data == 2.0)
    with pytest.raises(ShapeError):
        trilinear_resize(v, (0, 1, 1))


def _resize_axis_moveaxis(arr, axis, n_new):
    """Reference resample of one axis: gather rows along a front-moved axis, then blend."""
    n_old = arr.shape[axis]
    if n_new == n_old:
        return arr
    a = np.moveaxis(arr, axis, 0)
    if n_old == 1:
        out = np.broadcast_to(a, (n_new,) + a.shape[1:]).copy()
        return np.moveaxis(out, 0, axis)
    if n_new == 1:
        pos = np.array([(n_old - 1) / 2.0])
    else:
        pos = np.arange(n_new, dtype=np.float64) * ((n_old - 1) / (n_new - 1))
    np.clip(pos, 0.0, float(n_old - 1), out=pos)
    lo = np.floor(pos).astype(np.intp)
    np.clip(lo, 0, n_old - 2, out=lo)
    f = pos - lo
    lo_rows = a[lo]
    out = lo_rows + f.reshape((-1,) + (1,) * (a.ndim - 1)) * (a[lo + 1] - lo_rows)
    hit = np.flatnonzero(f == 1.0)
    if hit.size:
        out[hit] = a[lo[hit] + 1]
    return np.moveaxis(out, 0, axis)


def _assert_resize_matches_reference(v, dims):
    ref = v.data
    for axis, n in ((2, dims[0]), (1, dims[1]), (0, dims[2])):
        ref = _resize_axis_moveaxis(ref, axis, n)
    ref = np.clip(ref, v.data.min(), v.data.max())
    assert trilinear_resize(v, dims).data.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["z", "y", "x"])
# 3 -> 5 ends at position 4 * (2 / 4) == 2.0 exactly, the clamped f == 1 top corner
@pytest.mark.parametrize("n_old, n_new", [(1, 5), (5, 1), (3, 5), (7, 4), (4, 9), (6, 6)])
def test_resize_equals_the_moveaxis_reference_on_each_axis(axis, n_old, n_new):
    rng = np.random.default_rng(10 * n_old + n_new)
    shape = [3, 4, 5]
    shape[axis] = n_old
    v = Volume(rng.normal(size=shape) * 1e3, S)
    dims = list(v.dims)
    dims[2 - axis] = n_new
    _assert_resize_matches_reference(v, tuple(dims))


@settings(max_examples=150)
@given(
    shape=st.tuples(*[st.integers(1, 12)] * 3),
    dims=st.tuples(*[st.integers(1, 24)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_resize_equals_the_moveaxis_reference(shape, dims, seed):
    v = Volume(np.random.default_rng(seed).normal(size=shape), S)
    _assert_resize_matches_reference(v, dims)


def test_resized_mask_needs_rebinarizing():
    rng = np.random.default_rng(6)
    m = random_mask(rng, (8, 8, 8), 0.4)
    soft = trilinear_resize(m, (5, 5, 5))
    assert soft.domain == UNIT
    crisp = binarize(soft, 0.5)
    assert set(np.unique(crisp.data)) <= {0.0, 1.0}


def test_crop_and_paste_round_trip():
    rng = np.random.default_rng(7)
    v = unit_volume(rng, (6, 5, 4))
    box = Box((1, 2, 0), (3, 2, 4))
    part = crop(v, box)
    assert part.dims == (3, 2, 4)
    assert np.array_equal(part.data, v.data[box.slices])
    back = np.zeros((4, 5, 6))
    back[box.slices] = part.data
    outside = np.ones((4, 5, 6), dtype=bool)
    outside[box.slices] = False
    assert np.array_equal(back, np.where(outside, 0.0, v.data))


def test_crop_paste_bounds_errors():
    v = Volume(np.zeros((4, 4, 4)), S)
    with pytest.raises(BoundsError):
        crop(v, Box((2, 0, 0), (3, 1, 1)))
    with pytest.raises(BoundsError):
        Box((0, 0, -1), (1, 1, 1))
    with pytest.raises(BoundsError):
        Box((0, 0, 0), (0, 1, 1))


@pytest.fixture(scope="module")
def small_case(tmp_path_factory):
    """A prepared 32x32x16 case and a checkpoint whose every output is 0.5, so no prediction is empty."""
    root = tmp_path_factory.mktemp("small_case")
    assert main(["phantom", "--dims", "32", "32", "16", "--out-dir", str(root / "raw")]) == 0
    assert main(["prep", str(root / "raw" / "case000_ct.nii"), "--work-dims", "32", "32", "16",
                 "--out-dir", str(root / "prep")]) == 0
    params = init_params(NetConfig(depth=1, base_channels=2), seed=0)
    params.tensors["head.w"][:] = 0.0
    params.tensors["head.b"][:] = 0.0
    checkpoint = root / "checkpoint.bin"
    save_checkpoint(checkpoint, params, OptState())
    return root / "prep" / "case000.manifest", checkpoint


def _run_cli(argv):
    """Run a subcommand without ``main``'s error handling, so its OSError reaches the test."""
    args = build_parser().parse_args(argv)
    return args.func(args)


# every artifact writer: the file it writes and a call that writes it into a directory
_WRITERS = {
    "save_checkpoint": ("ck.bin", lambda out, case: save_checkpoint(
        out / "ck.bin", init_params(NetConfig(depth=1, base_channels=1), seed=1), OptState())),
    "write_volume": ("v.nii", lambda out, case: write_volume(out / "v.nii", Volume(np.ones((4, 3, 2)), S))),
    "write_manifest": ("m.manifest", lambda out, case: write_manifest(out / "m.manifest", read_manifest(case[0]))),
    "training_log.csv": ("training_log.csv", lambda out, case: _run_cli([
        "train", str(case[0]), "--steps", "1", "--depth", "1", "--base-channels", "2", "--out-dir", str(out)])),
    "metrics.csv": ("metrics.csv", lambda out, case: _run_cli([
        "eval", str(case[0]), "--checkpoint", str(case[1]), "--out-dir", str(out)])),
}


def test_write_atomic_writes_its_parts_concatenated(tmp_path):
    target = tmp_path / "parts.bin"
    target.write_bytes(b"previous bytes\n")
    arr = np.arange(12, dtype="<f4").reshape(3, 4)
    _write_atomic(target, b"head", bytearray(b"-"), arr, b"")
    assert target.read_bytes() == b"head-" + arr.tobytes()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("step", ["write", "fsync", "replace"])
@pytest.mark.parametrize("writer", list(_WRITERS))
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, small_case, writer, step):
    name, write = _WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(b"previous bytes\n")
    fail_atomic_write(monkeypatch, target, step)
    with pytest.raises(OSError):
        write(tmp_path, small_case)
    assert target.read_bytes() == b"previous bytes\n"
    assert not list(tmp_path.glob("*.tmp"))
