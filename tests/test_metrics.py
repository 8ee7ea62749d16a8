"""Metric correctness: worked examples, oracle equality, edge behaviour."""

import numpy as np
import pytest

from conftest import random_mask
from ribfill import metrics
from ribfill.grid import Mask, ShapeError
from ribfill.metrics import (
    EmptyMaskError,
    brute_force_edt_sq,
    brute_force_hausdorff_sq,
    directed_hausdorff,
    directed_hausdorff_sq,
    dsc,
    edt,
    edt_sq,
    hausdorff,
    metric_report,
)

S = (1.0, 1.0, 1.0)

# spacings whose squares have short dyadic mantissas, so separable and
# brute-force arithmetic is exact and comparisons can demand equality
DYADIC = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _single(dims, xyz, spacing=S):
    w, h, d = dims
    arr = np.zeros((d, h, w))
    x, y, z = xyz
    arr[z, y, x] = 1.0
    return Mask(arr, spacing)


def test_dsc_worked_example():
    a = np.zeros((2, 2, 2))
    b = np.zeros((2, 2, 2))
    a.reshape(-1)[:4] = 1.0
    b.reshape(-1)[2:8] = 1.0
    assert dsc(Mask(a, S), Mask(b, S)) == 2.0 * 2 / (4 + 6)


def test_dsc_empty_conventions():
    z = Mask(np.zeros((3, 3, 3)), S)
    o = Mask(np.ones((3, 3, 3)), S)
    assert dsc(z, z) == 1.0
    assert dsc(z, o) == 0.0
    assert dsc(o, o) == 1.0
    with pytest.raises(ShapeError):
        dsc(z, Mask(np.zeros((3, 3, 2)), S))


def test_edt_345_triangle():
    # voxels (0,0,0) and (3,4,0) at unit spacing are exactly 5 apart
    m = _single((8, 8, 2), (0, 0, 0))
    d2 = edt_sq(m)
    assert d2[0, 4, 3] == 25.0
    assert d2[0, 0, 0] == 0.0
    assert edt(m).data[0, 4, 3] == 5.0


def test_edt_uses_spacing():
    # neighbours along z with 2 mm slices are 2 mm apart
    m = _single((4, 4, 4), (1, 1, 1), spacing=(1.0, 1.0, 2.0))
    d2 = edt_sq(m)
    assert d2[2, 1, 1] == 4.0
    assert d2[1, 2, 1] == 1.0
    assert d2[1, 1, 2] == 1.0


def test_edt_matches_brute_force_exactly():
    rng = np.random.default_rng(0)
    for trial in range(8):
        spacing = tuple(rng.choice(DYADIC, size=3))
        m = random_mask(rng, (10, 9, 8), 0.08, spacing)
        if not m.data.any():
            continue
        assert np.array_equal(edt_sq(m), brute_force_edt_sq(m))


def test_edt_matches_brute_force_exactly_at_non_dyadic_spacing():
    rng = np.random.default_rng(7)
    for trial in range(6):
        m = random_mask(rng, (11, 9, 7), 0.06, (0.7, 1.3, 2.9))
        if m.data.any():
            assert np.array_equal(edt_sq(m), brute_force_edt_sq(m))


def test_edt_row_blocks_match_brute_force(monkeypatch):
    # room for three 10-long rows: the x pass runs 21 blocks of 3 rows, the
    # y pass (70 rows of 9) 23 blocks of 3 and a short last block of 1
    monkeypatch.setattr(metrics, "_MINPLUS_BYTES", 3 * 8 * 10 * 10)
    m = random_mask(np.random.default_rng(8), (10, 9, 7), 0.05, (0.7, 1.3, 2.9))
    assert m.data.any()
    assert np.array_equal(edt_sq(m), brute_force_edt_sq(m))


def test_edt_all_foreground_is_zero():
    assert np.array_equal(edt_sq(Mask(np.ones((3, 4, 5)), (0.7, 1.3, 2.9))), np.zeros((3, 4, 5)))


def test_edt_single_corner_voxel():
    m = _single((5, 4, 3), (0, 0, 0), spacing=(0.7, 1.3, 2.9))
    z, y, x = np.meshgrid(np.arange(3.0), np.arange(4.0), np.arange(5.0), indexing="ij")
    want = x * x * (0.7 * 0.7)
    want += y * y * (1.3 * 1.3)
    want += z * z * (2.9 * 2.9)
    assert np.array_equal(edt_sq(m), want)


def test_edt_scaling_with_power_of_two_spacing():
    rng = np.random.default_rng(1)
    m1 = random_mask(rng, (8, 8, 8), 0.1, (1.0, 1.0, 1.0))
    m2 = Mask(m1.data, (2.0, 2.0, 2.0))
    assert np.array_equal(edt_sq(m2), 4.0 * edt_sq(m1))  # exact: powers of two


def test_edt_empty_mask_raises():
    z = Mask(np.zeros((4, 4, 4)), S)
    with pytest.raises(EmptyMaskError):
        edt_sq(z)
    with pytest.raises(EmptyMaskError):
        brute_force_edt_sq(z)


def test_directed_hausdorff_is_asymmetric():
    a = _single((8, 2, 2), (0, 0, 0))
    both = np.zeros((2, 2, 8))
    both[0, 0, 0] = 1.0
    both[0, 0, 7] = 1.0
    b = Mask(both, S)
    assert directed_hausdorff(a, b) == 0.0   # a is a subset of b
    assert directed_hausdorff(b, a) == 7.0
    assert hausdorff(a, b) == 7.0


def test_hausdorff_matches_brute_force_exactly():
    rng = np.random.default_rng(2)
    for trial in range(10):
        spacing = tuple(rng.choice(DYADIC, size=3))
        dims = tuple(int(v) for v in rng.integers(5, 12, size=3))
        a = random_mask(rng, dims, 0.05, spacing)
        b = random_mask(rng, dims, 0.05, spacing)
        if not (a.data.any() and b.data.any()):
            continue
        ab, ba = brute_force_hausdorff_sq(a, b)
        assert directed_hausdorff_sq(a, b) == ab
        assert directed_hausdorff_sq(b, a) == ba


def test_hausdorff_symmetry_and_identity():
    rng = np.random.default_rng(3)
    a = random_mask(rng, (7, 7, 7), 0.1)
    b = random_mask(rng, (7, 7, 7), 0.1)
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, a) == 0.0


def test_hausdorff_requires_matching_grids():
    a = random_mask(np.random.default_rng(4), (4, 4, 4), 0.5)
    b = Mask(a.data, (2.0, 2.0, 2.0))
    with pytest.raises(ShapeError):
        hausdorff(a, b)
    z = Mask(np.zeros((4, 4, 4)), S)
    with pytest.raises(EmptyMaskError):
        hausdorff(a, z)
    with pytest.raises(EmptyMaskError):
        directed_hausdorff(z, a)


def test_hausdorff_percentile_is_monotone():
    rng = np.random.default_rng(5)
    a = random_mask(rng, (10, 10, 6), 0.15)
    b = random_mask(rng, (10, 10, 6), 0.15)
    h95 = hausdorff(a, b, percentile=95.0)
    h100 = hausdorff(a, b)
    assert h95 <= h100
    for bad in (0.0, 150.0, float("nan")):
        with pytest.raises(ShapeError):
            hausdorff(a, b, percentile=bad)


def test_metric_report_fields():
    rng = np.random.default_rng(6)
    a = random_mask(rng, (8, 8, 8), 0.2)
    b = random_mask(rng, (8, 8, 8), 0.2)
    r = metric_report(a, b)
    assert r.hd == max(r.hd_ab, r.hd_ba)
    assert r.n_a == int(a.data.sum())
    assert r.n_b == int(b.data.sum())
    assert 0.0 <= r.dsc <= 1.0
