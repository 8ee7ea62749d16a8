"""On-disk format checks: header fields, payload layout, round trips."""

import struct
import warnings

import numpy as np
import pytest

from ribfill.grid import UNIT, DomainError, Mask, Volume
from ribfill.nifti import (
    DATA_OFFSET,
    HEADER_SIZE,
    MAGIC,
    NiftiError,
    _QUANT_BLOCK,
    read_volume,
    write_volume,
)


def _float32_volume(rng, dims, spacing=(1.0, 1.0, 1.0)):
    w, h, d = dims
    # values chosen to be exactly float32-representable
    arr = rng.normal(size=(d, h, w)).astype(np.float32).astype(np.float64)
    return Volume(arr, spacing)


def test_file_layout(tmp_path):
    rng = np.random.default_rng(0)
    v = _float32_volume(rng, (2, 2, 2), (0.5, 1.0, 2.0))
    path = tmp_path / "v.nii"
    write_volume(path, v, "float32")
    raw = path.read_bytes()
    assert len(raw) == DATA_OFFSET + 8 * 4  # example: 2x2x2 float32 = 352 + 32
    assert struct.unpack_from("<i", raw, 0)[0] == HEADER_SIZE
    assert raw[344:348] == MAGIC
    dim = struct.unpack_from("<8h", raw, 40)
    assert dim[0] == 3 and dim[1:4] == (2, 2, 2)
    assert struct.unpack_from("<h", raw, 70)[0] == 16  # float32 code
    assert struct.unpack_from("<f", raw, 108)[0] == 352.0
    pixdim = struct.unpack_from("<8f", raw, 76)
    assert pixdim[1:4] == (0.5, 1.0, 2.0)


def test_payload_is_x_fastest(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    path = tmp_path / "order.nii"
    write_volume(path, Volume(arr, (1.0, 1.0, 1.0)))
    payload = np.frombuffer(path.read_bytes()[DATA_OFFSET:], dtype="<f4")
    assert payload.tolist() == list(range(24))


def test_float32_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(5):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        v = _float32_volume(rng, dims, tuple(float(s) for s in rng.uniform(0.5, 3.0, 3).astype(np.float32)))
        path = tmp_path / f"rt{i}.nii"
        header = write_volume(path, v)
        back, header2 = read_volume(path)
        assert np.array_equal(back.data, v.data)
        assert back.dims == v.dims
        assert back.spacing == v.spacing
        assert header2 == header


def test_uint8_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    m = Mask((rng.uniform(size=(4, 4, 4)) < 0.5).astype(np.float64), (1.0, 1.0, 1.0))
    path = tmp_path / "m.nii"
    write_volume(path, m, "uint8")
    back, header = read_volume(path)
    assert header.datatype == "uint8"
    assert back.domain == UNIT
    assert np.array_equal(back.data, m.data)  # 0 and 255/255 survive exactly


def test_uint8_quantisation_rounds_half_up(tmp_path):
    # 0.5 * 255 + 0.5 = 128.0 exactly, so 0.5 must quantise to 128
    v = Volume(np.array([[[0.0, 0.5, 1.0, 0.002]]]), (1.0, 1.0, 1.0), UNIT)
    path = tmp_path / "q.nii"
    write_volume(path, v, "uint8")
    payload = np.frombuffer(path.read_bytes()[DATA_OFFSET:], dtype=np.uint8)
    assert payload.tolist() == [0, 128, 255, 1]  # 0.002*255+0.5 = 1.01 -> 1


def test_uint8_quantisation_in_blocks_equals_the_one_shot_formula(tmp_path):
    """The quantiser works a block at a time; its bytes across block edges match floor(x*255+0.5)."""
    rng = np.random.default_rng(11)
    w = 3 * _QUANT_BLOCK // 21 + 5  # (3, 7, w) holds three blocks and part of a fourth
    n = 21 * w
    x = rng.uniform(size=n)
    x[::5] = rng.integers(0, 256, size=x[::5].size) / 255.0
    x[::7] = (rng.integers(0, 255, size=x[::7].size) + 0.5) / 255.0  # halfway points round up
    x[:4] = [-0.0, 0.0, 1.0, np.nextafter(1.0, 0.0)]
    v = Volume(x.reshape(3, 7, w), (1.0, 1.0, 1.0), UNIT)
    path = tmp_path / "q.nii"
    write_volume(path, v, "uint8")
    payload = path.read_bytes()[DATA_OFFSET:]
    assert payload == np.floor(x * 255.0 + 0.5).astype(np.uint8).tobytes()
    back = read_volume(path)[0]
    assert back.data.tobytes() == (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0).tobytes()


def test_uint8_requires_unit_domain(tmp_path):
    v = Volume(np.array([[[2.0]]]), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        write_volume(tmp_path / "x.nii", v, "uint8")


def test_read_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    v = _float32_volume(rng, (3, 3, 3))
    path = tmp_path / "good.nii"
    write_volume(path, v)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.nii"

    bad.write_bytes(raw[:100])
    with pytest.raises(NiftiError, match="^sizeof_hdr: ") as err:
        read_volume(bad)
    assert err.value.field == "sizeof_hdr" and str(err.value).endswith(f" in {bad}")

    tweaked = bytearray(raw)
    tweaked[344:348] = b"ni1\x00"
    bad.write_bytes(tweaked)
    with pytest.raises(NiftiError, match="^magic: ") as err:
        read_volume(bad)
    assert err.value.field == "magic" and str(err.value).endswith(f" in {bad}")

    tweaked = bytearray(raw)
    struct.pack_into("<h", tweaked, 70, 4)  # int16: unsupported
    bad.write_bytes(tweaked)
    with pytest.raises(NiftiError, match="datatype"):
        read_volume(bad)

    tweaked = bytearray(raw)
    struct.pack_into("<8h", tweaked, 40, 4, 3, 3, 3, 2, 1, 1, 1)
    bad.write_bytes(tweaked)
    with pytest.raises(NiftiError, match=r"dim\[0\]"):
        read_volume(bad)

    for offset, value, field in [
        (112, 2.0, "scl_slope"),
        (112, -1.0, "scl_slope"),
        (112, float("nan"), "scl_slope"),
        (116, 5.0, "scl_inter"),
        (DATA_OFFSET, float("nan"), "data: payload holds a non-finite value"),
        (DATA_OFFSET + 8, float("inf"), "data: payload holds a non-finite value"),
        (DATA_OFFSET + 4 * 26, float("-inf"), "data: payload holds a non-finite value"),
    ]:
        tweaked = bytearray(raw)
        struct.pack_into("<f", tweaked, offset, value)
        bad.write_bytes(tweaked)
        with pytest.raises(NiftiError, match=field):
            read_volume(bad)

    # slope 0 means "no scaling" in NIfTI-1, so the voxels read back raw
    tweaked = bytearray(raw)
    struct.pack_into("<f", tweaked, 112, 0.0)
    bad.write_bytes(tweaked)
    assert np.array_equal(read_volume(bad)[0].data, v.data)

    bad.write_bytes(raw[:-8])
    with pytest.raises(NiftiError, match="^data: payload truncated: ") as err:
        read_volume(bad)
    assert err.value.field == "data" and str(err.value).endswith(f" in {bad}")

    bad.write_bytes(bytes(raw) + b"\x00" * 4)
    with pytest.raises(NiftiError, match="data"):
        read_volume(bad)


def test_write_rejects_a_dim_int16_cannot_hold_and_keeps_the_previous_file(tmp_path):
    path = tmp_path / "v.nii"
    write_volume(path, _float32_volume(np.random.default_rng(5), (2, 3, 4)))
    before = path.read_bytes()
    with pytest.raises(NiftiError, match="dim") as err:
        write_volume(path, Volume(np.zeros((1, 1, 32768)), (1.0, 1.0, 1.0)))
    assert err.value.field == "dim"
    assert path.read_bytes() == before


@pytest.mark.parametrize("sx", [1e300, 1e-50], ids=["overflows", "underflows"])
def test_write_rejects_a_spacing_float32_cannot_hold_and_keeps_the_previous_file(tmp_path, sx):
    path = tmp_path / "v.nii"
    write_volume(path, _float32_volume(np.random.default_rng(5), (2, 3, 4)))
    before = path.read_bytes()
    with pytest.raises(NiftiError, match="pixdim") as err:
        write_volume(path, Volume(np.zeros((2, 2, 2)), (sx, 1.0, 1.0)))
    assert err.value.field == "pixdim"
    assert path.read_bytes() == before


def test_write_rejects_a_value_float32_cannot_hold_and_keeps_the_previous_file(tmp_path):
    """A finite value beyond float32's range would be written as inf, which read_volume rejects."""
    path = tmp_path / "v.nii"
    big = Volume(np.full((2, 2, 2), 1e39), (1.0, 1.0, 1.0))
    with warnings.catch_warnings(), pytest.raises(NiftiError, match="^data: ") as err:
        warnings.simplefilter("error")  # and no overflow warning on the way
        write_volume(path, big, "float32")
    assert err.value.field == "data"
    assert list(tmp_path.iterdir()) == []
    write_volume(path, _float32_volume(np.random.default_rng(5), (2, 3, 4)))
    before = path.read_bytes()
    with pytest.raises(NiftiError, match="^data: "):
        write_volume(path, big, "float32")
    assert path.read_bytes() == before


def test_domain_override_on_read(tmp_path):
    v = Volume(np.full((2, 2, 2), 0.25), (1.0, 1.0, 1.0), UNIT)
    path = tmp_path / "u.nii"
    write_volume(path, v, "float32")
    assert read_volume(path)[0].domain == "unbounded"
    assert read_volume(path, domain=UNIT)[0].domain == UNIT
    hu = Volume(np.full((2, 2, 2), 700.0), (1.0, 1.0, 1.0))
    write_volume(path, hu)
    with pytest.raises(DomainError):
        read_volume(path, domain=UNIT)  # 700 does not fit [0, 1]
