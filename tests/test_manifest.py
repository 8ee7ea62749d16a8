"""Manifest text format: round trips, strict key set, file checks."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribfill.grid import Box
from ribfill.manifest import _VOLUME_KEYS, CaseManifest, ManifestError, _bad_case_id, read_manifest, write_manifest


def _manifest():
    return CaseManifest(
        case_id="case007",
        seed=1234,
        dims=(64, 64, 32),
        ct="case007_ct.nii",
        bone="case007_bone.nii",
        defective="case007_defective.nii",
        implant="case007_implant.nii",
        box=Box((12, 20, 16), (16, 16, 16)),
        hu_threshold=200.0,
        window=(-1024.0, 2048.0),
    )


def _touch_volumes(tmp_path, m):
    for name in (m.ct, m.bone, m.defective, m.implant):
        (tmp_path / name).write_bytes(b"")


def test_round_trip(tmp_path):
    m = _manifest()
    path = tmp_path / "case007.manifest"
    write_manifest(path, m)
    _touch_volumes(tmp_path, m)
    assert read_manifest(path) == m


def test_round_trip_preserves_fractional_floats(tmp_path):
    m = _manifest()
    m = CaseManifest(**{**m.__dict__, "hu_threshold": 199.999, "window": (-1000.5, 2047.25)})
    path = tmp_path / "m.manifest"
    write_manifest(path, m)
    _touch_volumes(tmp_path, m)
    back = read_manifest(path)
    assert back.hu_threshold == 199.999
    assert back.window == (-1000.5, 2047.25)


def test_comments_and_blank_lines_ignored(tmp_path):
    m = _manifest()
    path = tmp_path / "m.manifest"
    write_manifest(path, m)
    text = path.read_text()
    path.write_text("# a comment\n\n" + text + "\n# trailing note\n")
    _touch_volumes(tmp_path, m)
    assert read_manifest(path) == m


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    path.write_text(path.read_text() + "grid_units = parsecs\n")
    with pytest.raises(ManifestError, match="grid_units"):
        read_manifest(path)


def test_missing_key_rejected(tmp_path):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    lines = [l for l in path.read_text().splitlines() if not l.startswith("seed")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="seed"):
        read_manifest(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    path.write_text(path.read_text() + "seed = 9\n")
    with pytest.raises(ManifestError, match="duplicate"):
        read_manifest(path)


def test_missing_volume_file_rejected(tmp_path):
    m = _manifest()
    path = tmp_path / "m.manifest"
    write_manifest(path, m)
    _touch_volumes(tmp_path, m)
    (tmp_path / m.implant).unlink()
    with pytest.raises(ManifestError, match="implant"):
        read_manifest(path)


def test_box_must_fit_dims(tmp_path):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    text = path.read_text().replace("box_origin = 12 20 16", "box_origin = 60 20 16")
    path.write_text(text)
    with pytest.raises(ManifestError, match="box"):
        read_manifest(path)


def test_malformed_lines_rejected(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("case_id case007\n")
    with pytest.raises(ManifestError, match="key = value"):
        read_manifest(path)
    write_manifest(path, _manifest())
    path.write_text(path.read_text().replace("dims = 64 64 32", "dims = 64 64"))
    with pytest.raises(ManifestError, match="dims"):
        read_manifest(path)


def test_bytes_that_are_not_utf8_rejected(tmp_path):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    raw = path.read_bytes()
    at = raw.index(b"case007_bone")
    path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    with pytest.raises(ManifestError, match=rf"m\.manifest: byte {at} is not UTF-8"):
        read_manifest(path)


@pytest.mark.parametrize("cid", ["", "a,b", 'a"b', "a\rb", "a\nb"])
def test_case_id_that_would_break_a_csv_row_rejected(cid):
    with pytest.raises(ManifestError, match="^case_id: .* is empty or holds a comma, a quote, CR or LF"):
        CaseManifest(**{**_manifest().__dict__, "case_id": cid})


@pytest.mark.parametrize("cid", ["", "a,b", 'a"b'])  # CR and LF end a manifest line before it is parsed
def test_read_rejects_a_case_id_that_would_break_a_csv_row(tmp_path, cid):
    path = tmp_path / "m.manifest"
    write_manifest(path, _manifest())
    _touch_volumes(tmp_path, _manifest())
    path.write_text(path.read_text().replace("case_id = case007", f"case_id = {cid}"))
    with pytest.raises(ManifestError, match="^case_id: "):
        read_manifest(path)


# line breaks that str.splitlines splits at besides CR and LF, and blanks at an end, which read_manifest strips
@pytest.mark.parametrize("cid", ["a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\u2029b", " a", "a ", "a\xa0"])
def test_case_id_that_a_manifest_cannot_give_back_rejected(cid):
    with pytest.raises(ManifestError, match="^case_id: .* another line break, or a blank at an end$"):
        CaseManifest(**{**_manifest().__dict__, "case_id": cid})


def test_text_utf8_cannot_encode_rejected():
    """A lone surrogate, as a file name's undecodable byte becomes on POSIX, fails at construction,
    before prep writes any volume, not in write_manifest's encode."""
    with pytest.raises(ManifestError, match=r"^case_id: 'c\\udcff' is empty .* a character UTF-8 cannot encode"):
        CaseManifest(**{**_manifest().__dict__, "case_id": "c\udcff"})
    for key in _VOLUME_KEYS:
        with pytest.raises(ManifestError, match=f"^{key}: volume name .* holds a character UTF-8 cannot encode"):
            CaseManifest(**{**_manifest().__dict__, key: "c\udcff.nii"})


_ID_CHARS = st.one_of(st.characters(), st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u2029\r\n,\"=#"))


@settings(max_examples=300)
@given(st.text(_ID_CHARS, max_size=8))
def test_an_accepted_case_id_survives_a_manifest_round_trip(cid):
    """Every id CaseManifest accepts comes back from write_manifest and read_manifest as written."""
    assume(not _bad_case_id(cid))
    m = CaseManifest(**{**_manifest().__dict__, "case_id": cid})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.manifest"
        write_manifest(path, m)
        _touch_volumes(Path(tmp), m)
        assert read_manifest(path).case_id == cid


def test_window_out_of_order_rejected_at_construction():
    with pytest.raises(ManifestError, match=r"^window: lower bound must be below upper, got \(1\.0, 0\.0\)$"):
        CaseManifest(**{**_manifest().__dict__, "window": (1.0, 0.0)})


def test_box_that_overruns_dims_rejected_at_construction():
    with pytest.raises(ManifestError, match=r"^box_origin/box_size: box \(60, 20, 16\)\+\(16, 16, 16\) exceeds dims"):
        CaseManifest(**{**_manifest().__dict__, "box": Box((60, 20, 16), (16, 16, 16))})


@pytest.mark.parametrize("key", ["case_id", *_VOLUME_KEYS])
@pytest.mark.parametrize("value", [7, Path("x.nii"), b"x.nii", None], ids=["int", "Path", "bytes", "None"])
def test_text_field_that_is_not_a_str_rejected(key, value):
    with pytest.raises(ManifestError, match=f"^{key}: expected text, got {re.escape(repr(value))}$"):
        CaseManifest(**{**_manifest().__dict__, key: value})


@pytest.mark.parametrize("name", ["", " c.nii", "c.nii ", "c.nii\t", "a\nb.nii", "a\rb.nii", "a\u2028b.nii"])
def test_volume_name_a_manifest_cannot_give_back_rejected(name):
    for key in _VOLUME_KEYS:
        with pytest.raises(ManifestError, match=f"^{key}: volume name .* is empty, spans more than one line"):
            CaseManifest(**{**_manifest().__dict__, key: name})


# manifest values that construct: no blank at either end; inner blanks, tabs, control characters,
# "=" and "#" allowed; no line break, comma or quote (the tests above reject those), and no "/" or NUL,
# so that each volume name is one file name ("." and ".." name directories)
_EDGE = st.characters(exclude_categories=("Cc", "Cs", "Z"), exclude_characters='/,"')
_MIDDLE = st.characters(exclude_categories=("Cs",), exclude_characters='/\x00,"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029')
_VALUES = st.builds(lambda a, mid, b: a + mid + b, _EDGE, st.text(_MIDDLE, max_size=6), _EDGE | st.just(""))
_NAMES = _VALUES.filter(lambda n: n not in (".", ".."))


# numbers as Python or numpy scalars (a float field takes integers too), and sequences as tuples,
# lists or numpy arrays: CaseManifest coerces them all to Python numbers in tuples
_INTS = st.sampled_from([int, np.int64, np.int32, np.uint8])
_FLOATS = st.floats() | st.floats().map(np.float64) | st.floats(width=32).map(np.float32) | st.integers(-9, 9)
_SEQUENCES = st.sampled_from([tuple, list, np.array])


@st.composite
def _manifests(draw):
    """Manifest fields, drawn so that most of them construct: the box is drawn inside the dims."""
    dims = draw(st.tuples(*[st.integers(1, 12)] * 3))
    origin = [draw(st.integers(0, n - 1)) for n in dims]
    size = [draw(st.integers(1, n - o)) for n, o in zip(dims, origin)]
    window = sorted(draw(st.tuples(_FLOATS, _FLOATS)), key=float)
    return dict(
        case_id=draw(_VALUES),
        seed=draw(st.integers(-(2**70), 2**70) | st.integers(0, 255).map(draw(_INTS))),
        dims=draw(_SEQUENCES)([draw(_INTS)(n) for n in dims]),
        **dict(zip(_VOLUME_KEYS, draw(st.tuples(_NAMES, _NAMES, _NAMES, _NAMES)))),
        box=Box(tuple(origin), tuple(size)),
        hu_threshold=draw(_FLOATS),
        window=draw(_SEQUENCES)(window),
    )


@settings(max_examples=300)
@given(_manifests())
def test_every_manifest_that_constructs_survives_a_round_trip(fields):
    try:
        m = CaseManifest(**fields)
    except ManifestError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.manifest"
        write_manifest(path, m)
        _touch_volumes(Path(tmp), m)
        # compared by repr, so that a NaN threshold counts as given back
        assert repr(read_manifest(path)) == repr(m)


def test_numpy_typed_numbers_are_stored_as_python_numbers(tmp_path):
    """A manifest built from numpy scalars and arrays equals, and writes the same bytes as, the Python-typed one."""
    m = _manifest()
    typed = CaseManifest(**{**m.__dict__, "seed": np.int64(1234), "dims": np.array([64, 64, 32]),
                            "hu_threshold": np.float64(200.0), "window": np.array([-1024.0, 2048.0])})
    assert typed == m
    assert [type(v) for v in (typed.seed, *typed.dims, typed.hu_threshold, *typed.window)] == [int] * 4 + [float] * 3
    write_manifest(tmp_path / "a.manifest", m)
    write_manifest(tmp_path / "b.manifest", typed)
    assert (tmp_path / "a.manifest").read_bytes() == (tmp_path / "b.manifest").read_bytes()


@pytest.mark.parametrize(
    "key, value",
    [
        ("dims", (64, 64)),
        ("dims", (64, 64, 32, 1)),
        ("dims", 64),
        ("dims", (64.0, 64, 32)),
        ("dims", ("64", "64", "32")),
        ("seed", 1.5),
        ("seed", np.float64(2.0)),
        ("seed", "7"),
        ("seed", [7]),
        ("seed", None),
        ("hu_threshold", "200"),
        ("hu_threshold", (200.0,)),
        pytest.param("hu_threshold", 10**400, id="hu_threshold-int-beyond-float"),
        ("window", (-1024.0,)),
        ("window", (-1024.0, 0.0, 2048.0)),
        ("window", ("-1024", "2048")),
        ("window", np.array(2048.0)),
    ],
)
def test_number_field_of_the_wrong_count_or_type_rejected(key, value):
    with pytest.raises(ManifestError, match=f"^{key}: expected"):
        CaseManifest(**{**_manifest().__dict__, key: value})
