"""Manifest text format: round trips, strict key set, file checks."""

import pytest

from ribfill.grid import Box
from ribfill.manifest import CaseManifest, ManifestError, read_manifest, write_manifest


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
