"""End-to-end runs of every subcommand through ``main``."""

import numpy as np
import pytest

from ribfill.cli import main
from ribfill.losses import LOSS_KINDS
from ribfill.manifest import read_manifest
from ribfill.net import NetConfig, OptState, init_params, save_checkpoint
from ribfill.nifti import read_volume


def run_phantom(out, cases=1, dims=(32, 32, 16)):
    w, h, d = dims
    return main([
        "phantom", "--cases", str(cases), "--dims", str(w), str(h), str(d),
        "--out-dir", str(out),
    ])


def run_prep(out, ct_paths, extra=()):
    return main(["prep", *map(str, ct_paths), "--work-dims", "32", "32", "16",
                 "--out-dir", str(out), *extra])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ribfill ")


def test_phantom_writes_ct_volumes(tmp_path):
    assert run_phantom(tmp_path, cases=2) == 0
    for i in range(2):
        vol, header = read_volume(tmp_path / f"case{i:03d}_ct.nii", domain="HU")
        assert header.datatype == "float32"
        assert vol.dims == (32, 32, 16)
        assert vol.data.min() == -1000.0


def test_phantom_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_phantom(a)
    run_phantom(b)
    assert (a / "case000_ct.nii").read_bytes() == (b / "case000_ct.nii").read_bytes()


def test_prep_writes_case_files_and_manifest(tmp_path):
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    assert run_prep(out, [tmp_path / "case000_ct.nii"]) == 0
    m = read_manifest(out / "case000.manifest")
    assert m.case_id == "case000"
    assert m.dims == (32, 32, 16)
    defective = read_volume(out / "case000_defective.nii")[0]
    implant = read_volume(out / "case000_implant.nii")[0]
    bone = read_volume(out / "case000_bone.nii")[0]
    assert np.array_equal(bone.data, np.maximum(defective.data, implant.data))
    assert implant.data[m.box.slices].sum() == implant.data.sum()


def test_prep_rejects_impossible_placement(tmp_path, capsys):
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    code = run_prep(out, [tmp_path / "case000_ct.nii"], extra=("--min-bone-frac", "0.9"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_prep_rejects_a_case_id_that_breaks_csv_rows_before_writing(tmp_path, capsys):
    run_phantom(tmp_path)
    ct = tmp_path / "a,b_ct.nii"
    (tmp_path / "case000_ct.nii").rename(ct)
    out = tmp_path / "prep"
    assert run_prep(out, [ct]) == 1
    assert capsys.readouterr().err.startswith("error: case_id: 'a,b' is empty or holds a comma")
    assert list(out.iterdir()) == []


def test_prep_defect_flags_reach_placement(tmp_path):
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    code = run_prep(out, [tmp_path / "case000_ct.nii"],
                    extra=("--defect-size", "8", "8", "4", "--band", "0.2", "0.9"))
    assert code == 0
    m = read_manifest(out / "case000.manifest")
    assert m.box.size == (8, 8, 4)
    assert round(0.2 * 16) <= m.box.origin[2] <= round(0.9 * 16)  # band of the 16-deep grid


def test_prep_rejects_inverted_band(tmp_path, capsys):
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    code = run_prep(out, [tmp_path / "case000_ct.nii"], extra=("--band", "0.9", "0.1"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(out.glob("case000*"))


def test_train_then_eval_flow(tmp_path, capsys):
    run_phantom(tmp_path)
    prep = tmp_path / "prep"
    run_prep(prep, [tmp_path / "case000_ct.nii"])
    run_dir = tmp_path / "run"
    code = main([
        "train", str(prep / "case000.manifest"), "--steps", "3", "--loss", "err",
        "--depth", "1", "--base-channels", "2", "--out-dir", str(run_dir),
    ])
    assert code == 0
    log = (run_dir / "training_log.csv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "step,dice,mse,err,gf,rib"
    assert len(log) == 4
    code = main([
        "eval", str(prep / "case000.manifest"),
        "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--threshold", "0.45", "--out-dir", str(run_dir),
    ])
    assert code == 0
    table = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "case,dsc,hd_mm,hd_ab,hd_ba"
    assert table[1].startswith("case000,")
    assert "mean dsc=" in capsys.readouterr().out


def test_train_missing_manifest_errors(tmp_path, capsys):
    code = main(["train", str(tmp_path / "nope.manifest"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_train_rejects_volumes_that_do_not_match_manifest_dims(tmp_path, capsys):
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    manifest = prep / "case000.manifest"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("dims = 16 16 8", "dims = 64 64 32"), encoding="utf-8")
    code = main(["train", str(manifest), "--steps", "1", "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "case000_defective.nii" in err
    assert "(16, 16, 8)" in err and "(64, 64, 32)" in err


def test_eval_rejects_foreign_checkpoint(tmp_path, capsys):
    run_phantom(tmp_path)
    prep = tmp_path / "prep"
    run_prep(prep, [tmp_path / "case000_ct.nii"])
    bogus = tmp_path / "checkpoint.bin"
    bogus.write_bytes(b"not a checkpoint")
    code = main([
        "eval", str(prep / "case000.manifest"),
        "--checkpoint", str(bogus), "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_names_the_manifest_of_an_empty_prediction(tmp_path, capsys):
    run_phantom(tmp_path)
    prep = tmp_path / "prep"
    run_prep(prep, [tmp_path / "case000_ct.nii"])
    params = init_params(NetConfig(depth=1, base_channels=2), seed=0)
    params.tensors["head.b"][:] = -50.0  # every output is far below the 0.5 threshold
    checkpoint = tmp_path / "checkpoint.bin"
    save_checkpoint(checkpoint, params, OptState())
    manifest = prep / "case000.manifest"
    run_dir = tmp_path / "run"
    code = main(["eval", str(manifest), "--checkpoint", str(checkpoint), "--out-dir", str(run_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: case 0 at threshold 0.5: ")
    assert not (run_dir / "metrics.csv").exists()


def test_gradcheck_passes_by_default(capsys):
    assert main(["gradcheck", "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    for kind in LOSS_KINDS:
        assert f"{kind}: max rel err" in out


def test_gradcheck_reports_failure(capsys):
    assert main(["gradcheck", "--pairs", "2", "--kinds", "mse", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out
