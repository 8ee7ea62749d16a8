"""End-to-end runs of every subcommand through ``main``."""

import functools
import inspect
import os
import shutil
import signal
import warnings

import numpy as np
import pytest

from conftest import fail_atomic_write
from ribfill.cli import _pipeline_config, build_parser, main
from ribfill.defects import PipelineConfig
from ribfill.losses import LOSS_KINDS, LossReport, finite_diff_check
from ribfill.manifest import read_manifest
from ribfill.net import NetConfig, OptState, init_params, save_checkpoint
from ribfill.nifti import read_volume
from ribfill.phantom import PhantomSpec
from ribfill.train import TrainResult, evaluate, train


def run_phantom(out, cases=1, dims=(32, 32, 16)):
    w, h, d = dims
    return main([
        "phantom", "--cases", str(cases), "--dims", str(w), str(h), str(d),
        "--out-dir", str(out),
    ])


def run_prep(out, ct_paths, extra=()):
    return main(["prep", *map(str, ct_paths), "--work-dims", "32", "32", "16",
                 "--out-dir", str(out), *extra])


def _defaults(fn, *names):
    return tuple(inspect.signature(fn).parameters[name].default for name in names)


def test_each_subcommand_defaults_to_the_library_defaults():
    parse = build_parser().parse_args
    a = parse(["phantom"])
    spec = PhantomSpec(dims=tuple(a.dims), spacing=tuple(a.spacing), rib_pairs=a.rib_pairs,
                       rib_radius=a.rib_radius, jitter=a.jitter)
    assert spec == PhantomSpec()
    assert _pipeline_config(parse(["prep", "c_ct.nii"])) == PipelineConfig()
    a = parse(["train", "c.manifest"])
    assert NetConfig(depth=a.depth, base_channels=a.base_channels) == NetConfig()
    opt = OptState()
    assert (a.lr, a.weight_decay, a.batch_size) == (opt.lr, opt.weight_decay, opt.batch_size)
    assert (a.loss, a.region) == _defaults(train, "loss_kind", "region")
    a = parse(["eval", "c.manifest", "--checkpoint", "c.bin"])
    assert (a.threshold, a.percentile) == _defaults(evaluate, "threshold", "percentile")
    assert (parse(["gradcheck"]).h,) == _defaults(finite_diff_check, "h")


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
    out = tmp_path / "prep" / "nested"
    code = run_prep(out, [tmp_path / "case000_ct.nii"], extra=("--min-bone-frac", "0.9"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "prep").exists()  # no directory is made before the first file


def test_prep_rejects_a_case_id_that_breaks_csv_rows_before_writing(tmp_path, capsys):
    run_phantom(tmp_path)
    ct = tmp_path / "a,b_ct.nii"
    (tmp_path / "case000_ct.nii").rename(ct)
    out = tmp_path / "prep"
    assert run_prep(out, [ct]) == 1
    assert capsys.readouterr().err.startswith("error: case_id: 'a,b' is empty or holds a comma")
    assert not out.exists()


def test_prep_rejects_a_repeated_case_id_before_writing(tmp_path, capsys):
    run_phantom(tmp_path / "a")
    a, b = tmp_path / "a" / "case000_ct.nii", tmp_path / "b" / "case000_ct.nii"
    b.parent.mkdir()
    shutil.copy(a, b)
    out = tmp_path / "prep"
    assert run_prep(out, [a, b]) == 1
    assert capsys.readouterr().err == f"error: case_id: {a} and {b} both give case id 'case000'\n"
    assert not out.exists()


def test_prep_rejects_a_case_id_utf8_cannot_encode_before_writing(tmp_path, capsys):
    """A CT file name with a byte that is not UTF-8 gives a case id with a lone surrogate; prep
    fails on it before it writes any of the case's files."""
    run_phantom(tmp_path)
    ct = tmp_path / os.fsdecode(b"c\xff_ct.nii")
    try:
        (tmp_path / "case000_ct.nii").rename(ct)
    except (OSError, UnicodeEncodeError):
        pytest.skip("this file system does not take a file name that is not UTF-8")
    out = tmp_path / "prep"
    assert run_prep(out, [ct]) == 1
    assert capsys.readouterr().err.startswith("error: case_id: 'c\\udcff' is empty or holds")
    assert not out.exists()  # no c\xff_* volume


def test_prep_that_fails_writing_a_volume_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    out.mkdir()
    fail_atomic_write(monkeypatch, out / "case000_defective.nii", "write")
    assert run_prep(out, [tmp_path / "case000_ct.nii"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
    # the manifest is written last, so no manifest names a volume that is missing or torn
    assert sorted(p.name for p in out.iterdir()) == ["case000_bone.nii", "case000_ct.nii"]


def test_prep_rejects_a_defect_box_that_leaves_no_bone_outside_it(tmp_path, capsys):
    """A defect box clamped to the whole grid takes all the bone into the implant: prep fails on the
    split, before it writes a file, not eval on the empty defective volume it would have written."""
    run_phantom(tmp_path)
    out = tmp_path / "prep"
    assert run_prep(out, [tmp_path / "case000_ct.nii"], extra=("--defect-size", "100", "100", "100")) == 1
    assert capsys.readouterr().err == "error: defect box (0, 0, 0)+(32, 32, 16) leaves no bone outside it\n"
    assert not out.exists()


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


def test_train_names_a_truncated_volume(tmp_path, capsys):
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    defective = prep / "case000_defective.nii"
    defective.write_bytes(defective.read_bytes()[:-10])
    capsys.readouterr()
    code = main(["train", str(prep / "case000.manifest"), "--steps", "1", "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data: payload truncated: ")
    assert err[0].endswith(f" in {defective}")


def test_train_rejects_a_batch_size_the_checkpoint_cannot_hold(tmp_path, capsys):
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    capsys.readouterr()
    # pytest.fail is not an OSError, so main cannot turn an overrun into exit 1
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("train ran for over 5 s"))
    signal.alarm(5)
    try:
        code = main(["train", str(prep / "case000.manifest"), "--steps", "1", "--depth", "1",
                     "--batch-size", "4294967296", "--out-dir", str(tmp_path / "run")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: batch_size must be an integer in")
    assert not (tmp_path / "run").exists()


def test_train_summary_line_is_pinned(tmp_path, monkeypatch, capsys):
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    log = [
        LossReport(dice=0.1 + 0.2, mse=1 / 3, err=2 / 3, gf=1e-300, rib=1.0, n=1),
        LossReport(dice=0.0000005, mse=2 / 3, err=0.1234565, gf=1e-7, rib=12.5, n=1),
    ]
    params = init_params(NetConfig(depth=1, base_channels=1), seed=0)
    # wrapped, so that the parser still reads train's defaults from its signature
    fake = functools.wraps(train)(lambda *a, **k: TrainResult(params, OptState(), log))
    monkeypatch.setattr("ribfill.cli.train", fake)
    capsys.readouterr()
    assert main(["train", str(prep / "case000.manifest"), "--out-dir", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "step 2: dice=0.000000 mse=0.666667 err=0.123456 gf=0.000000 rib=12.500000"


@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_train_rejects_an_infinite_rate_before_writing(tmp_path, capsys, flag):
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    capsys.readouterr()
    code = main(["train", str(prep / "case000.manifest"), "--steps", "1", "--depth", "1",
                 flag, "inf", "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {flag[2:].replace('-', '_')} must be finite, got inf"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_diverging_train_prints_one_error_line_and_leaves_no_directory(tmp_path, monkeypatch, capsys, workers):
    # two workers run the forward's convs on threads of their own
    monkeypatch.setattr("ribfill.net._two_workers", lambda *shape: workers == 2)
    run_phantom(tmp_path, dims=(16, 16, 8))
    prep = tmp_path / "prep"
    assert main(["prep", str(tmp_path / "case000_ct.nii"), "--work-dims", "16", "16", "8",
                 "--out-dir", str(prep)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        # a numpy warning would raise here rather than reach stderr beside the error
        warnings.simplefilter("error")
        code = main(["train", str(prep / "case000.manifest"), "--steps", "3", "--depth", "1",
                     "--lr", "1e300", "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: diverged at step 2, case 0: "), err
    assert not (tmp_path / "run").exists()


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


def test_gradcheck_fails_on_a_nan_relative_error(capsys):
    # with h = 1e300, (p + h)**2 overflows and the central difference is inf - inf = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["gradcheck", "--pairs", "2", "--dims", "2", "2", "2", "--h", "1e300"]) == 1
    out = capsys.readouterr().out.splitlines()
    for kind in ("mse", "err", "gf", "mse+err", "mse+err+gf"):
        assert f"{kind}: max rel err nan (FAIL, tol 0.0001)" in out


@pytest.mark.parametrize("argv, text", [
    (["--pairs", "0"], "--pairs must be at least 1, got 0"),
    (["--pairs", "-3"], "--pairs must be at least 1, got -3"),
    (["--tol", "nan"], "--tol must be positive and finite, got nan"),
    (["--tol", "inf"], "--tol must be positive and finite, got inf"),
    (["--tol", "0"], "--tol must be positive and finite, got 0.0"),
    (["--tol=-1e-4"], "--tol must be positive and finite, got -0.0001"),
], ids=["pairs-0", "pairs-negative", "tol-nan", "tol-inf", "tol-0", "tol-negative"])
def test_gradcheck_rejects_bad_pairs_and_tol_before_checking(capsys, monkeypatch, argv, text):
    ran = functools.wraps(finite_diff_check)(lambda *a, **k: pytest.fail("a check ran"))
    monkeypatch.setattr("ribfill.cli.finite_diff_check", ran)
    assert main(["gradcheck", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {text}"]
