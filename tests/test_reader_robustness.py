"""Damaged files: each reader either reads one or raises its own typed error, and never anything else,
and ``prep``, ``train`` and ``eval`` given a damaged input either run or fail with one ``error:`` line.

Hypothesis truncates a valid file or flips one to three of its bits; the
profile registered in conftest derandomizes it, so every run checks the
same damage.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribfill.cli import main
from ribfill.grid import UNIT, Box, Volume
from ribfill.manifest import CaseManifest, ManifestError, read_manifest, write_manifest
from ribfill.net import CheckpointError, NetConfig, OptState, adam_step, init_params, load_checkpoint, save_checkpoint
from ribfill.nifti import NiftiError, read_volume, write_volume

def _damage(data, raw: bytes) -> bytes:
    """raw truncated, or with one to three of its bits flipped, as drawn from ``data``."""
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
    bits = st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3, unique=True)
    for bit in data.draw(bits, label="flipped bits"):
        raw[bit >> 3] ^= 1 << (bit & 7)
    return bytes(raw)


_READERS = {
    "u8.nii": (read_volume, NiftiError),
    "f32.nii": (read_volume, NiftiError),
    "case.manifest": (read_manifest, ManifestError),
    "checkpoint.bin": (load_checkpoint, CheckpointError),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding one valid file per entry of ``_READERS``, and the volumes the manifest names."""
    d = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(0)
    write_volume(d / "u8.nii", Volume(rng.uniform(size=(4, 5, 6)), (1.0, 2.0, 3.0), UNIT), "uint8")
    f32 = rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64)
    write_volume(d / "f32.nii", Volume(f32, (0.5, 1.0, 2.0)), "float32")
    m = CaseManifest(
        case_id="case003", seed=77, dims=(6, 5, 4), ct="ct.nii", bone="bone.nii",
        defective="defective.nii", implant="implant.nii", box=Box((1, 1, 0), (4, 3, 4)),
        hu_threshold=200.0, window=(-1024.0, 2048.0),
    )
    for name in (m.ct, m.bone, m.defective, m.implant):
        (d / name).write_bytes(b"")
    write_manifest(d / "case.manifest", m)
    params = init_params(NetConfig(depth=1, base_channels=1), seed=0)
    opt = OptState()
    adam_step(params, {k: rng.normal(size=p.shape) for k, p in params.tensors.items()}, opt)  # Adam moments saved too
    save_checkpoint(d / "checkpoint.bin", params, opt)
    return d


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=150)
@given(data=st.data())
def test_damaged_files_read_or_raise_their_typed_error(valid, name, data):
    damaged = valid / f"damaged-{name}"  # beside the volumes the manifest names
    damaged.write_bytes(_damage(data, (valid / name).read_bytes()))
    read, error = _READERS[name]
    try:
        read(damaged)
    except error:
        pass


# the files each command reads, any of which may be damaged, and the files it writes
_INPUTS = {
    "prep": ("case000_ct.nii",),
    "train": ("case000.manifest", "case000_defective.nii", "case000_implant.nii"),
    "eval": ("case000.manifest", "case000_defective.nii", "case000_implant.nii", "checkpoint.bin"),
}
_WRITES = {
    "prep": {"case000.manifest", "case000_ct.nii", "case000_bone.nii", "case000_defective.nii", "case000_implant.nii"},
    "train": {"checkpoint.bin", "training_log.csv"},
    "eval": {"metrics.csv"},
}
# the directories of the ``desk`` fixture that each command's inputs and its output directory are copied from
_DIRS = {"prep": ("raw", "in"), "train": ("in", "out"), "eval": ("in", "out")}


def _argv(command, src):
    """``command``'s arguments, but for ``--out-dir``, on the inputs in ``src``."""
    return {
        "prep": ["prep", src / "case000_ct.nii", "--seed", 25],
        "train": ["train", src / "case000.manifest", "--steps", 1, "--depth", 1, "--base-channels", 2],
        "eval": ["eval", src / "case000.manifest", "--checkpoint", src / "checkpoint.bin"],
    }[command]


def _quiet_main(argv):
    """``main``'s return code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(map(str, argv)))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """A desk-recipe CT in ``raw``, the case prepared from it in ``in`` and, in ``out``, the files a depth-1
    train and eval wrote on it."""
    d = tmp_path_factory.mktemp("desk")
    steps = [
        ["phantom", "--dims", 64, 64, 32, "--spacing", 6, 6, 12, "--rib-radius", 2.6, "--out-dir", d / "raw"],
        ["prep", d / "raw" / "case000_ct.nii", "--seed", 25, "--out-dir", d / "in"],
        ["train", d / "in" / "case000.manifest", "--steps", 1, "--depth", 1, "--base-channels", 2,
         "--out-dir", d / "out"],
        ["eval", d / "in" / "case000.manifest", "--checkpoint", d / "out" / "checkpoint.bin", "--out-dir", d / "out"],
    ]
    for argv in steps:
        assert _quiet_main(argv) == (0, "")
    shutil.copy(d / "out" / "checkpoint.bin", d / "in")
    return d


@pytest.mark.parametrize("command", sorted(_INPUTS))
@settings(max_examples=30)
@given(data=st.data())
def test_commands_on_a_damaged_input_run_or_fail_with_one_error_line(desk, command, data):
    """main returns 0 or 1 and raises nothing; a failed run prints one ``error:`` line and changes no file
    in its output directory, and a run that succeeds changes only the files it writes, and writes them
    again byte for byte when rerun."""
    target = data.draw(st.sampled_from(_INPUTS[command]), label="damaged file")
    with tempfile.TemporaryDirectory(dir=desk) as work:
        src, out = Path(work) / "src", Path(work) / "out"
        shutil.copytree(desk / _DIRS[command][0], src)
        shutil.copytree(desk / _DIRS[command][1], out)
        (src / target).write_bytes(_damage(data, (src / target).read_bytes()))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = _argv(command, src)
        code, err = _quiet_main([*argv, "--out-dir", out])
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert code in (0, 1)
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        else:  # a rerun into a fresh directory writes the same bytes
            assert _quiet_main([*argv, "--out-dir", Path(work) / "rerun"])[0] == 0
            assert {p.name: p.read_bytes() for p in (Path(work) / "rerun").iterdir()} == {
                n: after[n] for n in _WRITES[command]}
    kept = set(before) - (set() if code else _WRITES[command])
    assert set(after) == set(before)
    assert {n: after[n] for n in kept} == {n: before[n] for n in kept}
