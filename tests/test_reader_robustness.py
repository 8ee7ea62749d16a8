"""Damaged files: each reader either reads one or raises its own typed error, and never anything else.

Hypothesis truncates a valid file or flips one to three of its bits; the
profile registered in conftest derandomizes it, so every run checks the
same damage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribfill.grid import UNIT, Box, Volume
from ribfill.manifest import CaseManifest, ManifestError, read_manifest, write_manifest
from ribfill.net import CheckpointError, NetConfig, OptState, adam_step, init_params, load_checkpoint, save_checkpoint
from ribfill.nifti import NiftiError, read_volume, write_volume

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
    raw = bytearray((valid / name).read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bits = st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3, unique=True)
        for bit in data.draw(bits, label="flipped bits"):
            raw[bit >> 3] ^= 1 << (bit & 7)
    damaged = valid / f"damaged-{name}"  # beside the volumes the manifest names
    damaged.write_bytes(bytes(raw))
    read, error = _READERS[name]
    try:
        read(damaged)
    except error:
        pass
