"""Shared helpers plus a per-criterion summary for the acceptance tests."""

import errno
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ribfill.grid import UNIT, Mask, Volume, crop

# generated tests draw the same examples on every run, so Tier-1 stays repeatable
settings.register_profile("ribfill", derandomize=True, database=None, deadline=None, print_blob=False)
settings.load_profile("ribfill")


def unit_volume(rng, dims, spacing=(1.0, 1.0, 1.0)):
    w, h, d = dims
    return Volume(rng.uniform(0.0, 1.0, size=(d, h, w)), spacing, UNIT)


def random_mask(rng, dims, density, spacing=(1.0, 1.0, 1.0)):
    w, h, d = dims
    return Mask((rng.uniform(size=(d, h, w)) < density).astype(np.float64), spacing)


def conv_preact(src, lo, hi, w, b):
    """A conv's output before its ReLU, exactly: ``net._conv_layer`` clamps, but negating w and b
    negates every product and sum, so relu(v) - relu(-v) gives back v."""
    from ribfill import net as netmod

    (pos,), (neg,) = (netmod._conv_layer(src, lo, hi, s * w, s * b) for s in (1.0, -1.0))
    return pos - neg


def _relu_preacts(params, tape):
    """Pre-activation of every conv on the tape, keyed by record index."""
    t = params.tensors
    preacts = {}
    for k, (op, layer, lo, saved) in enumerate(tape.records):
        if op == "conv":
            src, y = saved
            preacts[k] = conv_preact(src, lo, lo + y.shape[1:], t[f"{layer}.w"], t[f"{layer}.b"])
    return preacts


def _pool_gaps(tape, preacts):
    """Top-two gap of every pooling window; a pool reads the conv recorded just before it."""
    gaps = []
    for k, (op, *_) in enumerate(tape.records):
        if op != "pool":
            continue
        y = np.maximum(preacts[k - 1], 0.0)
        c, d, h, w = y.shape
        w8 = (
            y.reshape(c, d // 2, 2, h // 2, 2, w // 2, 2)
            .transpose(0, 1, 3, 5, 2, 4, 6)
            .reshape(c, d // 2, h // 2, w // 2, 8)
        )
        srt = np.sort(w8, axis=-1)
        top, second = srt[..., -1], srt[..., -2]
        gaps.append(np.where(top > 0, top - second, np.inf))
    return gaps


def smooth_net_case(config, start_seed, relu_margin=1e-5, pool_margin=1e-4):
    """First seeded (params, input, target) clear of relu kinks and pooling ties.

    Finite differences on the net are only trustworthy where a parameter nudge
    cannot flip a relu sign or a pooling argmax, so seeds whose pre-activations
    or pooling gaps sit inside the margins are passed over.
    """
    from ribfill.net import forward, init_params

    seed = start_seed
    while True:
        rng = np.random.default_rng(seed)
        params = init_params(config, seed=seed)
        x = unit_volume(rng, (8, 8, 8))
        g = unit_volume(rng, (8, 8, 8))
        _, tape = forward(params, x)
        preacts = _relu_preacts(params, tape)
        clear = all(np.abs(p).min() > relu_margin for p in preacts.values())
        clear = clear and all(g2.min() > pool_margin for g2 in _pool_gaps(tape, preacts))
        if clear:
            return params, x, g, seed
        seed += 1


def net_fd_worst(params, x, g, kind="mse+err+gf", h=1e-6, resolve_floor=2e-7, stride=1, box=None):
    """Worst relative error of analytic vs central-difference parameter gradients.

    Gradients below ``resolve_floor`` are beyond what the difference quotient
    can resolve in float64; those probes instead assert the numeric estimate is
    itself negligible, so a dropped term would still surface.  A NaN error
    is the worst case and is kept, so no tolerance passes it.  With ``box``
    the loss is scored on that crop only, as training's defect-crop region
    does, and the net runs on that box's cone of each layer.
    """
    from ribfill.losses import loss_gradient, loss_value
    from ribfill.net import backward, forward

    target = crop(g, box) if box is not None else g
    out, tape = forward(params, x, box)
    grads = backward(tape, loss_gradient(kind, out, target))
    worst = 0.0
    for name, p in params.tensors.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(0, flat.size, stride):
            orig = flat[j]
            flat[j] = orig + h
            fp = loss_value(kind, forward(params, x, box)[0], target)
            flat[j] = orig - h
            fm = loss_value(kind, forward(params, x, box)[0], target)
            flat[j] = orig
            numeric = (fp - fm) / (2 * h)
            if abs(gflat[j]) < resolve_floor:
                assert abs(numeric) < 1e-6, f"{name}[{j}]: analytic ~0 but numeric {numeric}"
                continue
            rel = abs(gflat[j] - numeric) / max(abs(gflat[j]), abs(numeric), 1e-8)
            worst = np.maximum(worst, rel)  # keeps a NaN, which max() would drop
    return worst


class _HalfWriter:
    """A file whose write stores half the bytes and then fails, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_atomic_write(monkeypatch, target, step):
    """Make ``grid._write_atomic`` fail at ``step`` (``write``, ``fsync`` or ``replace``) while it writes ``target``.

    Writes to other paths go through, so a CLI stage can write its other files
    before the one that fails.
    """
    import ribfill.grid as gridmod

    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    real_fsync, real_replace = os.fsync, os.replace
    tmp_fds = set()

    def open_(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if Path(file) != tmp:
            return fh
        if step == "write":
            return _HalfWriter(fh)
        tmp_fds.add(fh.fileno())
        return fh

    def fsync(fd):
        if step == "fsync" and fd in tmp_fds:
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    def replace(src, dst):
        if step == "replace" and Path(src) == tmp:
            raise OSError(errno.EIO, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(gridmod, "open", open_, raising=False)
    monkeypatch.setattr(gridmod.os, "fsync", fsync)
    monkeypatch.setattr(gridmod.os, "replace", replace)


_TITLES = {
    1: "full-scale results documented as out of reach",
    2: "loss gradients match finite differences",
    3: "network parameter gradients match finite differences",
    4: "hausdorff and edt equal their brute-force oracles exactly",
    5: "defect split partitions the stencil on 50 phantom cases",
    6: "single-case overfit reaches the loss and dsc bars",
    7: "err and gf move the right way under targeted edits",
    8: "reruns are bitwise identical",
    9: "float32 volume io round trips bit for bit",
}
_outcomes = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_c(\d+)", report.nodeid)
    if not m:
        return
    crit = int(m.group(1))
    if report.when == "call":
        _outcomes[crit] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[crit] = "error" if report.failed else report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(_TITLES):
        outcome = _outcomes.get(crit, "not run")
        flag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {crit}: {flag} - {_TITLES[crit]}")
