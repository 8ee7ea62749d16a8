"""Network blocks, gradient checks, optimiser behaviour, checkpoints."""

import errno
import gc
import itertools
import math
import signal
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import ribfill.net as netmod
from conftest import net_fd_worst, smooth_net_case, unit_volume
from ribfill.grid import UNIT, BoundsError, Box, DomainError, ShapeError, Volume
from ribfill.losses import loss_gradient, loss_value
from ribfill.net import (
    CheckpointError,
    NetConfig,
    NetParams,
    OptState,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

S = (1.0, 1.0, 1.0)


def test_config_validation_and_plan():
    with pytest.raises(DomainError):
        NetConfig(depth=0)
    with pytest.raises(DomainError):
        NetConfig(base_channels=0)
    plan = NetConfig(depth=2, base_channels=8).layer_plan()
    names = [p[0] for p in plan]
    assert names == ["enc0", "enc1", "bott", "dec1.reduce", "dec1.merge", "dec0.reduce", "dec0.merge", "head"]
    assert plan[0][1:] == (1, 8)
    assert plan[2][1:] == (16, 32)
    assert plan[-1][1:] == (8, 1)


def test_tiny_config_stays_small():
    params = init_params(NetConfig(depth=1, base_channels=1), seed=0)
    assert sum(t.size for t in params.tensors.values()) <= 500


def test_init_is_seeded_and_fan_in_scaled():
    a = init_params(NetConfig(depth=1, base_channels=2), seed=3)
    b = init_params(NetConfig(depth=1, base_channels=2), seed=3)
    c = init_params(NetConfig(depth=1, base_channels=2), seed=4)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)
    w = a.tensors["enc0.w"]
    assert np.abs(w).max() <= 1.0 / np.sqrt(27)
    assert np.all(a.tensors["enc0.b"] == 0.0)
    wb = a.tensors["bott.w"]  # fan-in 2*27
    assert np.abs(wb).max() <= 1.0 / np.sqrt(54)


def test_zero_weights_give_half_everywhere():
    params = init_params(NetConfig(depth=1, base_channels=2), seed=0)
    for t in params.tensors.values():
        t[:] = 0.0
    rng = np.random.default_rng(0)
    out, _ = forward(params, unit_volume(rng, (8, 8, 8)))
    assert np.all(out.data == 0.5)


def test_forward_output_contract():
    rng = np.random.default_rng(1)
    params = init_params(NetConfig(depth=2, base_channels=2), seed=1)
    v = unit_volume(rng, (8, 8, 8), spacing=(2.0, 3.0, 4.0))
    out, _ = forward(params, v)
    assert out.dims == v.dims
    assert out.spacing == v.spacing
    assert out.domain == UNIT
    assert np.all((out.data > 0.0) & (out.data < 1.0))
    out2, _ = forward(params, v)
    assert np.array_equal(out.data, out2.data)


def test_forward_rejects_bad_input():
    params = init_params(NetConfig(depth=2, base_channels=2), seed=0)
    rng = np.random.default_rng(2)
    with pytest.raises(ShapeError):
        forward(params, unit_volume(rng, (6, 8, 8)))  # 6 not divisible by 4
    hu = Volume(np.zeros((8, 8, 8)), S, "HU")
    with pytest.raises(DomainError):
        forward(params, hu)
    with pytest.raises(BoundsError):
        forward(params, unit_volume(rng, (8, 8, 8)), Box((6, 0, 0), (4, 8, 8)))


def test_backward_rejects_mismatched_gradient():
    rng = np.random.default_rng(3)
    params = init_params(NetConfig(depth=1, base_channels=2), seed=0)
    _, tape = forward(params, unit_volume(rng, (8, 8, 8)))
    bad = Volume(np.zeros((4, 4, 4)), S)
    with pytest.raises(ShapeError):
        backward(tape, bad)


def test_maxpool_ties_route_to_first_in_scan_order():
    x = np.zeros((1, 2, 2, 2))
    x[0] = 1.0  # all eight candidates tie
    y, idx = netmod._maxpool2(x)
    assert y.reshape(-1).tolist() == [1.0]
    assert idx.reshape(-1).tolist() == [0]  # (dz, dy, dx) = (0, 0, 0)
    g = netmod._maxpool2_grad(np.full((1, 1, 1, 1), 5.0), idx)
    assert g[0, 0, 0, 0] == 5.0
    assert g.sum() == 5.0
    # a tie only along x still picks the smaller x
    x2 = np.zeros((1, 2, 2, 2))
    x2[0, 1, 1, 0] = 2.0
    x2[0, 1, 1, 1] = 2.0
    _, idx2 = netmod._maxpool2(x2)
    assert idx2.reshape(-1).tolist() == [6]  # dz=1, dy=1, dx=0


# (Ci, Co, D, H, W) and the block budget.  At 3500 bytes the walk over a
# 3x4x7 grid (padded rows of Wp = 9 columns; 162 output columns for the
# input's window, 270 for the framed gradient) takes blocks 24 columns wide
# (22 output columns) for Ci = 2 and 16 wide (14) for Ci = 3: several full
# blocks, a short tail, and block edges in the middle of a row.
@pytest.mark.parametrize("shape, block_bytes", [
    ((3, 2, 4, 5, 6), None),
    ((2, 3, 3, 4, 7), 3500),
], ids=["one-block", "many-blocks"])
def test_conv_matches_direct_computation(monkeypatch, shape, block_bytes):
    c_in, c_out, d, h, w_ = shape
    if block_bytes is not None:
        monkeypatch.setattr(netmod, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(c_in, d, h, w_))
    w = rng.normal(size=(c_out, c_in, 3, 3, 3))
    b = rng.normal(size=c_out)
    gy = rng.normal(size=(c_out, d, h, w_))
    xp = np.zeros((c_in, d + 2, h + 2, w_ + 2))
    xp[:, 1:-1, 1:-1, 1:-1] = x
    ref = np.zeros((c_out, d, h, w_))
    ref_gw = np.zeros(w.shape)
    ref_gxp = np.zeros(xp.shape)  # the adjoint, scattered tap by tap
    for co, ci, dz, dy, dx in itertools.product(range(c_out), range(c_in), range(3), range(3), range(3)):
        win = (ci, slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w_))
        ref[co] += w[co, ci, dz, dy, dx] * xp[win]
        ref_gw[co, ci, dz, dy, dx] = np.sum(gy[co] * xp[win])
        ref_gxp[win] += w[co, ci, dz, dy, dx] * gy[co]

    o = np.zeros(3, dtype=int)
    xp = netmod._conv_window(((x, o),), o, np.array((d, h, w_)))
    gp = netmod._frame(gy)
    y = netmod._conv3(xp, netmod._w2(w))[:, :, :h, :w_]
    assert np.allclose(y, ref, rtol=0, atol=1e-12)
    y = netmod._conv_layer(((x, o),), o, np.array((d, h, w_)), w, b)
    assert np.allclose(y, ref + b[:, None, None, None], rtol=0, atol=1e-12)
    gw = netmod._conv3_weight_grad(xp, gp)
    assert np.allclose(gw, ref_gw, rtol=0, atol=1e-12)
    # the transposed conv fills the grid grown by one voxel a side, halo included
    gx = netmod._conv3(gp, netmod._w2_flipped(w))
    assert np.allclose(gx, ref_gxp, rtol=0, atol=1e-12)
    if block_bytes is not None:
        for win in (xp, gp):  # the forward/dW walk and the dX walk
            blocks = [(cols, blk.shape[1]) for cols, blk in netmod._patches(win)]
            spans = [cols.stop - cols.start for cols, _ in blocks]
            assert len(spans) > 2 and 0 < spans[-1] < spans[0]
            assert any(cols.start % (w_ + 2) for cols, _ in blocks)
            # every GEMM is a multiple of 8 columns wide, the short tail too
            assert all(width % 8 == 0 and width >= span + 2 for (_, width), span in zip(blocks, spans))


# the last case scores the loss on a crop touching the x = 0 face, so backward
# runs on a support box smaller than the grid
@pytest.mark.parametrize("depth, box", [
    (1, None),
    (2, None),
    (2, Box((0, 2, 3), (3, 4, 5))),
], ids=["1", "2", "2-face-box"])
def test_net_parameter_gradients_match_finite_differences(depth, box):
    params, x, g, _ = smooth_net_case(NetConfig(depth=depth, base_channels=2), start_seed=5)
    assert net_fd_worst(params, x, g, stride=3, box=box) < 1e-3


def _dense_backward(tape, grad_out):
    """Full-grid reverse walk over the tape with direct 27-tap conv loops."""
    t = tape.params.tensors
    grads = {}
    g = grad_out[None] * tape.out * (1.0 - tape.out)
    skips = []
    for op, layer, _, saved in reversed(tape.records):
        if op == "head":
            grads["head.w"] = np.einsum("vzyx,czyx->vc", g, saved)
            grads["head.b"] = g.sum(axis=(1, 2, 3))
            g = np.einsum("vc,vzyx->czyx", t["head.w"], g)
        elif op == "conv":
            src, mask = saved
            w = t[f"{layer}.w"]
            g = g * mask
            _, d, h, w_ = mask.shape
            xp = netmod._conv_window(src, np.zeros(3, dtype=int), np.array(mask.shape[1:]))[:, :-1]
            gxp = np.zeros(xp.shape)
            gw = np.zeros(w.shape)
            for dz, dy, dx in itertools.product(range(3), repeat=3):
                win = (slice(None), slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w_))
                gw[:, :, dz, dy, dx] = np.einsum("ozyx,izyx->oi", g, xp[win])
                gxp[win] += np.einsum("oi,ozyx->izyx", w[:, :, dz, dy, dx], g)
            grads[f"{layer}.w"], grads[f"{layer}.b"] = gw, g.sum(axis=(1, 2, 3))
            g = gxp[:, 1:-1, 1:-1, 1:-1]
        elif op == "cat":
            skips.append(g[:saved])
            g = sum(g[saved:, a::2, b::2, c::2] for a, b, c in itertools.product(range(2), repeat=3))
        else:  # pool: winner k = dz*4 + dy*2 + dx
            c, d, h, w_ = g.shape
            gx = np.zeros((c, 2 * d, 2 * h, 2 * w_))
            for k, (a, b, cc) in enumerate(itertools.product(range(2), repeat=3)):
                gx[:, a::2, b::2, cc::2] = np.where(saved == k, g, 0.0)
            g = gx + skips.pop()
    return grads


# (z, y, x) bounds [lo, hi) of the output gradient's support on a 16x8x24
# (D, H, W) grid: one box on each face, a corner, an odd origin and size (so
# cat and pool must align the box), one voxel, the whole grid, and no support
_BOXES = {
    "z-low": ((0, 2, 5), (5, 6, 12)),
    "z-high": ((11, 2, 5), (16, 6, 12)),
    "y-low": ((3, 0, 5), (9, 3, 12)),
    "y-high": ((3, 5, 5), (9, 8, 12)),
    "x-low": ((3, 2, 0), (9, 6, 7)),
    "x-high": ((3, 2, 17), (9, 6, 24)),
    "corner": ((10, 5, 18), (16, 8, 24)),
    "odd": ((3, 1, 5), (8, 4, 12)),
    "voxel": ((7, 3, 11), (8, 4, 12)),
    "full": ((0, 0, 0), (16, 8, 24)),
    "zero": None,
}


@pytest.mark.parametrize("box", list(_BOXES))
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_backward_matches_dense_reference(depth, box):
    rng = np.random.default_rng(depth)
    params = init_params(NetConfig(depth=depth, base_channels=2), seed=depth)
    out, tape = forward(params, unit_volume(rng, (24, 8, 16)))
    g = np.zeros(out.data.shape)
    if _BOXES[box] is not None:
        sl = tuple(slice(a, b) for a, b in zip(*_BOXES[box]))
        g[sl] = rng.normal(size=g[sl].shape)
    grads = backward(tape, Volume(g, S))
    ref = _dense_backward(tape, g)
    assert set(grads) == set(params.tensors)
    for name, p in params.tensors.items():
        assert grads[name].shape == p.shape
        # an all-zero reference demands exact zeros
        assert np.abs(grads[name] - ref[name]).max() <= 1e-12 * np.abs(ref[name]).max(), name
    adam_step(params, grads, OptState())


# At 10000 bytes each conv walks its window in several blocks, so a block
# ends at a different voxel on the box than on the whole grid; at these sizes
# the default budget walks every window in one block.
@pytest.mark.parametrize("block_bytes", [None, 10000], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("box", [name for name, b in _BOXES.items() if b is not None])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_box_forward_matches_full_forward_bitwise(monkeypatch, depth, box, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(netmod, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(10 + depth)
    params = init_params(NetConfig(depth=depth, base_channels=2), seed=depth)
    vol = unit_volume(rng, (24, 8, 16))
    lo, hi = (np.array(b) for b in _BOXES[box])
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    full, full_tape = forward(params, vol)
    out, tape = forward(params, vol, Box(tuple(lo[::-1]), tuple((hi - lo)[::-1])))
    assert out.data.tobytes() == full.data[sl].tobytes()
    g = rng.normal(size=out.data.shape)
    g_full = np.zeros(full.data.shape)
    g_full[sl] = g
    grads = backward(tape, Volume(g, S))
    ref = backward(full_tape, Volume(g_full, S))
    for name in params.tensors:
        assert grads[name].tobytes() == ref[name].tobytes(), name


def _record_ops(depth):
    """(op, layer) of every tape record at this depth, in record order."""
    params = init_params(NetConfig(depth=depth, base_channels=1), seed=0)
    _, tape = forward(params, Volume(np.zeros((1 << depth,) * 3), S, UNIT))
    return [(op, layer) for op, layer, _, _ in tape.records]


def test_desk_box_demand_cone():
    """The box every record outputs for a 16^3 defect at x, y, z = 46, 30, 16 of the 64x64x32 desk grid."""
    lo = np.array((16, 30, 46))
    cfg = NetConfig(depth=2, base_channels=1)
    boxes = netmod._demand(cfg, (32, 64, 64), lo, lo + 16)
    got = [(op, layer, a.tolist(), b.tolist()) for (op, layer), (a, b) in zip(_record_ops(2), boxes)]
    assert got == [  # (z, y, x) bounds [lo, hi)
        ("conv", "enc0", [0, 14, 30], [32, 62, 64]),
        ("pool", "enc0", [0, 7, 15], [16, 31, 32]),
        ("conv", "enc1", [0, 8, 16], [16, 30, 32]),
        ("pool", "enc1", [0, 4, 8], [8, 15, 16]),
        ("conv", "bott", [1, 5, 9], [8, 14, 16]),
        ("conv", "dec1.reduce", [2, 6, 10], [8, 13, 16]),
        ("cat", "dec1", [5, 12, 20], [16, 26, 32]),
        ("conv", "dec1.merge", [6, 13, 21], [16, 25, 32]),
        ("conv", "dec0.reduce", [7, 14, 22], [16, 24, 32]),
        ("cat", "dec0", [15, 29, 45], [32, 47, 63]),
        ("conv", "dec0.merge", [16, 30, 46], [32, 46, 62]),
        ("head", "head", [16, 30, 46], [32, 46, 62]),
    ]
    # the forward runs each record on exactly that box
    params = init_params(cfg, seed=0)
    _, tape = forward(params, Volume(np.zeros((32, 64, 64)), S, UNIT), Box((46, 30, 16), (16, 16, 16)))
    assert [rec[2].tolist() for rec in tape.records] == [a.tolist() for a, _ in boxes]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pool_box_holds_its_skip(depth):
    """Twice a pool's demand box holds the box its skip is read on, and is its conv's box.

    This is why :func:`netmod._demand` needs no rule for the skip: the cone
    through the coarser levels is always the wider one.
    """
    rng = np.random.default_rng(40 + depth)
    ops = _record_ops(depth)
    step = 1 << depth
    for _ in range(200):
        dims = rng.integers(1, 9, size=3) * step
        lo = np.array([rng.integers(0, n) for n in dims])
        hi = np.array([rng.integers(a + 1, n + 1) for a, n in zip(lo, dims)])
        boxes = netmod._demand(NetConfig(depth=depth), tuple(dims), lo, hi)
        pools: list[int] = []
        for k, (op, _) in enumerate(ops):
            if op == "pool":
                pools.append(k)
            elif op == "cat":
                p = pools.pop()
                (p_lo, p_hi), (s_lo, s_hi), (c_lo, c_hi) = boxes[p], boxes[k], boxes[p - 1]
                assert np.all(2 * p_lo <= s_lo) and np.all(s_hi <= 2 * p_hi), (dims, lo, hi, k)
                assert np.array_equal(c_lo, 2 * p_lo) and np.array_equal(c_hi, 2 * p_hi)
        assert not pools


def _two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_two_branch_form_bitwise():
    rng = np.random.default_rng(12)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 36.7, -36.7, 709.8, -709.8])
    x = np.concatenate([edges, rng.normal(scale=40.0, size=20000), rng.uniform(-1e-3, 1e-3, 2000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is expected
        got = netmod._sigmoid(x)
        ref = _two_branch_sigmoid(x)
    assert got.tobytes() == ref.tobytes()


# The layers as the forward wrote them before its merge input was built in
# the merge's window: ReLU into a new array, pooling by transpose and argmax,
# nearest-neighbour doubling by three repeats, and the skip concatenated to
# the doubled output before the merge conv frames the result.


def _relu_ref(x):
    return np.maximum(x, 0.0), x > 0.0


def _maxpool2_ref(x):
    c, d, h, w = x.shape
    xr = x.reshape(c, d // 2, 2, h // 2, 2, w // 2, 2)
    cand = np.ascontiguousarray(xr.transpose(0, 1, 3, 5, 2, 4, 6)).reshape(c, d // 2, h // 2, w // 2, 8)
    idx = cand.argmax(axis=-1)
    y = np.take_along_axis(cand, idx[..., None], axis=-1)[..., 0]
    return y, idx.astype(np.uint8)


def _upsample2_ref(x):
    return x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)


def _forward_ref(params, vol, box):
    """The tape :func:`forward` records, built from the reference layers above."""
    cfg, t = params.config, params.tensors
    lo = np.array(box.origin[::-1])
    boxes = netmod._demand(cfg, vol.data.shape, lo, lo + box.size[::-1])
    records = []

    def conv(x, x_lo, layer):
        lo, hi = boxes[len(records)]
        src = ((x, x_lo),)
        y, mask = _relu_ref(netmod._conv_layer(src, lo, hi, t[f"{layer}.w"], t[f"{layer}.b"]))
        records.append(("conv", layer, lo, (src, mask)))
        return y, lo

    x, o = vol.data[None], np.zeros(3, dtype=int)
    skips = []
    for i in range(cfg.depth):
        x, o = conv(x, o, f"enc{i}")
        skips.append((x, o))
        x, idx = _maxpool2_ref(x)
        o = o >> 1
        records.append(("pool", f"enc{i}", o, idx))
    x, o = conv(x, o, "bott")
    for i in reversed(range(cfg.depth)):
        x, o = conv(x, o, f"dec{i}.reduce")
        lo, hi = boxes[len(records)]
        x = _upsample2_ref(x)[netmod._at(lo - 2 * o, hi - 2 * o)]
        skip, s_lo = skips.pop()
        x = np.concatenate([skip[netmod._at(lo - s_lo, hi - s_lo)], x], axis=0)
        records.append(("cat", f"dec{i}", lo, skip.shape[0]))
        x, o = conv(x, lo, f"dec{i}.merge")
    records.append(("head", "head", o, x))
    c, d, h, w = x.shape
    logits = (t["head.w"] @ x.reshape(c, d * h * w) + t["head.b"][:, None]).reshape(1, d, h, w)
    return netmod.Tape(params, _two_branch_sigmoid(logits), records)


@pytest.mark.parametrize("biases", ["zero", "random"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_forward_matches_the_reference_layers_bitwise(depth, biases):
    """Outputs, every tape record and every gradient equal the reference tape's, byte for byte."""
    rng = np.random.default_rng(20 + depth)
    params = init_params(NetConfig(depth=depth, base_channels=2), seed=depth)
    if biases == "random":
        for name, p in params.tensors.items():
            if name.endswith(".b"):
                p[:] = rng.normal(scale=0.1, size=p.shape)
    dims = (16, 8, 24)
    z, y, x = np.indices(dims)
    volumes = {
        "random": rng.uniform(size=dims),
        "binary": (rng.uniform(size=dims) < 0.3).astype(float),
        "constant": np.full(dims, 0.37),
        "zero": np.zeros(dims),
        "checkerboard": ((z + y + x) % 2).astype(float),
    }
    boxes = [Box((0, 0, 0), dims[::-1])] + [
        Box(tuple(lo[::-1]), tuple(np.subtract(hi, lo)[::-1]))
        for lo, hi in (_BOXES[name] for name in ("z-low", "x-high", "corner", "odd", "voxel"))
    ]
    for kind, data in volumes.items():
        vol = Volume(data, S, UNIT)
        for box in boxes:
            out, tape = forward(params, vol, box)
            ref = _forward_ref(params, vol, box)
            where = f"{kind} volume, box {box.origin}+{box.size}"
            assert out.data.tobytes() == ref.out[0].tobytes(), where
            assert len(tape.records) == len(ref.records)
            for (op, layer, lo, saved), (*ref_head, ref_saved) in zip(tape.records, ref.records):
                assert [op, layer, lo.tolist()] == [ref_head[0], ref_head[1], ref_head[2].tolist()], where
                if op == "pool":
                    assert saved.tobytes() == ref_saved.tobytes(), (where, layer)
                elif op == "conv":  # the input's window on the box, and the mask
                    hi = lo + saved[1].shape[1:]
                    xp, ref_xp = (netmod._conv_window(rec[0], lo, hi) for rec in (saved, ref_saved))
                    assert xp.tobytes() == ref_xp.tobytes(), (where, layer)
                    assert saved[1].tobytes() == ref_saved[1].tobytes(), (where, layer)
            g = Volume(rng.normal(size=out.data.shape), S)
            grads, ref_grads = backward(tape, g), backward(ref, g)
            for name in params.tensors:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), (where, name)


def test_maxpool_matches_argmax_bitwise_on_signed_zero_and_nan_ties():
    rng = np.random.default_rng(13)
    for values in ([0.0, -0.0], [0.0, -0.0, 1.0, -1.0], [0.0, -0.0, np.nan, -np.nan, np.inf]):
        x = rng.choice(np.array(values), size=(3, 8, 8, 8))
        y, idx = netmod._maxpool2(x)
        ref_y, ref_idx = _maxpool2_ref(x)
        assert y.tobytes() == ref_y.tobytes(), values
        assert idx.tobytes() == ref_idx.tobytes(), values


def test_maxpool_nan_anywhere_in_a_block_pools_to_nan():
    """A NaN beats every number, +inf included, as under argmax, and the first NaN wins."""
    for k in range(8):
        x = np.full((1, 2, 2, 2), np.inf)
        x.reshape(-1)[k] = np.nan
        y, idx = netmod._maxpool2(x)
        assert np.isnan(y[0, 0, 0, 0]) and idx.reshape(-1).tolist() == [k]
        x.reshape(-1)[7] = np.nan
        assert netmod._maxpool2(x)[1].reshape(-1).tolist() == [k]


def test_whole_grid_forward_peak_stays_near_what_it_keeps():
    """A 32x64x64 whole-grid forward peaks at most 1.35x the bytes its output and tape hold.

    A merge conv whose input is concatenated first and then copied into a
    framed window holds three full-resolution copies of the skip's data at
    once; that forward peaks at 1.78x on this grid.
    """
    params = init_params(NetConfig(depth=2, base_channels=8), seed=0)
    vol = unit_volume(np.random.default_rng(14), (64, 64, 32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, tape = forward(params, vol)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.35 * (held - base), (peak - base, held - base)


def _arrays(obj):
    """Every array in a tape record's saved entry, through nested tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def _forward_peak(params, vol):
    """Peak bytes a whole-grid forward allocates, by tracemalloc, and its tape."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, tape = forward(params, vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, tape


def test_forward_streams_each_conv_window_in_slabs(monkeypatch):
    """At 32x64x64, slabs take at least half of dec0.merge's whole window off the peak, and no
    tape record holds an array, or a view of one, that large."""
    cfg = NetConfig(depth=2, base_channels=8)
    params = init_params(cfg, seed=0)
    vol = unit_volume(np.random.default_rng(14), (64, 64, 32))
    c_in = {name: ci for name, ci, _ in cfg.layer_plan()}["dec0.merge"]
    window = c_in * (32 + 3) * (64 + 2) * (64 + 2) * 8  # (Ci, D+3, H+2, W+2) float64
    shipped, tape = _forward_peak(params, vol)
    monkeypatch.setattr(netmod, "_SLAB_PLANES", 32)
    whole, _ = _forward_peak(params, vol)
    assert whole - shipped >= window / 2, (whole, shipped, window)
    for op, layer, _, saved in tape.records:
        for a in _arrays(saved):
            while isinstance(a.base, np.ndarray):
                a = a.base
            assert a.nbytes < window, (op, layer, a.shape)


def _forward_bytes(params, vol):
    """The output of a whole-grid forward, every conv mask and every pool winner, as bytes."""
    out, tape = forward(params, vol)
    saved = [s[1] if op == "conv" else s for op, _, _, s in tape.records if op in ("conv", "pool")]
    return [out.data.tobytes()] + [a.tobytes() for a in saved]


def _pinnable_blas():
    blas = netmod._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count API: the forward never runs two workers")
    return blas


def test_two_worker_convs_pin_blas_to_one_thread_and_restore_it(monkeypatch):
    """Forced onto two workers, every forward conv GEMM runs off the calling thread with one BLAS
    thread; the old count is back after forward returns and after a worker raises.  Without the
    OpenBLAS API the forward keeps one walk on the calling thread, with the same bytes."""
    get_threads, set_threads = _pinnable_blas()
    params = init_params(NetConfig(depth=2, base_channels=2), seed=3)
    vol = unit_volume(np.random.default_rng(30), (12, 8, 16))
    monkeypatch.setattr(netmod, "_two_workers", lambda *_: True)
    conv3 = netmod._conv3
    seen = []

    def spy(*args):
        seen.append((threading.get_ident(), get_threads()))
        if len(seen) == fail_at:
            raise RuntimeError("worker failed")
        return conv3(*args)

    monkeypatch.setattr(netmod, "_conv3", spy)
    caller = threading.get_ident()
    before = get_threads()
    set_threads(2)
    try:
        fail_at = 0
        two = _forward_bytes(params, vol)
        assert get_threads() == 2
        assert seen and all(t != caller and n == 1 for t, n in seen)
        seen.clear()
        fail_at = 2
        with pytest.raises(RuntimeError, match="worker failed"):
            forward(params, vol)
        assert get_threads() == 2
        seen.clear()
        fail_at = 0
        monkeypatch.setattr(netmod, "_openblas", lambda: None)
        assert _forward_bytes(params, vol) == two
        assert seen and all(t == caller and n == 2 for t, n in seen)
    finally:
        set_threads(before)


def test_concurrent_forwards_keep_their_bytes_and_the_blas_thread_count(monkeypatch):
    """Four threads run two-worker forwards at once: each output equals the serial one, and the
    lock around the pin leaves the BLAS thread count as it found it."""
    get_threads, set_threads = _pinnable_blas()
    params = init_params(NetConfig(depth=1, base_channels=2), seed=4)
    vol = unit_volume(np.random.default_rng(31), (8, 6, 10))
    monkeypatch.setattr(netmod, "_two_workers", lambda *_: True)
    ref = _forward_bytes(params, vol)
    results = []

    def run():
        for _ in range(3):
            results.append(_forward_bytes(params, vol))

    before = get_threads()
    interval = sys.getswitchinterval()
    set_threads(2)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert get_threads() == 2
    finally:
        sys.setswitchinterval(interval)
        set_threads(before)
    assert results == [ref] * 12


def test_adam_worked_example():
    params = NetParams(config=NetConfig(), tensors={"p.w": np.array([1.0])})
    opt = OptState(lr=0.001, weight_decay=0.0)
    adam_step(params, {"p.w": np.array([1.0])}, opt)
    # first step: mhat = g, vhat = g^2, so p moves by ~lr
    assert params.tensors["p.w"][0] == pytest.approx(0.999, abs=1e-6)
    assert opt.step == 1


def test_adam_weight_decay_is_coupled():
    # with zero raw gradient, decay alone still shrinks the parameter
    params = NetParams(config=NetConfig(), tensors={"p.w": np.array([2.0])})
    opt = OptState(lr=0.1, weight_decay=0.5)
    adam_step(params, {"p.w": np.array([0.0])}, opt)
    # g = wd * p = 1.0; first-step update = lr * g / (|g| + eps) ~ lr
    assert params.tensors["p.w"][0] == pytest.approx(1.9, abs=1e-6)


def test_adam_validates_inputs():
    params = NetParams(config=NetConfig(), tensors={"p.w": np.array([1.0])})
    opt = OptState()
    with pytest.raises(ShapeError):
        adam_step(params, {}, opt)
    with pytest.raises(ShapeError):
        adam_step(params, {"p.w": np.zeros(3)}, opt)
    with pytest.raises(DomainError):
        OptState(lr=0.0)
    with pytest.raises(DomainError):
        OptState(beta1=1.0)
    with pytest.raises(DomainError):
        OptState(batch_size=0)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    params = init_params(NetConfig(depth=2, base_channels=2), seed=9)
    opt = OptState(lr=3e-4, weight_decay=1e-3, batch_size=2)
    grads = {k: rng.normal(size=v.shape) for k, v in params.tensors.items()}
    adam_step(params, grads, opt)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, opt)
    params2, opt2 = load_checkpoint(path)
    assert params2.config == params.config
    for name in params.tensors:
        assert np.array_equal(params2.tensors[name], params.tensors[name])
        assert np.array_equal(opt2.m[name], opt.m[name])
        assert np.array_equal(opt2.v[name], opt.v[name])
    assert (opt2.lr, opt2.weight_decay, opt2.batch_size, opt2.step) == (3e-4, 1e-3, 2, 1)
    # byte-stability: saving the loaded state reproduces the file
    path2 = tmp_path / "ck2.bin"
    save_checkpoint(path2, params2, opt2)
    assert path.read_bytes() == path2.read_bytes()


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


def _failing_fsync(fd):
    raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("fail_at", ["write", "fsync"])
def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, init_params(NetConfig(depth=1, base_channels=1), seed=0), OptState())
    before = path.read_bytes()
    if fail_at == "write":
        monkeypatch.setattr(netmod, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False)
    else:
        monkeypatch.setattr(netmod.os, "fsync", _failing_fsync)
    with pytest.raises(OSError):
        save_checkpoint(path, init_params(NetConfig(depth=1, base_channels=1), seed=1), OptState())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def test_load_checkpoint_closes_its_file(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, init_params(NetConfig(depth=1, base_channels=1), seed=0), OptState())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"GIF89a not a checkpoint")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    params = init_params(NetConfig(depth=1, base_channels=1), seed=0)
    good = tmp_path / "good.bin"
    save_checkpoint(good, params, OptState())
    raw = bytearray(good.read_bytes())
    raw[4] = 99  # version
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    path.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _overran(signum, frame):
    raise TimeoutError("load_checkpoint ran for over 2 s")


# header: magic, version, depth at byte 8, base at 12, tensor count at 16,
# then the first tensor's name length at 20 and its name at 22
@pytest.mark.parametrize("offset, value", [
    (8, 0),            # depth 0
    (12, 0),           # base channels 0
    (12, 9),           # base 8 -> 9: every tensor shape disagrees with the header
    (8, 2 | 1 << 20),  # depth with bit 20 flipped: a million-layer plan
    (22, 0xFFFFFFFF),  # first tensor name "enc0.w" -> bytes that are not UTF-8
], ids=["depth-0", "base-0", "base-9", "depth-bit-20", "name-not-utf8"])
def test_checkpoint_rejects_corrupted_header(tmp_path, offset, value):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, init_params(NetConfig(depth=2, base_channels=8), seed=0), OptState())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, offset, value)
    path.write_bytes(bytes(raw))
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(2)
    try:
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# the optimiser block "<dddddIQ" (lr, beta1, beta2, eps, weight decay, batch
# size, step) sits just before the one-byte moments flag of a checkpoint saved
# before the first step; offsets are within that block
@pytest.mark.parametrize("offset, fmt, value", [
    (0, "<d", -1.0),
    (8, "<d", 2.0),
    (32, "<d", -1.0),
    (40, "<I", 0),
    (0, "<d", math.nan),
    (24, "<d", math.nan),
    (32, "<d", math.nan),
], ids=["lr-negative", "beta1-2", "weight-decay-negative", "batch-0", "lr-nan", "eps-nan",
        "weight-decay-nan"])
def test_checkpoint_rejects_corrupted_optimiser_block(tmp_path, offset, fmt, value):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, init_params(NetConfig(depth=1, base_channels=1), seed=0), OptState())
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, len(raw) - 1 - struct.calcsize("<dddddIQ") + offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="optimiser"):
        load_checkpoint(path)
