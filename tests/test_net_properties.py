"""Generated properties of the box engine: demand boxes, parity classes, conv windows, box forward, support-box backward.

Hypothesis draws the net, the grid, the boxes, the input, the depth of the
forward's conv tiles and, for the worker and pool walks, the block budget
that sets their rows.  The profile registered in conftest derandomizes it,
so every run checks the same examples.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribfill.net as netmod
from ribfill.grid import UNIT, Box, Volume
from ribfill.net import NetConfig, backward, forward, init_params
from test_net import _dense_backward, _window

S = (1.0, 1.0, 1.0)

# input values: binary, uniform, signed zeros among few values, and
# three values only, so that pooling windows and ReLU inputs tie often
_INPUTS = {
    "binary": lambda rng, n: (rng.uniform(size=n) < 0.4).astype(float),
    "uniform": lambda rng, n: rng.uniform(size=n),
    "signed-zeros": lambda rng, n: rng.choice([0.0, -0.0, -0.0, 0.5, 1.0], size=n),
    "ties": lambda rng, n: rng.choice([0.25, 0.5, 0.75], size=n),
}


def _boxes(dims):
    """A box [lo, hi) inside a (D, H, W) grid, as two int arrays."""
    axes = [st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True).map(sorted) for n in dims]
    return st.tuples(*axes).map(lambda b: (np.array([a for a, _ in b]), np.array([e for _, e in b])))


@st.composite
def _nets(draw):
    """(depth, dims, output box): dims are multiples of 2^depth up to 24."""
    depth = draw(st.integers(1, 3))
    step = 1 << depth
    dims = tuple(draw(st.integers(1, 24 // step)) * step for _ in range(3))
    return depth, dims, draw(_boxes(dims))


@st.composite
def _cases(draw):
    """A net, its parameters, an input volume, an output box, a gradient support box inside it,
    and a slab depth for the forward's convs: one plane, two, or the whole grid."""
    depth, dims, (lo, hi) = draw(_nets())
    base = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = init_params(NetConfig(depth=depth, base_channels=base), seed=seed)
    if draw(st.booleans()):  # biases off zero, so that ReLUs cut inside the grid too
        for name, p in params.tensors.items():
            if name.endswith(".b"):
                p[:] = rng.normal(scale=0.1, size=p.shape)
    kind = draw(st.sampled_from(sorted(_INPUTS)))
    vol = Volume(_INPUTS[kind](rng, dims), S, UNIT)
    s_lo, s_hi = draw(_boxes(tuple(hi - lo)))
    slab = draw(st.sampled_from([1, 2, dims[0]]))
    return params, vol, (lo, hi), (s_lo, s_hi), slab, rng


def _box(lo, hi) -> Box:
    return Box(tuple(lo[::-1]), tuple((hi - lo)[::-1]))


def _sl(lo, hi):
    return tuple(slice(a, b) for a, b in zip(lo, hi))


def _levels(depth):
    """The grid level (0 = full resolution) of every tape record's output box, in record order."""
    levels = []
    for i in range(depth):
        levels += [i, i + 1]  # enc conv, pool
    levels.append(depth)  # bott
    for i in reversed(range(depth)):
        levels += [i + 1, i, i]  # reduce, cat, merge
    return levels + [0]  # head


@settings(max_examples=150)
@given(_nets())
def test_demand_boxes_stay_inside_their_grids(net):
    depth, dims, (lo, hi) = net
    boxes = netmod._demand(NetConfig(depth=depth), dims, lo, hi)
    levels = _levels(depth)
    assert len(boxes) == len(levels)
    for (a, b), level in zip(boxes, levels):
        grid = np.array(dims) >> level
        assert np.all(0 <= a) and np.all(a < b) and np.all(b <= grid), (a, b, level)
    # the head covers exactly the box asked for
    assert np.array_equal(boxes[-1][0], lo) and np.array_equal(boxes[-1][1], hi)


@settings(max_examples=40)
@given(_cases())
def test_box_passes_equal_the_whole_grid_passes(case):
    params, vol, (lo, hi), (s_lo, s_hi), slab, rng = case
    full, full_tape = forward(params, vol)
    with mock.patch.object(netmod, "_SLAB_PLANES", slab):
        out, tape = forward(params, vol, _box(lo, hi))
    assert out.data.tobytes() == full.data[_sl(lo, hi)].tobytes()
    g = np.zeros(out.data.shape)
    g[_sl(s_lo, s_hi)] = rng.normal(size=tuple(s_hi - s_lo))
    g_full = np.zeros(full.data.shape)
    g_full[_sl(lo, hi)] = g
    grads = backward(tape, Volume(g, S))
    ref = backward(full_tape, Volume(g_full, S))
    dense = _dense_backward(full_tape, g_full)
    for name in params.tensors:
        assert grads[name].tobytes() == ref[name].tobytes(), name
        assert np.abs(ref[name] - dense[name]).max() <= 1e-12 * np.abs(dense[name]).max(), name


@settings(max_examples=40)
@given(_cases())
def test_output_on_a_box_ignores_the_input_outside_its_cone(case):
    """Input voxels outside enc0's demand box and its one-voxel halo do not reach the output on the box."""
    params, vol, (lo, hi), _, slab, rng = case
    a, b = netmod._demand(params.config, vol.data.shape, lo, hi)[0]
    cone = _sl(np.maximum(a - 1, 0), b + 1)
    data = rng.uniform(size=vol.data.shape)
    data[cone] = vol.data[cone]
    with mock.patch.object(netmod, "_SLAB_PLANES", slab):
        out, _ = forward(params, vol, _box(lo, hi))
        moved, _ = forward(params, Volume(data, S, UNIT))
    assert moved.data[_sl(lo, hi)].tobytes() == out.data.tobytes()


@pytest.mark.skipif(
    netmod._openblas() is None, reason="no OpenBLAS thread-count API: the forward never runs two workers"
)
@settings(max_examples=30)
@given(_cases(), st.integers(1 << 9, 1 << 21))
def test_two_worker_walk_equals_the_one_worker_walk(case, block_bytes):
    """Forward output, every conv output, every pool winner and every gradient are byte-equal whether
    each forward conv runs one walk or two workers, at any slab depth and block budget."""
    params, vol, (lo, hi), (s_lo, s_hi), slab, rng = case
    g = np.zeros(tuple(hi - lo))
    g[_sl(s_lo, s_hi)] = rng.normal(size=tuple(s_hi - s_lo))
    runs = []
    for two in (False, True):
        with (
            mock.patch.object(netmod, "_SLAB_PLANES", slab),
            mock.patch.object(netmod, "_BLOCK_BYTES", block_bytes),
            mock.patch.object(netmod, "_two_workers", lambda *_, two=two: two),
        ):
            out, tape = forward(params, vol, _box(lo, hi))
            grads = backward(tape, Volume(g, S))
        saved = [s[1] if op == "conv" else s for op, _, _, s in tape.records if op in ("conv", "pool")]
        runs.append([a.tobytes() for a in (out.data, *saved, *(grads[k] for k in sorted(grads)))])
    assert runs[0] == runs[1]


# conv inputs, weights and biases for the in-walk pool: integers make sums exact, so pool blocks
# tie often; zeros carry both signs; a NaN in one input voxel in a hundred spreads to its
# neighbours' outputs, so about a third of the output is NaN, in blocks that mix NaN and numbers
_POOL_VALUES = {
    "x": ([0.0, -0.0, 1.0, 2.0, np.nan], [0.3, 0.3, 0.2, 0.19, 0.01]),
    "w": ([-1.0, -0.0, 0.0, 1.0], None),
    "b": ([-0.0, 0.0, 1.0], None),
}


@settings(max_examples=60)
@given(
    st.integers(1, 5),
    st.booleans(),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(*(st.integers(1, 4) for _ in range(3))),
    st.tuples(*(st.integers(0, 2) for _ in range(3))),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_the_slab_walk_pools_as_maxpool2_of_the_whole_relu_output(planes, two, channels, half, offset, rows, seed):
    """An encoder conv's pooled values and winners, written tile by tile, are byte-equal to
    _maxpool2 of its whole ReLU output, and that output to the unpooled walk's, at any slab depth
    (odd ones are rounded up to whole pool blocks), at any block budget (tiles of 2 rows up to the
    whole height), on one walk or two workers, on an even box inside a larger grid, through NaN,
    signed zeros and ties."""
    c_in, c_out = channels
    rng = np.random.default_rng(seed)
    draw = {k: (lambda n, v=v, p=p: rng.choice(v, size=n, p=p)) for k, (v, p) in _POOL_VALUES.items()}
    lo, hi = 2 * np.array(offset), 2 * np.array(offset) + 2 * np.array(half)
    src = ((draw["x"]((c_in, *(hi + 2))), np.zeros(3, dtype=int)),)
    w, b = draw["w"]((c_out, c_in, 3, 3, 3)), draw["b"](c_out)
    # the budget for which a pooled tile may hold 2*rows rows (see net._tile_rows), at most the box's height
    depth = min(planes + planes % 2, 2 * half[0])
    row = 8 * (2 * half[2] + 2) * max(c_in * (depth + 3), c_out * depth)
    block_bytes = (2 * min(rows, half[1]) + 2) * row
    with (
        mock.patch.object(netmod, "_SLAB_PLANES", planes),
        mock.patch.object(netmod, "_BLOCK_BYTES", block_bytes),
        mock.patch.object(netmod, "_two_workers", lambda *_: two),
    ):
        y, pooled, winners = netmod._conv_layer(src, lo, hi, w, b, pool=True)
        (alone,) = netmod._conv_layer(src, lo, hi, w, b)
    ref_pooled, ref_winners = netmod._maxpool2(y)
    assert y.tobytes() == alone.tobytes()
    assert winners.dtype == ref_winners.dtype
    assert pooled.tobytes() == ref_pooled.tobytes()
    assert winners.tobytes() == ref_winners.tobytes()


@settings(max_examples=100)
@given(
    st.tuples(*(st.integers(1, 6) for _ in range(5))),
    st.tuples(*(st.booleans() for _ in range(6))),
    st.integers(1, 4),
    st.integers(1 << 9, 1 << 14),
    st.integers(0, 2**32 - 1),
)
def test_input_gradient_ignores_its_slab_bounds(shape, clipped, slab, block_bytes, seed):
    """dX is byte-equal whether its slabs hold a few planes or the whole grown box, on a box grown
    or clipped at each face: no voxel it keeps falls in the ragged tail of a GEMM (see net._patches)."""
    c_in, c_out, *box = shape
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(c_out, c_in, 3, 3, 3))
    gp = netmod._frame(rng.normal(size=(c_out, *box)))
    s, e = np.array(clipped[:3], dtype=int), np.array(box) + 2 - np.array(clipped[3:], dtype=int)
    runs = []
    for planes in (slab, 64):
        with mock.patch.object(netmod, "_SLAB_PLANES", planes), mock.patch.object(netmod, "_BLOCK_BYTES", block_bytes):
            runs.append(netmod._conv3_input_grad(gp, s, e, w).tobytes())
    assert runs[0] == runs[1]


def _fine_boxes():
    """A box [lo, hi) anywhere on a grid, odd bounds and one-voxel extents included."""
    axis = st.tuples(st.integers(0, 21), st.integers(1, 6))
    return st.tuples(axis, axis, axis).map(lambda b: (np.array([a for a, _ in b]), np.array([a + n for a, n in b])))


@settings(max_examples=200)
@given(_fine_boxes())
def test_parity_classes_partition_a_box_and_find_their_coarse_voxels(box):
    lo, hi = box
    fine = np.indices(tuple(hi - lo)) + lo[:, None, None, None]  # each voxel's grid coordinates
    hits = np.zeros(tuple(hi - lo), dtype=int)
    for k, (cells, c_lo, c_hi) in enumerate(netmod._parities(lo, hi)):
        r = np.array((k >> 2, (k >> 1) & 1, k & 1))
        v = fine[cells]
        hits[cells[1:]] += 1
        assert np.all(v & 1 == r[:, None, None, None]), (k, lo, hi)
        # voxel v lies in coarse voxel v >> 1, and the class's coarse voxels fill [c_lo, c_hi) in order
        coarse = np.indices(tuple(c_hi - c_lo)) + c_lo[:, None, None, None]
        assert np.array_equal(v >> 1, coarse), (k, lo, hi)
        assert np.all(lo >> 1 <= c_lo) and np.all(c_lo <= c_hi) and np.all(c_hi <= (hi + 1) >> 1), (k, lo, hi)
    assert np.all(hits == 1)


@st.composite
def _windows(draw):
    """A box on an even grid, the sources of its conv window, and that window built the plain way.

    The first source holds the box grown by one voxel a side as far as the
    grid goes, plus up to two voxels more a side; half the time a coarse
    source follows, holding the first one's box halved outward plus up to two
    voxels.  The reference is the grid-sized input: the first source
    concatenated with the coarse one doubled by ``repeat(2)`` on each axis
    and cropped to the first source's box, NaN outside that box; then
    zero-padded by one voxel at the grid's faces, cut to the box and its
    frame, with a zero z plane appended.
    """
    dims = np.array([2 * draw(st.integers(1, 6)) for _ in range(3)])
    lo, hi = draw(_boxes(tuple(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grow(a, b, top):
        """[a, b) grown by zero to two voxels a side, clipped to [0, top)."""
        more = lambda: np.array([draw(st.integers(0, 2)) for _ in range(3)])
        return np.maximum(a - more(), 0), np.minimum(b + more(), top)

    def values(c, shape):
        return rng.choice([0.0, -0.0, -0.0, 0.5, -1.25, 3.0], size=(c, *shape))

    x_lo, x_hi = grow(lo - 1, hi + 1, dims)
    x = values(draw(st.integers(1, 3)), x_hi - x_lo)
    src = ((x, x_lo),)
    parts = [x]
    if draw(st.booleans()):
        c_lo, c_hi = grow(x_lo >> 1, (x_hi + 1) >> 1, dims >> 1)
        coarse = values(draw(st.integers(1, 3)), c_hi - c_lo)
        src += ((coarse, c_lo),)
        doubled = coarse.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)
        parts.append(doubled[netmod._at(x_lo - 2 * c_lo, x_hi - 2 * c_lo)])
    cat = np.concatenate(parts)
    full = np.full((cat.shape[0], *dims), np.nan)
    full[netmod._at(x_lo, x_hi)] = cat
    ref = np.pad(full, ((0, 0), (1, 1), (1, 1), (1, 1)))[netmod._at(lo, hi + 2)]
    ref = np.concatenate([ref, np.zeros((ref.shape[0], 1, *ref.shape[2:]))], axis=1)
    return src, lo, hi, ref


@settings(max_examples=300)
@given(_windows(), st.booleans())
def test_conv_window_equals_the_padded_concatenation_bitwise(case, reuse):
    """Plain and merge windows, signed zeros included, in a new array or in the front of a dirty reused buffer."""
    src, lo, hi, ref = case
    assert not np.isnan(ref).any()  # the sources hold every voxel the window reads
    if not reuse:
        got = _window(src, lo, hi)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        return
    buf = np.full(ref.size + 5, np.nan)
    buf[::2] = -0.0
    tail = buf[ref.size :].copy()
    for _ in range(2):  # the second call finds the first one's window in the buffer
        got = netmod._conv_window(src, lo, hi, buf)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert np.shares_memory(got, buf[: ref.size]) and buf[ref.size :].tobytes() == tail.tobytes()


def _maxpool2_grad_scatter(gy, idx):
    """The pool gradient as a scatter into an (..., 8) buffer of block candidates, then a transpose."""
    c, d2, h2, w2 = gy.shape
    gc = np.zeros((c, d2, h2, w2, 8))
    np.put_along_axis(gc, idx[..., None].astype(np.intp), gy[..., None], axis=-1)
    gx = gc.reshape(c, d2, h2, w2, 2, 2, 2).transpose(0, 1, 4, 2, 5, 3, 6)
    return np.ascontiguousarray(gx).reshape(c, d2 * 2, h2 * 2, w2 * 2)


_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])


@settings(max_examples=100)
@given(st.tuples(*(st.integers(1, 4) for _ in range(4))), st.integers(0, 2**32 - 1))
def test_pool_gradient_equals_the_scatter_bitwise(shape, seed):
    """On every winner index, and on gradients holding +-0, NaN and +-inf."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 8, size=shape).astype(np.uint8)
    idx.flat[: min(8, idx.size)] = rng.permutation(8)[: idx.size]
    gy = rng.normal(size=shape)
    special = rng.uniform(size=shape) < 0.5
    gy[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    assert netmod._maxpool2_grad(gy, idx).tobytes() == _maxpool2_grad_scatter(gy, idx).tobytes()


def _doubling_grad_padded(g, lo):
    """g zero-padded to the even-aligned box, then each 2x2x2 block summed in scan order onto a zero."""
    a, b = lo >> 1, (lo + g.shape[1:] + 1) >> 1
    pad = np.zeros((g.shape[0], *(2 * (b - a))))
    pad[netmod._at(lo - 2 * a, lo - 2 * a + g.shape[1:])] = g
    total = np.zeros((g.shape[0], *(b - a)))
    for rz, ry, rx in itertools.product((0, 1), repeat=3):
        total += pad[:, rz::2, ry::2, rx::2]
    return total


@settings(max_examples=150)
@given(_fine_boxes(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_doubling_gradient_equals_the_padded_block_sum(box, channels, seed):
    """Equal to the padded reference, +0 and -0 counted as equal, on any box: odd bounds, one voxel wide."""
    lo, hi = box
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(channels, *(hi - lo))) * 10.0 ** rng.integers(-8, 9, size=(channels, *(hi - lo)))
    g[rng.uniform(size=g.shape) < 0.2] = -0.0
    got = netmod._doubling_grad(g, lo, lo >> 1, (hi + 1) >> 1)
    ref = _doubling_grad_padded(g, lo)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref), (lo, hi)  # == treats -0.0 and +0.0 as equal
