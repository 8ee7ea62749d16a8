"""Generated properties of the box engine: demand boxes, box forward, support-box backward.

Hypothesis draws the net, the grid, the boxes, the input, the depth of the
forward's conv slabs and, for the worker walks, the patch-block budget.  The profile registered in conftest derandomizes
it, so every run checks the same examples.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribfill.net as netmod
from ribfill.grid import UNIT, Box, Volume
from ribfill.net import NetConfig, backward, forward, init_params
from test_net import _dense_backward

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
        levels += [i + 1, i, i, i]  # reduce, up, cat, merge
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
    """Forward output, every mask, every pool winner and every gradient are byte-equal whether
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
