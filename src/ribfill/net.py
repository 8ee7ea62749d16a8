"""A compact 3-D encoder-decoder with hand-written forward and backward.

Everything runs in float64 on the CPU.  Convolutions are 3x3x3, same
padding, one GEMM per cache-sized column block of a flat zero-framed window
of the input with the three x taps folded into the kernel's rows; weight
gradients walk the same blocks, and input gradients convolve the upstream
gradient with the offset-flipped, in/out-swapped kernel, so no scatter
operation ever appears.  The forward runs each conv in z-slabs of a few
output planes: it builds one slab's window, convolves it and adds the bias
into that slab of one compact output, which it then clamps in place for the
ReLU, so a whole window or a whole output with its junk columns never
exists.  A conv whose slab of half that depth still holds a full patch
block of half the block budget, as every conv of a 128x128x64 whole-grid
forward does, splits its slabs between two worker threads, each with its
own buffers and one half of each budget.  OpenBLAS is pinned to one thread
while they run: with its two threads under the two workers, that forward
took 1.6-2.2 s against 1.1-1.4 s for one walk.  Smaller convs, such as
all of a desk-sized box forward's, keep one walk.  Downsampling is 2x2x2
max pooling (ties go to the first maximal voxel in canonical x-fastest
scan order), upsampling is nearest-neighbour doubling.  Each decoder level
halves the channel count with a conv while still at the coarse resolution,
then merges the encoder skip and the doubled grid with another conv.  That
merge input never exists whole either: :func:`_conv_window`, the one
builder of every conv window, fills each of the merge conv's windows from
the skip and the coarse output, the way memory-efficient DenseNets build
their concatenations in a shared buffer (Pleiss et al., 2017).  The skip is
copied into the first channels, and the coarse output is written into the
rest by one strided copy per parity class of voxels, so no upsampled or
concatenated array exists; the backward of the join and of the pool walk
the same eight classes.  The head is a 1x1x1 conv squashed in place by a
sigmoid, so outputs live strictly inside (0, 1).

Both passes work on boxes, as sparse-block convolution does for one block
(Ren et al., SBNet), and both take their boxes from one reverse walk of the
layers, :func:`_demand`: given the box the head must cover, it finds the box
each layer must output for that, the box's cone, one voxel wider per conv,
aligned and halved or doubled at each change of level.  The forward is asked
for its output on a box (the whole grid by default) and runs each layer only
on its demand box, so a loss scored on the defect crop skips most of the
decoder.  Every conv GEMM is a multiple of 8 columns wide, so a voxel's value
does not depend on where its block ends, and the output on a box is
byte-equal to that box of the whole-grid output.

The forward appends one ``(op, layer, lo, saved)`` record per layer to a
:class:`Tape`, in execution order, where ``lo`` is the origin of the
layer's box; the backward pass is reverse-mode differentiation (Griewank &
Walther, *Evaluating Derivatives*): one walk over those records from last to
first.  It runs the same demand walk from the support box of the output
gradient, the bounding box of its nonzeros, so a loss scored on the defect
crop costs a backward pass over the crop plus a halo of one voxel per conv.
Each conv frames its gradient with zeros once, and both its weight gradient
and its input gradient read that copy; the weight gradient reads its input's
window over the whole box at once, from :func:`_conv_window` like the
forward's slab windows.

The optimiser is Adam with coupled L2 weight decay: ``wd * p`` is added to
the raw gradient before the moment updates, the classic (non-decoupled)
formulation.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import UNIT, BoundsError, Box, DomainError, ShapeError, Volume


class CheckpointError(ValueError):
    """An unreadable, foreign, or truncated checkpoint file."""


@dataclass(frozen=True)
class NetConfig:
    depth: int = 2
    base_channels: int = 8

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise DomainError(f"depth must be at least 1, got {self.depth}")
        if self.base_channels < 1:
            raise DomainError(f"base channels must be at least 1, got {self.base_channels}")

    def layer_plan(self) -> list[tuple[str, int, int]]:
        """(name, in_channels, out_channels) for every conv, in forward order."""
        plan: list[tuple[str, int, int]] = []
        c_in = 1
        for i in range(self.depth):
            c_out = self.base_channels << i
            plan.append((f"enc{i}", c_in, c_out))
            c_in = c_out
        plan.append(("bott", c_in, c_in * 2))
        for i in reversed(range(self.depth)):
            c = self.base_channels << i
            plan.append((f"dec{i}.reduce", c * 2, c))
            plan.append((f"dec{i}.merge", c * 2, c))
        plan.append(("head", self.base_channels, 1))
        return plan


@dataclass
class NetParams:
    config: NetConfig
    tensors: dict[str, np.ndarray]


def _tensor_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, weight before bias, in forward order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, c_in, c_out in config.layer_plan():
        shapes[f"{name}.w"] = (c_out, c_in) if name == "head" else (c_out, c_in, 3, 3, 3)
        shapes[f"{name}.b"] = (c_out,)
    return shapes


def init_params(config: NetConfig, seed: int) -> NetParams:
    """Fan-in-scaled uniform weights, zero biases, one stream of draws."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return NetParams(config=config, tensors=tensors)


# ---------------------------------------------------------------------------
# conv kernels

# A 3x3x3 conv reads a zero-framed window of its input (see :func:`_conv_window`)
# flattened with the window's strides Hp*Wp and Wp.  Output column
# q = z*Hp*Wp + y*Wp + x then reads its tap (dz, dy, dx) at window column
# q + dz*Hp*Wp + dy*Wp + dx: each (dz, dy) is one contiguous run of columns
# and dx only shifts it.  The walk covers all but the last three planes of
# the window; with a one-voxel frame, output columns with y >= H or x >= W
# read across a row's end and are junk.

# Both budgets are those of one walk over a conv's window; a forward conv on
# two workers (see :func:`_conv_layer`) splits each between them.
_BLOCK_BYTES = 1 << 21  # patch-block bytes; the fastest budget differs from conv to conv (ROADMAP Baseline)
_SLAB_PLANES = 4  # output z planes per forward conv window; 8 took a 32x64x64 peak from 1.24x to 1.40x what it keeps


def _front(buf: np.ndarray | None, shape, zero: bool = False) -> np.ndarray:
    """A float64 array of ``shape`` over the front of the flat buffer ``buf``, or a new one if buf is None.

    Zero-filled if ``zero``, else left as it is.
    """
    if buf is None:
        return np.zeros(shape) if zero else np.empty(shape)
    a = buf[: math.prod(shape)].reshape(shape)
    if zero:
        a.fill(0.0)
    return a


def _block_width(c_in: int, m: int, budget: int) -> int:
    """Columns of the widest patch block within ``budget`` bytes, and no wider than a walk over
    ``m`` output columns rounded up to 8 columns (see :func:`_patches`)."""
    return max(8, min(budget // (72 * c_in), m + 9) & ~7)


def _w2(w: np.ndarray) -> np.ndarray:
    """(Co, Ci, 3, 3, 3) -> (3*Co, 9*Ci): row dx*Co + co, column (dz*3 + dy)*Ci + ci."""
    c_out, c_in = w.shape[:2]
    return np.ascontiguousarray(w.transpose(4, 0, 2, 3, 1)).reshape(3 * c_out, 9 * c_in)


def _w2_flipped(w: np.ndarray) -> np.ndarray:
    """Kernel for the transposed conv: offsets flipped, in/out swapped."""
    return _w2(w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))


def _patches(xp: np.ndarray, buf: np.ndarray | None = None):
    """Yield (output columns, (9*Ci, 8k) patch block) over the flat window xp, (Ci, Dp, Hp, Wp).

    The walk covers output columns [0, (Dp - 3)*Hp*Wp).  Row (dz*3 + dy)*Ci + ci
    holds channel ci from column q + dz*Hp*Wp + dy*Wp on, for the block's n
    output columns q and two halo columns, so tap dx is ``block[:, dx : dx + n]``.
    Every block is a multiple of 8 columns wide, the last one zero-filled up
    to that: the BLAS kernel computes a ragged tail of columns with another
    tile, which sums in another order, so without this a column's value would
    depend on where its block ends, and a conv on a box would differ in the
    last bit from the same conv on the whole grid.  The blocks fill the flat
    buffer ``buf``, of at least 72*Ci floats, as wide as :func:`_block_width`
    allows for its bytes (one of ``_BLOCK_BYTES`` if none is given), and each
    block must be consumed before the next one is drawn.
    """
    c_in, dp, hp, wp = xp.shape
    m = (dp - 3) * hp * wp
    item = xp.itemsize
    # taps[dz, dy, ci, j] is flat window column j + dz*Hp*Wp + dy*Wp of channel ci
    taps = np.lib.stride_tricks.as_strided(
        xp, shape=(3, 3, c_in, m + 2), strides=(hp * wp * item, wp * item, xp.strides[0], item),
        writeable=False,
    )
    width = _block_width(c_in, m, _BLOCK_BYTES if buf is None else 8 * buf.size)
    if buf is None:
        buf = np.empty(9 * c_in * width)
    for q0 in range(0, m, width - 2):
        n = min(width - 2, m - q0)
        blk = _front(buf, (3, 3, c_in, (n + 9) & ~7))
        blk[..., : n + 2] = taps[..., q0 : q0 + n + 2]
        blk[..., n + 2 :] = 0.0
        yield slice(q0, q0 + n), blk.reshape(9 * c_in, -1)


def _conv3(xp: np.ndarray, w2: np.ndarray, bufs=(None, None, None)) -> np.ndarray:
    """3x3x3 conv over a window from :func:`_conv_window` with a (3*Co, 9*Ci) kernel from :func:`_w2`.

    Returns the (Co, Dp-3, Hp, Wp) output, junk columns included.  One GEMM
    per patch block gives each dx its own row group; the three are summed at
    column shifts 0, 1, 2.  ``bufs`` are flat buffers for the output, the
    patch blocks and the GEMM output, each filled from its front; a missing
    one is allocated.
    """
    c_out = w2.shape[0] // 3
    _, dp, hp, wp = xp.shape
    out_buf, blocks, prods = bufs
    yp = _front(out_buf, (c_out, dp - 3, hp, wp))
    yf = yp.reshape(c_out, -1)
    for cols, blk in _patches(xp, blocks):
        n = cols.stop - cols.start
        p = np.matmul(w2, blk, out=None if prods is None else _front(prods, (3 * c_out, blk.shape[1])))
        out = yf[:, cols]
        np.add(p[:c_out, :n], p[c_out : 2 * c_out, 1 : n + 1], out=out)
        out += p[2 * c_out :, 2 : n + 2]
    return yp


def _parities(lo, hi):
    """Yield (index, coarse lo, coarse hi) for each parity class r = (rz, ry, rx) of the grid's voxels in [lo, hi).

    Class k = 4*rz + 2*ry + rx comes k-th.  The index picks the class out of a (C, ...) array over
    the box; coarse voxel c holds fine voxel 2c + r, so the class lies in [coarse lo, coarse hi)."""
    r = np.indices((2, 2, 2)).reshape(3, 8).T  # the eight r in scan order: one (8, 3) op per bound, not eight small ones
    c_lo, c_hi = (lo - r + 1) >> 1, (hi - r + 1) >> 1
    for first, a, b in zip((2 * c_lo + r - lo).tolist(), c_lo, c_hi):
        yield (slice(None), *(slice(f, None, 2) for f in first)), a, b


def _conv_window(src, lo, hi, buf: np.ndarray | None = None) -> np.ndarray:
    """A conv's input over the box [lo, hi) with a one-voxel frame and a spare z plane, (C, D+3, H+2, W+2),
    from the sources its tape record saves; in the front of ``buf`` if given.

    ``src`` is ``((x, x_lo),)``, the input on a box with origin x_lo, or, for
    a ``.merge`` conv, ``((skip, s_lo), (coarse, c_lo))``, whose input is
    the encoder skip concatenated with the coarse ``.reduce`` output doubled.
    The first source's box must lie inside the grid and hold [lo, hi) grown
    by one voxel a side as far as the grid goes.  Both sources fill that
    grown box, clipped to the first source's box, so the frame holds real
    neighbours and is zero only where it passes a face of the grid, like a
    same-padded conv; the spare plane is zero.  The first source is copied
    into the first channels and a coarse one is written into the rest by a
    strided copy per :func:`_parities` class, the way memory-efficient
    DenseNets build their concatenations in a shared buffer (Pleiss et al.,
    2017), so no upsampled or concatenated array exists.  The forward asks
    for one z-slab of a conv's box at a time, into ``buf``; the backward for
    the whole box, in a new array.
    """
    (x, x_lo), *doubled = src
    c = x.shape[0]
    xp = _front(buf, (c + sum(y.shape[0] for y, _ in doubled), *(hi - lo + (3, 2, 2))), zero=True)
    a, b = np.maximum(lo - 1, x_lo), np.minimum(hi + 1, x_lo + x.shape[1:])
    win = xp[_at(a - lo + 1, b - lo + 1)]
    win[:c] = x[_at(a - x_lo, b - x_lo)]
    for y, y_lo in doubled:
        up = win[c:]
        for cells, c_lo, c_hi in _parities(a, b):
            up[cells] = y[_at(c_lo - y_lo, c_hi - y_lo)]
    return xp


@functools.cache
def _openblas():
    """The loaded OpenBLAS's (get, set) thread-count functions, looked up once through ctypes; None if none is found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# held from pinning BLAS to one thread until the old count is back, so that
# concurrent forward calls cannot interleave a pin and a restore
_BLAS_PIN = threading.Lock()


def _two_workers(c_in: int, d: int, h: int, w: int) -> bool:
    """Whether a forward conv with ``c_in`` input channels on a (d, h, w) box pays for two workers.

    It does when each worker gets a slab and one worker's slab of
    ``_SLAB_PLANES // 2`` planes holds at least one full block of its half
    of ``_BLOCK_BYTES``.  Every conv of a 128x128x64 whole-grid forward
    does; no conv of the desk recipe's 16^3 box forward does, and two
    workers on every conv there took that forward from 31 to 64 ms.
    """
    planes = _SLAB_PLANES // 2
    return d > planes > 0 and planes * (h + 2) * (w + 2) >= (_BLOCK_BYTES // 2) // (72 * c_in)


def _conv_layer(src, lo: np.ndarray, hi: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded 3x3x3 conv plus bias, before the ReLU, on the box [lo, hi) of the input that src holds.

    Walks the box in z-slabs of output planes, the way patch-based inference
    runs a layer region by region (Lin et al., MCUNetV2): each slab's window
    comes from :func:`_conv_window`, :func:`_conv3` runs on it, and the bias
    is added into that slab of one compact (Co, D, H, W) output.  So neither
    the whole window nor a whole output with its junk columns exists.

    A conv large enough to pay for it (see :func:`_two_workers`) runs on two
    worker threads: worker j takes slabs j, j+2, j+4, ... of
    ``_SLAB_PLANES // 2`` planes each, with half of ``_BLOCK_BYTES`` for its
    patch blocks, and writes its own z ranges of the output.  Meanwhile BLAS
    is pinned to one thread, through the OpenBLAS API, and then set back;
    without that API the conv keeps one walk.  Any other conv is one walk of
    ``_SLAB_PLANES``-plane slabs.  Each walk fills one window, one junk-column
    output, one patch buffer and one GEMM output, allocated here in the
    calling thread: buffers a worker allocated itself went to glibc's
    per-thread arenas and took the peak RSS of four 128x128x64 whole-grid
    forwards from 273 to 299 MB.  Every GEMM is a multiple of 8 columns
    wide, so neither the slab bounds nor the worker count moves an output
    bit.
    """
    c_out, c_in = w.shape[:2]
    w2 = _w2(w)
    bias = b[:, None, None, None]
    d, h, w_ = hi - lo
    y = np.empty((c_out, d, h, w_))
    blas = _openblas() if _two_workers(c_in, d, h, w_) else None
    workers = 1 if blas is None else 2
    planes = max(_SLAB_PLANES // workers, 1)
    m = planes * (h + 2) * (w_ + 2)
    width = _block_width(c_in, m, _BLOCK_BYTES // workers)

    def walk(j: int, win: np.ndarray, bufs) -> None:
        for z0 in range(j * planes, d, workers * planes):
            z1 = min(z0 + planes, d)
            yp = _conv3(_conv_window(src, lo + (z0, 0, 0), np.array((lo[0] + z1, *hi[1:])), win), w2, bufs)
            np.add(yp[:, :, :h, :w_], bias, out=y[:, z0:z1])

    walks = [
        (j, np.empty(c_in * (planes + 3) * (h + 2) * (w_ + 2)),
         (np.empty(c_out * m), np.empty(9 * c_in * width), np.empty(3 * c_out * width)))
        for j in range(workers)
    ]
    if blas is None:
        walk(*walks[0])
        return y
    get_threads, set_threads = blas
    with _BLAS_PIN:
        threads = get_threads()
        set_threads(1)
        try:
            with ThreadPoolExecutor(workers) as pool:
                for done in [pool.submit(walk, *args) for args in walks]:
                    done.result()
        finally:
            set_threads(threads)
    return y


def _conv3_weight_grad(xp: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """d(loss)/d(weight), (Co, Ci, 3, 3, 3), from the input's window xp of a box
    and the upstream gradient on that box, framed by :func:`_frame`."""
    c_in, _, hp, wp = xp.shape
    c_out = gp.shape[0]
    shift = 2 * hp * wp + 2 * wp + 2
    gf = gp.reshape(c_out, -1)
    gw2 = np.zeros((3, c_out, 9 * c_in))
    for cols, blk in _patches(xp):
        n = cols.stop - cols.start
        g = gf[:, shift + cols.start : shift + cols.stop]
        for dx in range(3):
            gw2[dx] += g @ blk[:, dx : dx + n].T
    gw = gw2.reshape(3, c_out, 3, 3, c_in).transpose(1, 4, 2, 3, 0)
    return np.ascontiguousarray(gw)


def _frame(g: np.ndarray) -> np.ndarray:
    """g, (C, D, H, W), framed as (C, D+5, H+2, W+2) for both halves of a conv's backward.

    g sits at [2:D+2, 2:, 2:], so in the flat data two zeros precede each
    row of g.  Walked by :func:`_patches`, the frame gives the transposed
    conv on the box grown by one voxel a side, with no junk columns; from
    column 2*Hp*Wp + 2*Wp + 2 on, it is g in the walk's output layout for
    the box itself, zero in the junk columns.
    """
    c, d, h, w = g.shape
    gp = np.zeros((c, d + 5, h + 2, w + 2))
    gp[:, 2 : d + 2, 2:, 2:] = g
    return gp


# ---------------------------------------------------------------------------
# the remaining layer kernels


def _maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2x2 max pool; returns pooled values and winner indices 0..7.

    The winner index encodes the in-block offset as dz*4 + dy*2 + dx.  Three
    pairwise passes, over x, then y, then z, each keep the earlier voxel
    unless the later one is strictly greater or the earlier one is NaN, and
    take the kept voxel's value.  So the winner is argmax's: the first
    maximal voxel in canonical x-fastest scan order, NaN counting as the
    largest value, and the value is that voxel's, the sign of a zero and a
    NaN included.
    """
    idx = None
    for axis, bit in ((3, 1), (2, 2), (1, 4)):
        even = (slice(None),) * axis + (slice(0, None, 2),)
        odd = (slice(None),) * axis + (slice(1, None, 2),)
        a, b = x[even], x[odd]
        keep = a >= b
        keep |= a != a
        x = np.where(keep, a, b)
        idx = (~keep).view(np.uint8) if idx is None else np.where(keep, idx[even], idx[odd] | bit)
    return x, idx


def _maxpool2_grad(gy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`_maxpool2`: gy at each block's winner, +0.0 at the other seven voxels,
    by one strided write per :func:`_parities` class k, the block offset that winner index k encodes."""
    gx = np.empty((gy.shape[0], *(2 * np.array(gy.shape[1:]))))
    for k, (cells, _, _) in enumerate(_parities(np.zeros(3, dtype=int), np.array(gx.shape[1:]))):
        gx[cells] = np.where(idx == k, gy, 0.0)
    return gx


def _doubling_grad(g: np.ndarray, lo: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of the coarse output a ``cat`` doubles: g, on the fine box from lo, summed into the coarse box [a, b).

    Each coarse voxel adds its fine voxels' gradients x pair by x pair, then
    the four pair sums in (z, y) scan order, whatever the box, so a box's
    gradient is byte-equal to the same box of the whole grid's.
    """
    gc = np.zeros((g.shape[0], *(b - a)))
    classes = list(_parities(lo, lo + g.shape[1:]))
    for x_pair in zip(classes[::2], classes[1::2]):
        pair = np.zeros_like(gc)
        for cells, c_lo, c_hi in x_pair:
            pair[_at(c_lo - a, c_hi - a)] += g[cells]
        gc += pair
    return gc


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, with one exp that never overflows.

    ``out`` may be x itself; the only full-size temporary is e^-|x|.
    """
    pos = x >= 0.0
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    if out is None:
        out = np.empty_like(x)
    np.copyto(out, e)
    np.copyto(out, 1.0, where=pos)
    e += 1.0
    return np.divide(out, e, out=out)


# ---------------------------------------------------------------------------
# forward / backward


def _demand(config: NetConfig, dims, lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The output box [lo, hi) of every tape record, in record order, for the head to cover [lo, hi).

    ``dims`` is the (D, H, W) grid.  Walks the records in reverse from the
    head with three rules, used by both :func:`forward` and :func:`backward`:
    a 3x3x3 conv needs its box grown by one voxel a side, clipped to its
    level's grid; ``cat``, the join, needs it halved outward; ``pool`` needs
    it doubled.  ``head`` keeps it.  The skip a ``cat`` reads needs no rule
    of its own: twice the matching pool's box always holds it, since the
    cone through the coarser levels only widens.
    """
    grid = np.array(dims)
    boxes: list[tuple[np.ndarray, np.ndarray]] = []
    for layer, _, _ in reversed(config.layer_plan()):
        if layer.startswith("enc"):  # the pool after it
            boxes.append((lo, hi))
            lo, hi, grid = 2 * lo, 2 * hi, 2 * grid
        boxes.append((lo, hi))
        if layer != "head":
            lo, hi = np.maximum(lo - 1, 0), np.minimum(hi + 1, grid)
        if layer.endswith(".merge"):  # the cat before it
            boxes.append((lo, hi))
            lo, hi, grid = lo >> 1, (hi + 1) >> 1, grid >> 1
    return boxes[::-1]


@dataclass
class Tape:
    """One forward pass, as the backward pass reads it.

    ``records`` holds one ``(op, layer, lo, saved)`` entry per layer in
    execution order, where ``lo`` is the grid origin of the layer's output
    box, the record's box from :func:`_demand`: ``conv`` saves ``(src,
    mask)``, ``pool`` its winner indices, ``cat`` the skip's channel count
    and ``head`` its input.  A conv's mask is its ReLU mask, and src holds
    the sources :func:`_conv_window` builds its windows from: ``((x,
    x_lo),)``, its input and that input's origin, or for a ``.merge`` conv
    the skip and the coarse ``.reduce`` output with their origins.  So the
    skip stays on the tape, and the merge input exists only one window at a
    time.  ``out`` is the sigmoid output on the box the forward was asked
    for, (1, D, H, W).
    """

    params: NetParams
    out: np.ndarray
    records: list[tuple[str, str, np.ndarray, object]]


def forward(params: NetParams, vol: Volume, box: Box | None = None) -> tuple[Volume, Tape]:
    """Run the net on one unit-domain volume and return its output on ``box``; records a tape for backward.

    ``box`` defaults to the whole grid.  Each layer runs only on its box from
    :func:`_demand`, the part of its grid that the output on ``box`` depends
    on; for a loss scored on the defect crop that skips most of the decoder.
    A conv reads its input's windows of its box one z-slab at a time (see
    :func:`_conv_layer`), whose one-voxel halo holds real neighbours and
    zeros only at faces of the grid, and every conv GEMM is a multiple of 8
    columns wide (see :func:`_patches`), so the output, and every gradient
    :func:`backward` takes from the tape, is byte-equal to the same box of
    the whole-grid forward's.  A ``.merge`` conv's windows are filled from
    the skip and the coarse ``.reduce`` output (see :func:`_conv_window`),
    and its tape record keeps both.
    """
    if vol.domain != UNIT:
        raise DomainError(f"network input must be unit-domain, got {vol.domain!r}")
    cfg = params.config
    step = 1 << cfg.depth
    if any(n % step for n in vol.data.shape):
        raise ShapeError(
            f"dims {vol.dims} must be divisible by 2^depth = {step} for depth {cfg.depth}"
        )
    if box is None:
        box = Box((0, 0, 0), vol.dims)
    elif not box.fits(vol.dims):
        raise BoundsError(f"box {box.origin}+{box.size} exceeds dims {vol.dims}")
    lo = np.array(box.origin[::-1])
    boxes = _demand(cfg, vol.data.shape, lo, lo + box.size[::-1])
    t = params.tensors
    records: list[tuple[str, str, np.ndarray, object]] = []

    def conv(src, layer: str) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = boxes[len(records)]
        y = _conv_layer(src, lo, hi, t[f"{layer}.w"], t[f"{layer}.b"])
        mask = y > 0.0
        records.append(("conv", layer, lo, (src, mask)))
        return np.maximum(y, 0.0, out=y), lo

    # x always holds its layer's output on the box with origin o
    x, o = vol.data[None], np.zeros(3, dtype=int)
    skips: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(cfg.depth):
        x, o = conv(((x, o),), f"enc{i}")
        skips.append((x, o))
        x, idx = _maxpool2(x)
        o = o >> 1
        records.append(("pool", f"enc{i}", o, idx))

    x, o = conv(((x, o),), "bott")

    for i in reversed(range(cfg.depth)):
        x, o = conv(((x, o),), f"dec{i}.reduce")
        skip, s_lo = skips.pop()
        records.append(("cat", f"dec{i}", boxes[len(records)][0], skip.shape[0]))
        x, o = conv(((skip, s_lo), (x, o)), f"dec{i}.merge")

    records.append(("head", "head", o, x))
    c, d, h, w = x.shape
    out = t["head.w"] @ x.reshape(c, d * h * w)
    out += t["head.b"][:, None]
    out = _sigmoid(out, out=out).reshape(1, d, h, w)
    return Volume(out[0], vol.spacing, UNIT), Tape(params, out, records)


def _at(lo, hi) -> tuple[slice, ...]:
    """Index of the box [lo, hi) over every channel of a (C, D, H, W) array."""
    return (slice(None), *(slice(a, b) for a, b in zip(lo, hi)))


def _support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo, hi) of the smallest box holding every nonzero of a; one voxel at the origin if none."""
    nz = a != 0.0
    lo, hi = np.zeros(3, dtype=int), np.ones(3, dtype=int)
    for axis in range(3):
        hit = np.flatnonzero(nz.any(axis=tuple(k for k in range(3) if k != axis)))
        if hit.size:
            lo[axis], hi[axis] = hit[0], hit[-1] + 1
    return lo, hi


def backward(tape: Tape, grad_out: Volume) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/d(output); pairs with :func:`forward`.

    Walks the tape once in reverse, carrying the gradient only on its
    support: the bounding box of the nonzeros of ``grad_out`` (the crop for
    a defect-crop loss, the whole grid for a full-volume one) is handed to
    :func:`_demand`, and at record k the gradient lives on that walk's box k
    and the record's input gradient goes on box k - 1.  Those boxes stay
    inside the forward's, and saved arrays are indexed through their
    records' origins.  A conv takes its weight gradient on its box from the
    input's window, whose one-voxel halo holds real neighbours and zeros
    only at grid faces; its input gradient convolves the same zero-framed
    copy of the gradient, exact since the gradient vanishes outside its box.
    ``cat`` pushes the skip's gradient, which the matching ``pool`` adds
    into the winners' gradient, and sums the rest into the coarse box (see
    :func:`_doubling_grad`).  ``grad_out`` must match the dims of the tape's
    output; a tape can be walked repeatedly.
    """
    if grad_out.data.shape != tape.out.shape[1:]:
        raise ShapeError(
            f"gradient dims {grad_out.dims} do not match tape output {tape.out.shape[1:][::-1]}"
        )
    t = tape.params.tensors
    grads: dict[str, np.ndarray] = {}
    lo, hi = _support(grad_out.data)
    out = tape.out[_at(lo, hi)]
    g = grad_out.data[None][_at(lo, hi)] * (out * (1.0 - out))
    o = tape.records[-1][2]  # the head's box is the output's
    ((x, _),), _ = tape.records[0][3]  # enc0's input is the whole volume
    dims = x.shape[1:]
    boxes = _demand(tape.params.config, dims, lo + o, hi + o)
    skip_grads: list[tuple[np.ndarray, np.ndarray]] = []

    for k in reversed(range(len(tape.records))):
        op, layer, o, saved = tape.records[k]
        lo, hi = boxes[k]
        if op == "head":
            c = saved.shape[0]
            g2 = g.reshape(1, -1)
            # a contiguous copy, so the GEMM sums in the same order whatever box saved covers
            xs = np.ascontiguousarray(saved[_at(lo - o, hi - o)]).reshape(c, -1)
            grads["head.w"] = g2 @ xs.T
            grads["head.b"] = g2.sum(axis=1)
            g = (t["head.w"].T @ g2).reshape(c, *g.shape[1:])
        elif op == "conv":
            src, mask = saved
            g = g * mask[_at(lo - o, hi - o)]
            gp = _frame(g)
            grads[f"{layer}.w"] = _conv3_weight_grad(_conv_window(src, lo, hi), gp)
            grads[f"{layer}.b"] = g.sum(axis=(1, 2, 3))
            if k:  # nothing reads the gradient of the net's input
                # the input box is this box grown by one voxel a side, as far as
                # the grid goes: [s, e) of the frame's grown box, whose planes
                # s[0] .. e[0]+2 are all the walk needs for that z range
                a, b = boxes[k - 1]
                s, e = a - lo + 1, b - lo + 1
                gx = _conv3(gp[:, s[0] : e[0] + 3], _w2_flipped(t[f"{layer}.w"]))
                g = gx[:, :, s[1] : e[1], s[2] : e[2]]
        elif op == "cat":
            skip_grads.append((g[:saved], lo))
            g = _doubling_grad(g[saved:], lo, *boxes[k - 1])
        else:  # pool
            skip, skip_lo = skip_grads.pop()
            g = _maxpool2_grad(g, saved[_at(lo - o, hi - o)])
            g[_at(skip_lo - 2 * lo, skip_lo - 2 * lo + skip.shape[1:])] += skip

    return grads


# ---------------------------------------------------------------------------
# optimiser


@dataclass
class OptState:
    """Adam with coupled L2 weight decay; moments live here, keyed like tensors."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    batch_size: int = 1
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # written as "not (valid)" so that NaN, which fails every comparison, is rejected
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DomainError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not (self.lr > 0.0 and self.eps > 0.0):
            raise DomainError(f"lr and eps must be positive, got {self.lr}, {self.eps}")
        if not self.weight_decay >= 0.0:
            raise DomainError(f"weight decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be at least 1, got {self.batch_size}")


def adam_step(params: NetParams, grads: dict[str, np.ndarray], opt: OptState) -> tuple[NetParams, OptState]:
    """One update, in place; returns the same objects for chaining.

    Weight decay is coupled: ``wd * p`` joins the gradient before the
    moment updates, so it is smoothed and rescaled like any other
    gradient contribution.
    """
    if set(grads) != set(params.tensors):
        missing = set(params.tensors) ^ set(grads)
        raise ShapeError(f"gradient keys do not match parameters: {sorted(missing)}")
    if not opt.m:
        opt.m = {k: np.zeros_like(p) for k, p in params.tensors.items()}
        opt.v = {k: np.zeros_like(p) for k, p in params.tensors.items()}
    opt.step += 1
    bc1 = 1.0 - opt.beta1**opt.step
    bc2 = 1.0 - opt.beta2**opt.step
    for name, p in params.tensors.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"{name}: gradient shape {g.shape} != parameter shape {p.shape}")
        if opt.weight_decay != 0.0:
            g = g + opt.weight_decay * p
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
    return params, opt


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"RFCK"
_CKPT_VERSION = 1


def save_checkpoint(path, params: NetParams, opt: OptState) -> None:
    """Versioned little-endian binary dump of parameters and optimiser state.

    The bytes go to a temporary file beside ``path``, are synced to disk and
    then renamed onto it, so a failed or interrupted save leaves the previous
    checkpoint whole and no temporary file behind.
    """
    cfg = params.config
    chunks: list[bytes] = [
        _CKPT_MAGIC,
        struct.pack("<I", _CKPT_VERSION),
        struct.pack("<II", cfg.depth, cfg.base_channels),
        struct.pack("<I", len(params.tensors)),
    ]
    for name, tensor in params.tensors.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    chunks.append(
        struct.pack(
            "<dddddIQ",
            opt.lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay,
            opt.batch_size, opt.step,
        )
    )
    have_moments = bool(opt.m)
    chunks.append(struct.pack("<B", int(have_moments)))
    if have_moments:
        for store in (opt.m, opt.v):
            for name in params.tensors:
                chunks.append(np.ascontiguousarray(store[name], dtype="<f8").tobytes())
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[NetParams, OptState]:
    rd = _Reader(Path(path).read_bytes())
    if rd.take(4) != _CKPT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = rd.unpack("<I")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    depth, base = rd.unpack("<II")
    try:
        config = NetConfig(depth=depth, base_channels=base)
    except DomainError as exc:
        raise CheckpointError(f"{path}: bad net header: {exc}") from None
    (n_tensors,) = rd.unpack("<I")
    # 3d + 2 convs of two tensors each, checked first: a corrupt depth makes a huge plan
    if n_tensors != 2 * (3 * depth + 2):
        raise CheckpointError(f"{path}: {n_tensors} tensors cannot make a depth-{depth} net")
    shapes = _tensor_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = rd.unpack("<H")
        name = rd.take(name_len).decode("utf-8", errors="replace")
        (ndim,) = rd.unpack("<B")
        shape = rd.unpack(f"<{ndim}I")
        if name in tensors or shapes.get(name) != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} of shape {shape} is repeated or does not fit "
                f"a {depth}/{base} net"
            )
        raw = rd.take(math.prod(shape) * 8)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    lr, beta1, beta2, eps, wd, batch, step = rd.unpack("<dddddIQ")
    try:
        opt = OptState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=wd,
            batch_size=batch, step=step,
        )
    except DomainError as exc:
        raise CheckpointError(f"{path}: bad optimiser block: {exc}") from None
    (have_moments,) = rd.unpack("<B")
    if have_moments:
        for store_name in ("m", "v"):
            store: dict[str, np.ndarray] = {}
            for name, tensor in tensors.items():
                raw = rd.take(tensor.size * 8)
                store[name] = np.frombuffer(raw, dtype="<f8").reshape(tensor.shape).copy()
            setattr(opt, store_name, store)
    if rd.pos != len(rd.raw):
        raise CheckpointError(f"{len(rd.raw) - rd.pos} unexpected trailing bytes")
    return NetParams(config=config, tensors=tensors), opt
