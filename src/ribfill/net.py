"""A compact 3-D encoder-decoder with hand-written forward and backward.

Everything runs in float64 on the CPU.  Convolutions are 3x3x3, same
padding, one GEMM per cache-sized column block of a flat zero-framed window
of the input with the three x taps folded into the kernel's rows.  Every
conv walk is planned by :func:`_slab_plan`, so no whole window and no whole
output with its junk columns ever exists.  The forward walks tiles of a few
output planes by as many rows as keep the tile's window and its output
buffer each within the block budget, so its scratch does not grow with the
grid's plane, and finishes each tile while it is in cache: it adds the bias
into the tile of one compact output, clamps it for the ReLU and, after an
encoder conv, max-pools it.  Both halves of the backward walk whole-plane
z-slabs: the weight gradient walks the slab windows, and the input gradient
convolves the upstream gradient with the offset-flipped, in/out-swapped
kernel, so no scatter operation ever appears.  A forward conv with two
tiles or more on a large plane, as every conv of a 128x128x64 whole-grid
forward has, splits its tiles between two worker threads, with OpenBLAS
pinned to one thread (see :func:`_two_workers`).  Other convs and the
backward keep one walk.  Downsampling is 2x2x2 max pooling (ties go to the
first maximal voxel in canonical x-fastest scan order), upsampling is
nearest-neighbour doubling.  Each decoder level halves the channel count
with a conv while still at the coarse resolution, then merges the encoder
skip and the doubled grid with another conv.  That merge input never
exists whole either: :func:`_conv_window`, the one builder of every conv window, fills
each of the merge conv's tile windows from the skip and the coarse output,
the way memory-efficient DenseNets build their concatenations in a shared
buffer (Pleiss et al., 2017).  The skip is copied into the first channels,
and the coarse output is written into the rest by one strided copy per
parity class of voxels, so no upsampled or concatenated array exists; the
backward of the join and of the pool walk the same eight classes.  The
head is a 1x1x1 conv squashed in place by a sigmoid, a block budget of its
output at a time, so outputs live strictly inside (0, 1).

The tape's record order is declared once, by :func:`_records`, the one
plan.  Both passes work on boxes, as sparse-block convolution does for one
block (Ren et al., SBNet), and both take their boxes from one reverse walk
of that plan, :func:`_demand`, with one rule per op: given the box the head
must cover, it finds the box each record must output for that, the box's
cone, one voxel wider per conv, aligned and halved or doubled at each change
of level.  The forward is asked for its output on a box (the whole grid by
default) and runs each record only on its demand box, so a loss scored on
the defect crop skips most of the decoder.  Every conv GEMM is a multiple of 8 columns wide, so no voxel lies
in a ragged GEMM tail and its value does not depend on where its block ends
(see :func:`_patches`), and the output on a box is byte-equal to that box of
the whole-grid output.

The forward, one loop over the plan with one branch per op, appends one
``(op, layer, lo, saved)`` record per entry to a :class:`Tape`, where
``lo`` is the origin of the record's box; the backward pass is reverse-mode
differentiation (Griewank & Walther, *Evaluating Derivatives*): one walk
over those records from last to first.  A conv's record keeps its ReLU
output, which a later record holds anyway, and no mask: the backward forms
the ReLU's mask from that output on its box, since max(v, 0) > 0 exactly
where v > 0.  It runs the same demand walk from the support box of the
output gradient, the bounding box of its nonzeros, so a loss scored on the
defect crop costs a backward pass over the crop plus a halo of one voxel
per conv.  Each conv frames its gradient with zeros once, and both its
weight gradient and its input gradient read that copy.

The optimiser is Adam with coupled L2 weight decay: ``wd * p`` is added to
the raw gradient before the moment updates, the classic (non-decoupled)
formulation.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import numbers
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import UNIT, BoundsError, Box, DomainError, ShapeError, Volume, _write_atomic


class CheckpointError(ValueError):
    """An unreadable, foreign, or truncated checkpoint file."""


# Every number a checkpoint stores outside its tensors, field by field in file order with its
# little-endian struct code: the net header, and the optimiser block after the tensors (see
# :func:`load_checkpoint`).  Each block is packed, unpacked and bounded from its table alone.
_NET_SLOTS = {"depth": "I", "base_channels": "I"}
_OPT_SLOTS = {"lr": "d", "beta1": "d", "beta2": "d", "eps": "d", "weight_decay": "d", "batch_size": "I", "step": "Q"}


def _layout(slots: dict[str, str]) -> str:
    """The struct format of one block of :data:`_NET_SLOTS` or :data:`_OPT_SLOTS`."""
    return "<" + "".join(slots.values())


def _check_counts(obj, slots: dict[str, str], **lows: int) -> None:
    """Raise a DomainError naming the first field of obj that is not an integer from its lower bound in
    ``lows`` to the most its slot in ``slots`` holds."""
    for name, lo in lows.items():
        hi = 2 ** (8 * struct.calcsize("<" + slots[name])) - 1
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Integral) and lo <= value <= hi):
            raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True)
class NetConfig:
    depth: int = 2
    base_channels: int = 8

    def __post_init__(self) -> None:
        _check_counts(self, _NET_SLOTS, depth=1, base_channels=1)

    def layer_plan(self) -> list[tuple[str, int, int]]:
        """(name, in_channels, out_channels) for every conv, in forward order."""
        return [(layer, c_in, c_out) for op, layer, c_in, c_out in _records(self) if op in ("conv", "head")]


def _records(config: NetConfig) -> list[tuple[str, str, int, int]]:
    """(op, layer, in_channels, out_channels) of every tape record, in forward order: the net's one plan,
    which :meth:`NetConfig.layer_plan`, :func:`_demand` and :func:`forward` read."""
    c = [1] + [config.base_channels << i for i in range(config.depth + 1)]  # c[i + 1] is level i's width
    plan = []
    for i in range(config.depth):
        plan += [("conv", f"enc{i}", c[i], c[i + 1]), ("pool", f"enc{i}", c[i + 1], c[i + 1])]
    plan.append(("conv", "bott", c[-2], c[-1]))
    for i in reversed(range(config.depth)):
        plan += [("conv", f"dec{i}.reduce", c[i + 2], c[i + 1]), ("cat", f"dec{i}", c[i + 1], c[i + 2]),
                 ("conv", f"dec{i}.merge", c[i + 2], c[i + 1])]
    return plan + [("head", "head", c[1], 1)]


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
        if len(shape) == 1:  # a bias
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

# _BLOCK_BYTES bounds one walk's patch blocks, which a forward conv on two workers splits, and each
# of a forward tile's window and output buffer (see :func:`_slab_plan`).
_BLOCK_BYTES = 1 << 21  # patch-block bytes; the fastest budget differs from conv to conv (ROADMAP Baseline)
_SLAB_PLANES = 4  # output z planes per tile and slab; 8 took a 32x64x64 peak from 1.24x to 1.40x what it keeps


def _front(buf: np.ndarray, shape, zero: bool = False) -> np.ndarray:
    """A float64 array of ``shape`` over the front of the flat buffer ``buf``, zero-filled if ``zero``."""
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


def _patches(xp: np.ndarray, buf: np.ndarray):
    """Yield (output columns, (9*Ci, 8k) patch block) over the flat window xp, (Ci, Dp, Hp, Wp).

    The walk covers output columns [0, (Dp - 3)*Hp*Wp).  Row (dz*3 + dy)*Ci + ci
    holds channel ci from column q + dz*Hp*Wp + dy*Wp on, for the block's n
    output columns q and two halo columns, so tap dx is ``block[:, dx : dx + n]``.
    Every block is a multiple of 8 columns wide, the last one zero-filled up
    to that: OpenBLAS's SkylakeX, Haswell and Nehalem kernels compute a
    GEMM's columns past a multiple of 8 with another tile, which sums in
    another order, so a column's value would depend on where its block ends.
    A window's last block ends in junk columns, but a slab of
    :func:`_conv3_input_grad` may end in a voxel it keeps.  The blocks fill
    the flat buffer ``buf``, of at least 72*Ci floats, as wide as
    :func:`_block_width` allows for its bytes; each must be consumed before
    the next one is drawn.
    """
    c_in, dp, hp, wp = xp.shape
    m = (dp - 3) * hp * wp
    item = xp.itemsize
    # taps[dz, dy, ci, j] is flat window column j + dz*Hp*Wp + dy*Wp of channel ci
    taps = np.lib.stride_tricks.as_strided(
        xp, shape=(3, 3, c_in, m + 2), strides=(hp * wp * item, wp * item, xp.strides[0], item),
        writeable=False,
    )
    width = _block_width(c_in, m, 8 * buf.size)
    for q0 in range(0, m, width - 2):
        n = min(width - 2, m - q0)
        blk = _front(buf, (3, 3, c_in, (n + 9) & ~7))
        blk[..., : n + 2] = taps[..., q0 : q0 + n + 2]
        blk[..., n + 2 :] = 0.0
        yield slice(q0, q0 + n), blk.reshape(9 * c_in, -1)


def _conv3(xp: np.ndarray, w2: np.ndarray, out_buf: np.ndarray, blocks: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """3x3x3 conv over a window from :func:`_conv_window` with a (3*Co, 9*Ci) kernel from :func:`_w2`.

    Returns the (Co, Dp-3, Hp, Wp) output, junk columns included, in the front
    of ``out_buf``.  One GEMM per patch block (in ``blocks``) gives each dx its
    own row group (in ``prods``); the three are summed at column shifts 0, 1, 2.
    """
    c_out = w2.shape[0] // 3
    _, dp, hp, wp = xp.shape
    yp = _front(out_buf, (c_out, dp - 3, hp, wp))
    yf = yp.reshape(c_out, -1)
    for cols, blk in _patches(xp, blocks):
        n = cols.stop - cols.start
        p = np.matmul(w2, blk, out=_front(prods, (3 * c_out, blk.shape[1])))
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


def _conv_window(src, lo, hi, buf: np.ndarray) -> np.ndarray:
    """A conv's input over the box [lo, hi) with a one-voxel frame and a spare z plane, (C, D+3, H+2, W+2),
    from the sources its tape record saves, in the front of the flat buffer ``buf``.

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
    2017).  Every caller asks for one tile or z-slab of a conv's box (see :func:`_slab_plan`).
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


def _tile_rows(c_in: int, c_out: int, planes: int, h: int, w: int) -> int:
    """Rows R of a forward conv's tile of ``planes`` output planes over a box h rows high and w wide.

    The largest even count, at least 2, for which the tile's window,
    (c_in, planes + 3, R + 2, w + 2), and its output buffer, (c_out, planes,
    R + 2, w + 2), each fit ``_BLOCK_BYTES`` sets how many tiles the h rows
    take; R is the least even count, at most h, that splits them into that
    many, so no tile is a sliver: enc1 of a 128x128x64 whole-grid forward
    gets two of 32 rows, not 60 and 4, which alternate tiles would give one
    worker nearly all of.
    """
    row = 8 * (w + 2) * max(c_in * (planes + 3), c_out * planes)  # float64 bytes per tile row of each
    tiles = -(-h // max((_BLOCK_BYTES // row - 2) & ~1, 2))
    return min((-(-h // tiles) + 1) & ~1, h)


def _two_workers(c_in: int, c_out: int, d: int, h: int, w: int) -> bool:
    """Whether a forward conv from ``c_in`` to ``c_out`` channels on a (d, h, w) box pays for two workers.

    It does when the box holds at least two tiles (see :func:`_slab_plan`)
    and a whole-plane z-slab of a tile's planes would hold at least one full
    patch block of ``_BLOCK_BYTES``, two of a worker's half; a tile's rows
    follow the memory budget, not the work.  Every conv of a 128x128x64
    whole-grid forward does; no conv of the desk recipe's 16^3 box forward
    does, and two workers on every conv there took that forward from 31 to
    64 ms.
    """
    planes = min(_SLAB_PLANES, d)
    tiles = -(-d // planes) * -(-h // _tile_rows(c_in, c_out, planes, h, w))
    return tiles > 1 and planes * (h + 2) * (w + 2) >= _BLOCK_BYTES // (72 * c_in)


def _slab_plan(
    c_in: int, c_out: int | None, d: int, h: int, w: int, window: bool, workers: int = 1, pool: bool = False
):
    """``(tiles, *buffers)`` per worker for a conv walk with ``c_in`` input channels over a (d, h, w) output box.

    A tile ``(z0, z1, y0, y1)`` is ``_SLAB_PLANES`` output planes, rounded
    up to even if ``pool`` so that it holds whole 2x2x2 pool blocks, by R
    rows.  The forward's walk, the one with both a ``window`` and ``c_out``
    output channels, takes R from :func:`_tile_rows`, so its scratch does
    not grow with the box's plane; the backward's walks keep R = h, whole
    z-slabs, since the weight gradient's bits follow its blocks and the
    input gradient reads views of the frame.  Worker j takes tiles j, j +
    workers, ... in z-major order, and one ``workers``-th of
    ``_BLOCK_BYTES`` for its patch blocks.  Its flat buffers are a tile's
    window if ``window``, then :func:`_conv3`'s three for ``c_out`` output
    channels, or, if ``c_out`` is None, the patch blocks alone.  All are
    allocated in the calling thread: buffers each worker allocated took
    four 128x128x64 whole-grid forwards from 273 to 299 MB.
    """
    planes = min(_SLAB_PLANES + (_SLAB_PLANES % 2 if pool else 0), d)
    rows = _tile_rows(c_in, c_out, planes, h, w) if window and c_out is not None else h
    m = planes * (rows + 2) * (w + 2)
    width = _block_width(c_in, m, _BLOCK_BYTES // workers)
    sizes = [c_in * (planes + 3) * (rows + 2) * (w + 2)] if window else []
    sizes += [9 * c_in * width] if c_out is None else [c_out * m, 9 * c_in * width, 3 * c_out * width]
    tiles = [(z0, min(z0 + planes, d), y0, min(y0 + rows, h)) for z0 in range(0, d, planes) for y0 in range(0, h, rows)]
    return [(tiles[j::workers], *(np.empty(n) for n in sizes)) for j in range(workers)]


def _conv_layer(src, lo: np.ndarray, hi: np.ndarray, w: np.ndarray, b: np.ndarray, pool: bool = False):
    """Same-padded 3x3x3 conv plus bias and ReLU on the box [lo, hi) of the input that src holds.

    Returns ``(y,)``, the compact (Co, D, H, W) ReLU output, or with ``pool``
    ``(y, pooled, winners)``, y's :func:`_maxpool2` on the halved box.  Walks
    the box in tiles of a few planes by as many rows as the block budget
    allows, the way patch-based inference runs a layer region by region (Lin
    et al., MCUNetV2), so its scratch stays a few budgets whatever the box's
    plane, and finishes each tile while it is in cache: it adds the bias
    into the tile of y, clamps it in place and, with ``pool``, pools it into
    its half-range planes and rows of the pooled and winner arrays; the
    tiles of a pooled box, whose bounds are even, hold whole pool blocks
    (see :func:`_slab_plan`).  A conv large enough to pay for it (see
    :func:`_two_workers`) splits its tiles between two worker threads, with
    BLAS pinned to one thread through the OpenBLAS API and then set back;
    without that API it keeps one walk.  Neither the tile bounds nor the
    worker count moves an output bit (see :func:`_patches`).
    """
    c_out, c_in = w.shape[:2]
    w2 = _w2(w)
    bias = b[:, None, None, None]
    d, h, w_ = hi - lo
    y = np.empty((c_out, d, h, w_))
    half = (c_out, d // 2, h // 2, w_ // 2)
    outs = (y, np.empty(half), np.empty(half, dtype=np.uint8)) if pool else (y,)
    blas = _openblas() if _two_workers(c_in, c_out, d, h, w_) else None
    walks = _slab_plan(c_in, c_out, d, h, w_, True, 1 if blas is None else 2, pool)

    def walk(tiles, win: np.ndarray, *bufs: np.ndarray) -> None:
        for z0, z1, y0, y1 in tiles:
            yp = _conv3(_conv_window(src, lo + (z0, y0, 0), lo + (z1, y1, w_), win), w2, *bufs)
            ys = y[:, z0:z1, y0:y1]
            np.add(yp[:, :, : y1 - y0, :w_], bias, out=ys)
            np.maximum(ys, 0.0, out=ys)
            if pool:
                cells = (slice(None), slice(z0 // 2, z1 // 2), slice(y0 // 2, y1 // 2))
                outs[1][cells], outs[2][cells] = _maxpool2(ys)

    if blas is None:
        walk(*walks[0])
        return outs
    get_threads, set_threads = blas
    with _BLAS_PIN:
        threads = get_threads()
        set_threads(1)
        try:
            with ThreadPoolExecutor(len(walks)) as executor:
                # each worker runs in a copy of the caller's context, so under its np.errstate
                for done in [executor.submit(contextvars.copy_context().run, walk, *args) for args in walks]:
                    done.result()
        finally:
            set_threads(threads)
    return outs


def _conv3_weight_grad(src, lo: np.ndarray, hi: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """d(loss)/d(weight), (Co, Ci, 3, 3, 3), of a conv on the box [lo, hi) of the input that src holds
    (see :func:`_conv_window`), from the upstream gradient on that box framed by :func:`_frame`.

    Walks whole-plane z-slabs of ``_SLAB_PLANES`` planes, each slab's window in one reused
    buffer, against the frame from column (z0 + 2)*Hp*Wp + 2*Wp + 2; partials add up in slab order.
    """
    c_out, _, hp, wp = gp.shape
    c_in = sum(x.shape[0] for x, _ in src)
    gf = gp.reshape(c_out, -1)
    gw2 = np.zeros((3, c_out, 9 * c_in))
    ((slabs, win, blocks),) = _slab_plan(c_in, None, *(hi - lo), True)
    for z0, z1, _, _ in slabs:
        xp = _conv_window(src, lo + (z0, 0, 0), np.array((lo[0] + z1, *hi[1:])), win)
        g = gf[:, (z0 + 2) * hp * wp + 2 * wp + 2 :]  # the gradient from the slab's first output voxel on
        for cols, blk in _patches(xp, blocks):
            n = cols.stop - cols.start
            for dx in range(3):
                gw2[dx] += g[:, cols] @ blk[:, dx : dx + n].T
    gw = gw2.reshape(3, c_out, 3, 3, c_in).transpose(1, 4, 2, 3, 0)
    return np.ascontiguousarray(gw)


def _conv3_input_grad(gp: np.ndarray, s: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(loss)/d(input) of a conv with weights w on [s, e) of its box grown by one voxel a side,
    from the upstream gradient on the box framed by :func:`_frame`.

    :func:`_conv3` walks z-slabs of [s, e) over views of the frame, and each slab's [s1:e1, s2:e2] is
    copied into one compact array, with no bias, so a -0.0 stays -0.0.
    """
    c_out, _, hp, wp = gp.shape
    w2 = _w2_flipped(w)
    gx = np.empty((w.shape[1], *(e - s)))
    ((slabs, *bufs),) = _slab_plan(c_out, w.shape[1], e[0] - s[0], hp - 2, wp - 2, False)
    for z0, z1, _, _ in slabs:
        gx[:, z0:z1] = _conv3(gp[:, s[0] + z0 : s[0] + z1 + 3], w2, *bufs)[:, :, s[1] : e[1], s[2] : e[2]]
    return gx


def _frame(g: np.ndarray) -> np.ndarray:
    """g, (C, D, H, W), framed as (C, D+5, H+2, W+2): the one copy both halves of a conv's backward read.

    g sits at [2:D+2, 2:, 2:], so two zeros precede each row of g.  Its planes
    z0 to z1 + 2 give the transposed conv on planes [z0, z1) of the box grown
    by one voxel a side, with no junk columns; from column 2*Hp*Wp + 2*Wp + 2
    on, it is g in a window walk's output layout, zero in the junk columns.
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

    Each coarse voxel adds its fine voxels' gradients onto a zero in
    :func:`_parities` class order, whatever the box, so a box's gradient is
    byte-equal to the same box of the whole grid's.
    """
    gc = np.zeros((g.shape[0], *(b - a)))
    for cells, c_lo, c_hi in _parities(lo, lo + g.shape[1:]):
        gc[_at(c_lo - a, c_hi - a)] += g[cells]
    return gc


def _sigmoid(x: np.ndarray) -> None:
    """Squash x in place to 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, with one exp that never
    overflows; the only full-size temporary is e^-|x|."""
    pos = x >= 0.0
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    np.copyto(x, e)
    np.copyto(x, 1.0, where=pos)
    e += 1.0
    np.divide(x, e, out=x)


# ---------------------------------------------------------------------------
# forward / backward


def _demand(config: NetConfig, dims, lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The output box [lo, hi) of every tape record, in record order, for the head to cover [lo, hi).

    ``dims`` is the (D, H, W) grid.  Walks the plan from :func:`_records` in
    reverse from the head, used by both :func:`forward` and :func:`backward`,
    with one rule per op for the box of a record's input: a 3x3x3 ``conv``
    needs its box grown by one voxel a side, clipped to its level's grid;
    ``cat``, the join, needs it halved outward; ``pool`` needs it doubled;
    ``head`` keeps it.  The skip a ``cat`` reads needs no rule of its own:
    twice the matching pool's box always holds it, since the cone through
    the coarser levels only widens.
    """
    grid = np.array(dims)
    boxes: list[tuple[np.ndarray, np.ndarray]] = []
    for op, _, _, _ in reversed(_records(config)):
        boxes.append((lo, hi))
        if op == "conv":
            lo, hi = np.maximum(lo - 1, 0), np.minimum(hi + 1, grid)
        elif op == "cat":
            lo, hi, grid = lo >> 1, (hi + 1) >> 1, grid >> 1
        elif op == "pool":
            lo, hi, grid = 2 * lo, 2 * hi, 2 * grid
    return boxes[::-1]


@dataclass
class Tape:
    """One forward pass, as the backward pass reads it.

    ``records`` holds one ``(op, layer, lo, saved)`` entry per record of
    the one plan, :func:`_records`, in its order, where ``lo`` is the grid
    origin of the record's output box from :func:`_demand`: ``conv`` saves
    ``(src, y)``, ``pool`` its winner indices, ``cat`` the skip's channel
    count and ``head`` its input.  A conv's y is its ReLU output, the very
    array that a later record reads (the next conv's src, a merge's skip or
    coarse source, or the head's input), so saving it costs no memory; the
    backward takes the ReLU's mask as ``y > 0``.  src holds the sources
    :func:`_conv_window` builds its windows from, in the forward and in the
    weight gradient: ``((x, x_lo),)``, its input and that input's origin,
    or for a ``.merge`` conv the skip and the coarse ``.reduce`` output with
    their origins.  So the skip stays on the tape, and the merge input
    never exists whole.  ``out`` is the sigmoid output on the box the
    forward was asked for, (1, D, H, W).
    """

    params: NetParams
    out: np.ndarray
    records: list[tuple[str, str, np.ndarray, object]]


def forward(params: NetParams, vol: Volume, box: Box | None = None) -> tuple[Volume, Tape]:
    """Run the net on one unit-domain volume and return its output on ``box``; records a tape for backward.

    ``box`` defaults to the whole grid.  One loop walks the one plan,
    :func:`_records`, with one branch per op, and runs each record only on
    its box from :func:`_demand`, the part of its grid that the output on
    ``box`` depends on; for a loss scored on the defect crop that skips most
    of the decoder.  A stack carries each ``pool``'s skip to its ``cat``.
    A conv reads its input's windows of its box one tile at a time (see
    :func:`_conv_layer`), whose one-voxel halo holds real neighbours and
    zeros only at faces of the grid, and every conv GEMM is a multiple of 8
    columns wide (see :func:`_patches`), so the output, and every gradient
    :func:`backward` takes from the tape, is byte-equal to the same box of
    the whole-grid forward's.  A ``.merge`` conv's windows are filled from
    the skip and the coarse ``.reduce`` output (see :func:`_conv_window`),
    and its tape record keeps both.  A conv that a ``pool`` follows pools
    its own tiles (see :func:`_conv_layer`), so the pool adds only its tape
    record.  The head's sigmoid squashes its output a block budget at a
    time, so its e^-|x| temporary never spans the whole output.
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
    plan, boxes = _records(cfg), _demand(cfg, vol.data.shape, lo, lo + box.size[::-1])
    t = params.tensors
    records: list[tuple[str, str, np.ndarray, object]] = []
    # src holds the next record's sources, each an output with the origin of its box
    src = ((vol.data[None], np.zeros(3, dtype=int)),)
    skips: list[tuple[np.ndarray, np.ndarray]] = []
    for k, ((op, layer, _, _), (lo, hi)) in enumerate(zip(plan, boxes)):
        if op == "conv":
            y, *pooled = _conv_layer(src, lo, hi, t[f"{layer}.w"], t[f"{layer}.b"], plan[k + 1][0] == "pool")
            saved, src = (src, y), ((y, lo),)
        elif op == "pool":  # pooled by the conv before it, whose output is the skip
            skips.append(src[0])
            x, saved = pooled
            src = ((x, lo),)
        elif op == "cat":
            skip = skips.pop()
            saved, src = skip[0].shape[0], (skip, *src)
        else:  # head
            ((saved, _),) = src
            out = t[f"{layer}.w"] @ saved.reshape(saved.shape[0], -1)
            out += t[f"{layer}.b"][:, None]
            flat, n = out.reshape(-1), _BLOCK_BYTES // 8
            for i in range(0, flat.size, n):
                _sigmoid(flat[i : i + n])
            out = out.reshape(1, *saved.shape[1:])
        records.append((op, layer, lo, saved))
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
    a defect-crop loss, the whole grid for a full-volume one) goes to
    :func:`_demand`, and at record k the gradient lives on that walk's box k
    and the record's input gradient on box k - 1, inside the forward's
    boxes; saved arrays are indexed through their records' origins.  A conv
    walks whole-plane z-slabs for its weight gradient, against its input's
    slab windows, and for its input gradient, over one zero-framed copy of
    the gradient, exact since the gradient vanishes outside its box.
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
            src, y = saved
            g = g * (y[_at(lo - o, hi - o)] > 0.0)  # max(v, 0) > 0 where v > 0, NaN included: the ReLU's mask
            gp = _frame(g)
            grads[f"{layer}.w"] = _conv3_weight_grad(src, lo, hi, gp)
            grads[f"{layer}.b"] = g.sum(axis=(1, 2, 3))
            if k:  # nothing reads the gradient of the net's input
                # the input box is this box grown by one voxel a side, as far as the grid goes
                a, b = boxes[k - 1]
                g = _conv3_input_grad(gp, a - lo + 1, b - lo + 1, t[f"{layer}.w"])
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
        _check_counts(self, _OPT_SLOTS, batch_size=1, step=0)
        # written as "not (valid)" so that NaN, which fails every comparison, is rejected
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DomainError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not (self.lr > 0.0 and self.eps > 0.0):
            raise DomainError(f"lr and eps must be positive, got {self.lr}, {self.eps}")
        if not self.weight_decay >= 0.0:
            raise DomainError(f"weight decay must be non-negative, got {self.weight_decay}")
        for name in ("lr", "eps", "weight_decay"):  # +inf passes the checks above
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")


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


def _f8(a: np.ndarray) -> bytes:
    """a's values as little-endian float64 in C order, as a checkpoint stores every tensor and moment."""
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_checkpoint(path, params: NetParams, opt: OptState) -> None:
    """Versioned little-endian binary dump of parameters and optimiser state, laid out as
    :func:`load_checkpoint` reads it.

    It is written atomically by :func:`ribfill.grid._write_atomic`, so a
    failed or interrupted save leaves the previous checkpoint whole.
    """
    chunks: list[bytes] = [
        _CKPT_MAGIC,
        struct.pack("<I", _CKPT_VERSION),
        struct.pack(_layout(_NET_SLOTS), *(getattr(params.config, name) for name in _NET_SLOTS)),
        struct.pack("<I", len(params.tensors)),
    ]
    for name, tensor in params.tensors.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(_f8(tensor))
    chunks.append(struct.pack(_layout(_OPT_SLOTS), *(getattr(opt, name) for name in _OPT_SLOTS)))
    chunks.append(struct.pack("<B", bool(opt.m)))
    if opt.m:
        chunks += [_f8(store[name]) for store in (opt.m, opt.v) for name in params.tensors]
    _write_atomic(path, b"".join(chunks))


class _Reader:
    """A cursor over the bytes of the checkpoint at ``path``; every error it raises names the file."""

    def __init__(self, path) -> None:
        self.path = path
        self.raw = Path(path).read_bytes()
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def fields(self, slots: dict[str, str]) -> dict[str, object]:
        """One block of :data:`_NET_SLOTS` or :data:`_OPT_SLOTS`, keyed by field."""
        return dict(zip(slots, self.unpack(_layout(slots))))

    def f8(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next float64 array of ``shape``, as :func:`_f8` wrote it."""
        return np.frombuffer(self.take(math.prod(shape) * 8), dtype="<f8").reshape(shape).copy()


def load_checkpoint(path) -> tuple[NetParams, OptState]:
    """The parameters and optimiser state that :func:`save_checkpoint` wrote to ``path``.

    The file holds, in order, all little-endian:

    - the magic ``RFCK`` and the version, ``<I``, 1;
    - the net header, ``depth`` and ``base_channels``, ``<I`` each;
    - the tensor count, ``<I``;
    - each tensor, in the order :func:`init_params` makes them: its name's
      byte length, ``<H``, the name in UTF-8, its rank, ``<B``, its shape,
      ``<I`` per axis, and its values, ``<f8`` in C order;
    - the optimiser block, ``lr``, ``beta1``, ``beta2``, ``eps`` and
      ``weight_decay``, ``<d`` each, ``batch_size``, ``<I``, and ``step``,
      ``<Q``;
    - the moments flag, ``<B``, 0 or 1; if it is 1, Adam's ``m`` of every
      tensor, then its ``v``, ``<f8`` each in the tensors' order and shapes.

    :data:`_NET_SLOTS` and :data:`_OPT_SLOTS` declare the two blocks.
    Every failure to read the file raises ``OSError``, and every bad byte a
    :class:`CheckpointError` that names the file: a wrong magic or version;
    a net header :class:`NetConfig` rejects; a tensor count other than
    ``2 * (3 * depth + 2)``, checked before the plan is built; a tensor
    repeated or of a name or shape the header's net does not have; an
    optimiser block :class:`OptState` rejects; a moments flag other than 0
    or 1; a file that ends before its layout does; and bytes after it.
    """
    rd = _Reader(path)
    if rd.take(4) != _CKPT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = rd.unpack("<I")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        config = NetConfig(**rd.fields(_NET_SLOTS))
    except DomainError as exc:
        raise CheckpointError(f"{path}: bad net header: {exc}") from None
    (n_tensors,) = rd.unpack("<I")
    # 3d + 2 convs of two tensors each, checked first: a corrupt depth makes a huge plan
    if n_tensors != 2 * (3 * config.depth + 2):
        raise CheckpointError(f"{path}: {n_tensors} tensors cannot make a depth-{config.depth} net")
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
                f"a {config.depth}/{config.base_channels} net"
            )
        tensors[name] = rd.f8(shape)
    try:
        opt = OptState(**rd.fields(_OPT_SLOTS))
    except DomainError as exc:
        raise CheckpointError(f"{path}: bad optimiser block: {exc}") from None
    (have_moments,) = rd.unpack("<B")
    if have_moments not in (0, 1):
        raise CheckpointError(f"{path}: moments flag {have_moments} is neither 0 nor 1")
    if have_moments:
        opt.m, opt.v = ({name: rd.f8(t.shape) for name, t in tensors.items()} for _ in range(2))
    if rd.pos != len(rd.raw):
        raise CheckpointError(f"{path}: {len(rd.raw) - rd.pos} unexpected trailing bytes")
    return NetParams(config=config, tensors=tensors), opt
