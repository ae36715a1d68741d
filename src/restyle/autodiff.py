"""Minimal reverse-mode differentiable tensor engine.

Layout conventions: feature maps are (C, H, W) row-major with the channel
axis first, matrices are (rows, cols), scalars have shape (). Storage is
float32 by default; every op except `cast` preserves the dtype of its
inputs, so a whole computation can be shadowed in float64 for numerical
verification.

The graph is built eagerly: each op returns a Tensor that remembers its
parents and a closure that scatters the output gradient back to them.
Closures are only recorded when some input actually requires a gradient,
so purely inference-side computation carries no bookkeeping cost.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

DEFAULT_DTYPE = np.float32


class Tensor:
    """Dense N-d float array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def record(data, parents, backward):
    """Assemble an op result node.

    `backward` receives the output gradient and must scatter it to the
    parents via `accumulate`. It is dropped when no parent needs it.
    """
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def accumulate(t, g):
    """Add `g` into t.grad.

    The first gradient is stored as a contiguous copy of `g` in t's dtype:
    one pass over memory, where zeros plus `+=` took two. It is a copy, so a
    later `+=` never writes into an array that an op passed on to another
    parent as well.
    """
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def backward(loss):
    """Backpropagate from a scalar loss.

    Fills `.grad` on the leaves only: the tensors reachable from `loss` that
    require a gradient and that no op produced (parameters and inputs). An
    op's result gets its gradient during the pass, and drops it as soon as
    its closure has passed it on, so the pass does not hold a gradient for
    every node of the graph at once. Repeated calls without clearing grads
    accumulate, one unit of gradient per call: pre-existing grads are set
    aside during the pass and this pass's gradient g is added to the earlier
    one as g + prior.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    saved = [node.grad for node in topo]
    for node in topo:
        node.grad = None
    accumulate(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
    for node, prior in zip(topo, saved):
        if prior is not None:
            node.grad = prior if node.grad is None else node.grad + prior


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ContractError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ContractError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    _check_same_shape(a, b, "add")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g)
        if b.requires_grad:
            accumulate(b, g)

    return record(a.data + b.data, (a, b), bw)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g)
        if b.requires_grad:
            accumulate(b, -g)

    return record(a.data - b.data, (a, b), bw)


def mul(a, b):
    _check_same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g * b.data)
        if b.requires_grad:
            accumulate(b, g * a.data)

    return record(a.data * b.data, (a, b), bw)


def scale(a, s):
    s = float(s)

    def bw(g):
        if a.requires_grad:
            accumulate(a, g * s)

    return record(a.data * a.dtype.type(s), (a,), bw)


def cast(a, dtype):
    """Convert to `dtype`; the gradient is cast back to the input's dtype."""

    def bw(g):
        if a.requires_grad:
            accumulate(a, g.astype(a.dtype))

    return record(a.data.astype(dtype), (a,), bw)


def clamp01(a):
    """Clamp to [0,1]; gradient passes through the closed interval."""
    mask = (a.data >= 0) & (a.data <= 1)

    def bw(g):
        if a.requires_grad:
            accumulate(a, g * mask)

    return record(np.clip(a.data, 0, 1), (a,), bw)


def sum_all(a):
    def bw(g):
        if a.requires_grad:
            accumulate(a, np.full_like(a.data, g))

    return record(a.data.sum(dtype=a.dtype), (a,), bw)


def mean_all(a):
    inv = 1.0 / a.data.size

    def bw(g):
        if a.requires_grad:
            accumulate(a, np.full_like(a.data, g * a.dtype.type(inv)))

    return record(a.data.mean(dtype=a.dtype), (a,), bw)


# ---------------------------------------------------------------------------
# spatial ops on (C, H, W) maps

def _check_chw(a, op):
    if a.data.ndim != 3:
        raise ContractError(f"{op}: expected a (C,H,W) tensor, got shape {a.shape}")


def _sum2x2(x):
    """Sum of each 2x2 block of a (C, H, W) array, as (x00 + x01) + (x10 + x11).

    The column pairs of every row are summed first, then the row pairs of
    those sums: two passes, where four strided quarter reads took longer.
    This is the order numpy's reshape-and-sum over the two block axes uses,
    so the result matches it bit for bit, except when the output is one
    pixel wide: there numpy adds the four values left to right, and the two
    can differ in the last bits.
    """
    s = x[:, :, 0::2] + x[:, :, 1::2]
    return s[:, 0::2] + s[:, 1::2]


def _repeat2x(x):
    """Nearest 2x repeat of a (C, H, W) array; equals np.repeat along H, then W."""
    c, h, w = x.shape
    out = np.empty((c, 2 * h, 2 * w), dtype=x.dtype)
    for dy in (0, 1):
        for dx in (0, 1):
            out[:, dy::2, dx::2] = x
    return out


def avgpool2x(a):
    """2x2 average pooling; halves H and W."""
    _check_chw(a, "avgpool2x")
    c, h, w = a.shape
    if h % 2 or w % 2:
        raise ContractError(f"avgpool2x: H and W must be even, got {h}x{w}")
    quarter = a.dtype.type(0.25)

    def bw(g):
        if a.requires_grad:
            accumulate(a, _repeat2x(g * quarter))

    return record(_sum2x2(a.data) * quarter, (a,), bw)


def upsample_nearest2x(a):
    """Nearest-neighbor upsampling; doubles H and W."""
    _check_chw(a, "upsample_nearest2x")

    def bw(g):
        if a.requires_grad:
            accumulate(a, _sum2x2(g))

    return record(_repeat2x(a.data), (a,), bw)


# ---------------------------------------------------------------------------
# matrix ops

def _check_2d(a, op):
    if a.data.ndim != 2:
        raise ContractError(f"{op}: expected a 2-d tensor, got shape {a.shape}")


def matmul(a, b):
    _check_2d(a, "matmul")
    _check_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ g)

    return record(a.data @ b.data, (a, b), bw)


def softmax_rows(a):
    """Row-wise softmax, stabilized by subtracting the row maximum.

    Works in place on one fresh array. Probabilities below the dtype's
    smallest normal number are set to exactly 0: a matrix product over
    subnormal operands can run a hundred times slower than over normal ones,
    and such an entry weighs less than 1e-38 in any sum.
    """
    _check_2d(a, "softmax_rows")
    y = a.data - a.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    y[y < np.finfo(y.dtype).tiny] = 0

    def bw(g):
        if a.requires_grad:
            dx = g * y
            np.subtract(g, dx.sum(axis=1, keepdims=True), out=dx)
            dx *= y
            accumulate(a, dx)

    return record(y, (a,), bw)


def take(a, key):
    """`a[key]` for a basic index `key` (integers and slices); the backward pass
    scatters the gradient into zeros of `a`'s shape."""
    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] = g
            accumulate(a, full)

    return record(a.data[key], (a,), bw)


def reshape(a, shape):
    """The same values in row-major order, viewed in another shape."""
    def bw(g):
        if a.requires_grad:
            accumulate(a, g.reshape(a.shape))

    return record(a.data.reshape(shape), (a,), bw)


def flatten_pixels(a):
    """(C, H, W) -> (H*W, C), pixels as rows in row-major order."""
    _check_chw(a, "flatten_pixels")
    c, h, w = a.shape

    def bw(g):
        if a.requires_grad:
            accumulate(a, np.ascontiguousarray(g.T).reshape(c, h, w))

    return record(np.ascontiguousarray(a.data.reshape(c, h * w).T), (a,), bw)


def unflatten_pixels(a, h, w):
    """(H*W, C) -> (C, H, W); inverse of flatten_pixels."""
    _check_2d(a, "unflatten_pixels")
    n, c = a.shape
    if n != h * w:
        raise ContractError(f"unflatten_pixels: {n} rows cannot fill {h}x{w}")

    def bw(g):
        if a.requires_grad:
            accumulate(a, np.ascontiguousarray(g.reshape(c, h * w).T))

    return record(np.ascontiguousarray(a.data.T).reshape(c, h, w), (a,), bw)


def gram(f):
    """Channel Gram matrix G = F F^T / (C*H*W) of a (C, H, W) map."""
    _check_chw(f, "gram")
    c, h, w = f.shape
    flat = f.data.reshape(c, h * w)
    inv = f.dtype.type(1.0 / (c * h * w))
    out = (flat @ flat.T) * inv

    def bw(g):
        if f.requires_grad:
            accumulate(f, (((g + g.T) * inv) @ flat).reshape(c, h, w))

    return record(out, (f,), bw)


# ---------------------------------------------------------------------------
# convolution

@dataclass
class ConvParams:
    """2-d convolution parameters: weight (C_out, C_in, k, k) and zero padding.

    Every conv is stride 1 and bias-free: the model changes scale only by
    `avgpool2x` and `upsample_nearest2x` between stages, and a bias-free
    error path is exactly zero on a zero error bundle (see `transition`).

    To change a weight, replace `weight.data`, as `Adam.step` does: once a
    conv has used a 3x3 weight array, the array is read-only (see `conv2d`).
    """

    weight: Tensor
    padding: int = 0

    def __post_init__(self):
        w = self.weight
        if w.data.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ContractError(f"ConvParams: weight must be (C_out, C_in, k, k), got {w.shape}")
        if w.shape[2] not in (1, 3):
            raise ContractError(f"ConvParams: kernel size {w.shape[2]} not supported")
        if self.padding < 0:
            raise ContractError("ConvParams: padding must be non-negative")


def _tap_rows(xs, k, pad, rows, out=None):
    """The k column-shifted copies of the inputs `xs` that output rows `rows` read.

    `xs` is a list of (C_i, H, W) arrays whose channels are read in order,
    as if stacked into one (C, H, W) input x. The shape is
    (k, C, len(rows) + k - 1, Wo) with Wo = W + 2*pad - k + 1, and entry
    [kx, c, j, q] is x_pad[c, rows.start + j, q + kx], where x_pad is x with
    `pad` zeros on every side: tap column kx of every padded input row that
    the rows' kernels touch. Only the in-map window of each shift is
    written, so neither the stacked nor the padded input is ever built.

    Several inputs fill only the centre tap, kx = min(pad, k - 1), one copy
    each, where it holds every input column (2*pad >= k - 1: every "same"
    conv and every wider one); each side tap is then one copy of the centre
    tap over all channels, shifted by whole columns. That is k + len(xs) - 1
    copies, not k * len(xs). One input, or a narrower conv, fills every tap
    from every input: for one input the count is the same, and each copy
    reads the input rather than the buffer.

    A given `out` may hold an earlier band's tap rows: every entry inside
    the map is overwritten, and only its border, the entries that fall in
    x_pad's zero padding, must already be zero. A negative `pad` crops the
    input instead. An unpadded 1x1 conv of one input reads the input's rows
    themselves, viewed without a copy.
    """
    h, w = xs[0].shape[1:]
    if k == 1 and pad == 0 and out is None and len(xs) == 1:
        return xs[0][None, :, rows.start:rows.stop]
    n, wo = len(rows) + k - 1, w + 2 * pad - k + 1
    if out is None:
        out = np.zeros((k, sum(map(len, xs)), n, wo), dtype=xs[0].dtype)
    y0 = rows.start - pad  # the input row under tap row 0
    j0, j1 = max(0, -y0), min(n, h - y0)
    if j1 <= j0:
        return out
    centre = min(pad, k - 1) if len(xs) > 1 and 2 * pad >= k - 1 else None
    lo = 0
    for x in xs:
        hi = lo + len(x)
        for kx in range(k) if centre is None else (centre,):
            q0, q1 = max(0, pad - kx), min(wo, w + pad - kx)
            out[kx, lo:hi, j0:j1, q0:q1] = x[:, y0 + j0:y0 + j1, q0 + kx - pad:q1 + kx - pad]
        lo = hi
    if centre is not None:
        for kx in range(k):
            if kx != centre:
                q0, q1 = max(0, pad - kx), min(wo, w + pad - kx)
                out[kx, :, j0:j1, q0:q1] = out[centre, :, j0:j1, q0 + kx - centre:q1 + kx - centre]
    return out


# Upper bound on one band's tap rows plus its k partial maps when _conv_rows
# splits the output into bands of rows, and on one block's (B, N) logits when
# transition.nonlocal_block splits the attention into blocks of rows. On the
# model's 3x3 convs at 384 px, 4-32 MiB ran within noise of each other and
# 2 MiB about 30% slower.
COLUMN_BYTES = 8 << 20

# Every band's GEMM gets a whole number of GEMM_BLOCK columns, zero-padded.
# OpenBLAS's dgemm sums the columns past a GEMM's last multiple of 8 in
# another order than the rest, so a band whose GEMM ended there would round
# those columns differently from the one-band product.
GEMM_BLOCK = 16


# The GEMM layouts of each 3x3 weight array that a conv has used, keyed by
# id(array): {False: forward layout, True: flipped dx layout, channels: the
# dx layout's rows of those input channels}, `channels` a tuple of (lo, hi)
# ranges, stored only for a conv over a list with some input frozen.
_LAYOUTS = {}


def _weight_rows(weight, flip, channels=None):
    """The (k*C_out, k*C_in) GEMM layout of a (C_out, C_in, k, k) weight, ky-major
    rows by kx-major columns; with `flip`, of the weight flipped in both spatial
    axes with its channel axes swapped, the weight of conv2d's dx. `channels`,
    a tuple of (lo, hi) ranges of the weight's input channels, keeps only the
    flipped layout's rows of those channels, in order."""
    if flip:
        weight = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        if channels is not None:
            weight = np.concatenate([weight[lo:hi] for lo, hi in channels])
    c_out, c_in, k, _ = weight.shape
    return weight.transpose(2, 0, 3, 1).reshape(k * c_out, k * c_in)


def _layout(weight, flip, channels=None):
    """`_weight_rows(weight, flip, channels)`, built once per 3x3 weight array
    and key (`flip`, or `channels` where given).

    The first layout makes the array read-only, so an in-place write raises
    ValueError rather than leaving a stale layout; an array that dies takes
    its entry with it, so a reused id finds none. Two threads may both build
    a missing layout: they build the same bits, and the later store wins.
    """
    entry = _LAYOUTS.get(id(weight))
    if entry is None:
        weight.flags.writeable = False
        entry = _LAYOUTS.setdefault(id(weight), {})
        weakref.finalize(weight, _LAYOUTS.pop, id(weight), None)
    key = flip if channels is None else channels
    rows = entry.get(key)
    if rows is None:
        rows = entry[key] = _weight_rows(weight, flip, channels)
    return rows


def _conv_rows(xs, weight, pad, relu=False, flip=False, channels=None):
    """Stride-1 cross-correlation of the (C_i, H, W) arrays `xs`, channels read in
    order, with a (C_out, C_in, k, k) weight, or with `flip` with the flipped
    weight of conv2d's dx, restricted by `channels` to the dx of those input
    channels (see `_weight_rows`).

    Each band of output rows is one GEMM of the weight's (k*C_out, k*C_in)
    layout by the band's `_tap_rows`, padded with columns to a multiple of
    GEMM_BLOCK. That gives k partial maps over the band's rows plus k - 1,
    and partial ky, shifted up by ky rows, adds into the output; with `relu`
    the band is then clamped at 0 in place. The rows are split evenly into
    the fewest bands whose tap rows and partial maps fit in `COLUMN_BYTES`.
    A 3x3 weight's layouts come from `_layout`, built once per weight array,
    which they make read-only; a 1x1 layout is a view of the weight.

    One zeroed tap buffer, sized for the longest band, serves every band.
    Its column borders and the rows above the map are never written, so
    they stay zero; the rows below the map, which only the last bands have
    and which earlier bands wrote, are zeroed again. The padding columns of
    a shorter band may hold an earlier band's values: a GEMM's output column
    reads only its own input column, so they reach only the discarded
    columns, and the GEMM keeps its whole-block shape.

    A negative `pad` crops: the gather the transposed conv in conv2d's dx
    needs when pad > k - 1. An unpadded 1x1 conv of one input copies
    nothing, so it is not banded: it is one GEMM of the reshaped weight by
    the input (by the inputs stacked, for several).
    """
    k = weight.shape[2]
    wk = _layout(weight, flip, channels) if k == 3 else _weight_rows(weight, flip, channels)
    c_out, c_in = wk.shape[0] // k, wk.shape[1] // k
    _, h, w = xs[0].shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    if k == 1 and pad == 0:  # every 1x1 conv in the model
        x = xs[0] if len(xs) == 1 else np.concatenate(xs)
        out = (wk @ x.reshape(c_in, h * w)).reshape(c_out, h, w)
        return np.maximum(out, 0, out=out) if relu else out
    out = np.empty((c_out, ho, wo), dtype=np.result_type(weight, xs[0]))
    row_bytes = k * (c_in + c_out) * wo * xs[0].dtype.itemsize
    rows_per_band = max(1, COLUMN_BYTES // row_bytes - (k - 1))
    n = -(-ho // rows_per_band)
    width = (-(-ho // n) + k - 1) * wo
    taps = np.zeros((k * c_in, -(-width // GEMM_BLOCK) * GEMM_BLOCK), dtype=xs[0].dtype)
    for i in range(n):
        rows = range(ho * i // n, ho * (i + 1) // n)
        m = len(rows)
        cols = (m + k - 1) * wo
        band_taps = taps[:, :cols].reshape(k, c_in, m + k - 1, wo)
        below = rows.stop + k - 1 - pad - h  # tap rows under the map's last row
        if i and below > 0:
            band_taps[:, :, -below:] = 0
        _tap_rows(xs, k, pad, rows, out=band_taps)
        part = (wk @ taps[:, :-(-cols // GEMM_BLOCK) * GEMM_BLOCK])[:, :cols]
        part = part.reshape(k, c_out, m + k - 1, wo)
        band = out[:, rows.start:rows.stop]
        if k == 1:
            band[...] = part[0]
        else:
            np.add(part[0, :, :m], part[1, :, 1:m + 1], out=band)
            for ky in range(2, k):
                band += part[ky, :, ky:ky + m]
        del part
        if relu:
            np.maximum(band, 0, out=band)
    return out


def conv2d(x, p, relu=False):
    """Stride-1, bias-free 2-d convolution (cross-correlation) of a (C, H, W) map,
    followed by a ReLU when `relu` is set.

    `x` is one Tensor or a list of (C_i, H, W) Tensors of one dtype and one
    H x W, whose channels the conv reads in order, as it would read their
    concatenation along the channel axis, without building that copy. One
    Tensor is a list of one: there is a single conv path. Each input gets the
    same checks, and their channels must sum to the weight's C_in.

    The output is (C_out, H + 2*pad - k + 1, W + 2*pad - k + 1); the model's
    3x3 convs with padding 1 and 1x1 convs without keep the map's size
    (`ConvParams` says why there is no stride or bias). `_conv_rows` computes
    it from `_tap_rows`, k column-shifted copies of the input rows, rather
    than from k*k-tap im2col columns (the low-memory GEMM convolution of
    Anderson, Vasiliadis and Gregg 2017): one GEMM of the (k*C_out, k*C_in)
    rearranged weight by the tap rows gives k partial maps, and partial ky
    adds into the output shifted by ky rows. Several inputs fill the centre
    tap, and the side taps are copied from it. The rows are split evenly into
    the fewest bands whose tap rows and partial maps fit in `COLUMN_BYTES`,
    so a conv takes O(band) memory besides its output, and one tap buffer
    serves all of a call's bands. Each output element is the same sum of k
    partial dot products whatever the banding, and it keeps its bits
    because each band's GEMM is padded to whole blocks of `GEMM_BLOCK`
    columns, so BLAS sums every column with the same kernel (but OpenBLAS
    sums GEMMs under about 1e6 multiply-adds with other kernels;
    TestBandedColumns in tests/test_autodiff.py checks float32 and float64).
    An unpadded 1x1 conv is one GEMM of the reshaped weight by the input.

    With `relu`, each band is clamped at 0 as soon as it is summed, so the
    ReLU makes no pass of its own over the whole map and records no node of
    its own (an elementwise epilogue fused into the op that produces its
    input, as TVM does; Chen et al. 2018). The result is
    bitwise `np.maximum(conv, 0)`. The backward pass masks the output
    gradient by y > 0, the same mask as the pre-activation's, and goes on
    as for a plain conv.

    The backward pass gives dx as the same routine on the output gradient,
    with the weight flipped in both spatial axes and its channel axes
    swapped, at padding k - 1 - pad: a gather, with no scatter-add; where
    pad > k - 1 that padding is negative and crops. It is one GEMM over only
    the flipped layout's rows of the inputs that require a gradient, and
    each of them gets its slice: no dx is computed for a frozen input (as
    autograd's `needs_input_grad` skips it; Paszke et al. 2019). A weight
    that needs a gradient gets it from k GEMMs of the output gradient by
    strided views of the full tap rows, one per ky, shifted down by ky rows.
    The backward pass rebuilds those tap rows rather than keeping them from
    the forward pass (recomputation for memory, as in gradient
    checkpointing): they are k times the size of the input, and gone before
    dx is built. dW takes one strided copy into the (C_out, C_in, k, k)
    layout: no GEMM writes kx innermost.

    A 3x3 weight's forward and dx layouts are built once per weight array
    (dx's only when a backward pass needs it, and the row subset of dx's
    only when some input of a list is frozen) and kept while it lives
    (`_layout`): a frozen weight builds them once, a trainable one once per
    optimizer step. The first makes the array read-only, so change a weight
    by assigning a new array to `weight.data`. 1x1 layouts are views.

    The recorded node's parents are the first input, the weight, then the
    other inputs, so code that reads a conv node's parents (such as
    perfbench/hooks.py's GEMM counts) finds the weight second, as for one
    input.
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    data = [t.data for t in xs]
    if not data:
        raise ContractError("conv2d: empty input list")
    for a in data:
        if a.ndim != 3:
            raise ContractError(f"conv2d: expected (C,H,W) tensors, got shape {a.shape}")
    for a in data[1:]:
        if a.shape[1:] != data[0].shape[1:] or a.dtype != data[0].dtype:
            raise ContractError(f"conv2d: inputs of shape and dtype {a.shape} {a.dtype} "
                                f"and {data[0].shape} {data[0].dtype}")
    weight, pad = p.weight, p.padding
    c_out, c_in, k, _ = weight.shape
    c = sum(map(len, data))
    _, h, w = data[0].shape
    if c != c_in:
        raise ContractError(f"conv2d: input has {c} channels, weight expects {c_in}")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ContractError(f"conv2d: padded input {h}x{w} (pad {pad}) smaller than kernel {k}")
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    y = _conv_rows(data, weight.data, pad, relu)

    def bw(g):
        if relu:
            g = g * (y > 0)
        if weight.requires_grad:
            taps = _tap_rows(data, k, pad, range(ho))
            g2 = g.reshape(c_out, ho * wo)
            dw = np.empty((k, c_out, k, c_in), dtype=g.dtype)
            for ky in range(k):
                rows = taps[:, :, ky:ky + ho].reshape(k * c_in, ho * wo)
                np.matmul(g2, rows.T, out=dw[ky].reshape(c_out, k * c_in))
            del taps  # before dx is built
            accumulate(weight, dw.transpose(1, 3, 0, 2))
        grads = [t for t in xs if t.requires_grad]
        if not grads:
            return
        channels = None
        if len(grads) < len(xs):  # the channel ranges of the inputs that train
            ends = np.cumsum(list(map(len, data))).tolist()
            channels = tuple((end - len(a), end)
                             for t, a, end in zip(xs, data, ends) if t.requires_grad)
        dx = _conv_rows([g], weight.data, k - 1 - pad, flip=True, channels=channels)
        at = 0
        for t in grads:
            accumulate(t, dx[at:at + len(t.data)])
            at += len(t.data)

    return record(y, (xs[0], weight, *xs[1:]), bw)


# ---------------------------------------------------------------------------
# parameter initialization

def orthogonal_matrix(rng, rows, cols):
    """Orthogonal(-ish) float32 rows: QR of a Gaussian draw, sign-fixed for determinism."""
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(DEFAULT_DTYPE)


def conv_weight(rng, c_out, c_in, k, gain):
    """Variance-preserving conv weight: orthogonal rows scaled by gain/sqrt(fan_in)."""
    fan_in = c_in * k * k
    w = orthogonal_matrix(rng, c_out, fan_in)
    # QR columns are unit-norm; rescale so each filter has norm gain
    return Tensor((w * gain).reshape(c_out, c_in, k, k))


def placeholder_weight(c_out, c_in, k, gain):
    """Zero conv weight of a layout's shape, for `load_state` to replace; no
    draw, so `gain` is unused."""
    return Tensor(np.zeros((c_out, c_in, k, k), dtype=DEFAULT_DTYPE))


# ---------------------------------------------------------------------------
# named parameter tables: any object whose `named_tensors()` maps a stable
# name to each of its Tensors

def cast_params(params, dtype):
    """Copy of a parameter container with every named tensor cast to `dtype`.

    The copy has its own storage, keeps each tensor's `requires_grad` and has
    no gradients; float64 copies shadow a model for finite-difference checks.
    """
    out = copy.deepcopy(params)
    for t in out.named_tensors().values():
        t.data = t.data.astype(dtype)
        t.grad = None
    return out


def shared_params(params):
    """Copy of a parameter container whose tensors share the original's storage
    but hold their own gradients.

    A second graph built over the copy at the same time as one over the
    original reads the same weights and accumulates its gradients apart.
    """
    tensors = params.named_tensors().values()
    out = copy.deepcopy(params, {id(t.data): t.data for t in tensors})
    for t in out.named_tensors().values():
        t.grad = None
    return out


def load_state(params, state):
    """Copy named arrays into an existing parameter set, validating shapes."""
    named = params.named_tensors()
    missing = set(named) - set(state)
    extra = set(state) - set(named)
    if missing or extra:
        raise ContractError(f"load_state: missing={sorted(missing)} extra={sorted(extra)}")
    for name, t in named.items():
        arr = state[name]
        if tuple(arr.shape) != tuple(t.shape):
            raise ContractError(f"load_state: {name} has shape {arr.shape}, want {t.shape}")
        t.data = np.ascontiguousarray(arr.astype(np.float32))
    return params
