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
import itertools
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
    """Add `g` into t.grad, allocating on first touch."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
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


def relu(a):
    mask = a.data > 0

    def bw(g):
        if a.requires_grad:
            accumulate(a, g * mask)

    return record(np.where(mask, a.data, a.dtype.type(0)), (a,), bw)


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
    """Sum of each 2x2 block of a (C, H, W) array.

    Added in the order numpy's reshape-and-sum over the two block axes uses,
    so the result matches it bit for bit, except when the output is one
    pixel wide: there numpy adds the four values left to right, and the two
    can differ in the last bits.
    """
    return (x[:, 0::2, 0::2] + x[:, 0::2, 1::2]) + (x[:, 1::2, 0::2] + x[:, 1::2, 1::2])


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


def concat_channels(xs):
    """Concatenate (C_i, H, W) maps along the channel axis."""
    xs = list(xs)
    if not xs:
        raise ContractError("concat_channels: empty input list")
    for x in xs:
        _check_chw(x, "concat_channels")
        if x.shape[1:] != xs[0].shape[1:]:
            raise ContractError(
                f"concat_channels: spatial mismatch {x.shape[1:]} vs {xs[0].shape[1:]}")
    offsets = np.cumsum([0] + [x.shape[0] for x in xs])

    def bw(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                accumulate(x, g[lo:hi])

    return record(np.concatenate([x.data for x in xs], axis=0), xs, bw)


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


def _spans(k, pad, n, first, last):
    """Per tap offset along one axis of length n, the outputs that read inside it.

    Output o of tap t reads input o + t - pad (stride 1). For outputs o in
    [first, last), returns (t, out, inp) for each tap t that reads inside
    [0, n) somewhere: `out` is the span of such outputs, counted from
    `first`, and `inp` the span of inputs they read. Outside `out` the tap
    reads the zero border, which is never built; a tap that reads only
    border is left out. A 2-d tap (ky, kx) pairs a row span with a column
    span.
    """
    spans = []
    for t in range(k):
        lo = max(first, pad - t)  # first o with o + t - pad >= 0
        hi = min(last, n + pad - t)
        if hi > lo:
            spans.append((t, slice(lo - first, hi - first),
                          slice(lo + t - pad, hi + t - pad)))
    return spans


def _im2col(x, k, pad, rows, wo):
    """Column matrix of a (C, H, W) input for the output rows `rows`, a range.

    The shape is (C*k*k, len(rows)*Wo). Row (c, ky, kx) holds what tap
    (ky, kx) reads from channel c at each output pixel of those rows, so
    their conv output is one GEMM of the (C_out, C*k*k) weight by it;
    `range(Ho)` gives the full matrix. Each tap's in-map window is copied
    into a zeroed buffer, so the padded input is never built. An unpadded
    1x1 conv uses the input's rows themselves, reshaped without a copy.
    """
    c, h, w = x.shape
    if k == 1 and pad == 0:  # every 1x1 conv in the model
        return x[:, rows.start:rows.stop].reshape(c, len(rows) * w)
    n = len(rows)
    col = np.zeros((c, k, k, n, wo), dtype=x.dtype)
    ys = _spans(k, pad, h, rows.start, rows.stop)
    xs = _spans(k, pad, w, 0, wo)
    for (ky, oy, iy), (kx, ox, ix) in itertools.product(ys, xs):
        col[:, ky, kx, oy, ox] = x[:, iy, ix]
    return col.reshape(c * k * k, n * wo)


def _col2im(dcol, x, k, pad, ho, wo):
    """Adjoint of `_im2col`: scatter-add column gradients onto x's shape.

    Each tap's window is added into an unpadded zero buffer in tap order:
    every pixel gets its contributions in the order a scatter into a padded
    buffer would add them, less those that land in the border, so the
    gradient is that of the padded scatter bit for bit. For the identity
    columns the column gradient is dx, reshaped.
    """
    c, h, w = x.shape
    if k == 1 and pad == 0:
        return dcol.reshape(c, h, w)
    dcol = dcol.reshape(c, k, k, ho, wo)
    dx = np.zeros((c, h, w), dtype=x.dtype)
    ys = _spans(k, pad, h, 0, ho)
    xs = _spans(k, pad, w, 0, wo)
    for (ky, oy, iy), (kx, ox, ix) in itertools.product(ys, xs):
        dx[:, iy, ix] += dcol[:, ky, kx, oy, ox]
    return dx


# Upper bound on one band's column matrix when conv2d builds its columns in
# bands of output rows. 4-12 MiB ran fastest on the model's large convs, 2 and
# 16 MiB slower.
COLUMN_BYTES = 8 << 20

# A trainable weight's full column matrix up to this size is kept from the
# forward pass for its gradient; a larger one is rebuilt in the backward pass.
# Rebuilding them all cost about 4.5% of a level-3 (24 px) training sample,
# where every one is under 1 MiB; at 96 px every 3x3 one is larger.
KEEP_COLUMN_BYTES = 1 << 20


def conv2d(x, p):
    """Stride-1, bias-free 2-d convolution (cross-correlation) of a (C, H, W) map.

    The output is (C_out, H + 2*pad - k + 1, W + 2*pad - k + 1); the model's
    3x3 convs with padding 1 and 1x1 convs without keep the map's size
    (`ConvParams` says why there is no stride or bias). It is the reshaped
    weight times the `_im2col` columns. The output rows are split evenly
    into the fewest bands whose columns fit in `COLUMN_BYTES`; each band's
    GEMM writes its rows of the output, so the columns take O(band) memory
    rather than O(H*W). Each output element is the same dot product as in
    one full GEMM, and its bits match while BLAS runs every band with the
    kernel it uses for the full product. OpenBLAS
    sums GEMMs under about 1e6 multiply-adds with other kernels; even bands
    are never under a quarter of the budget, which keeps the model's float32
    bands above that (TestBandedColumns in tests/test_autodiff.py checks the
    bits).

    The backward pass multiplies the output gradient by the weight for the
    column gradient, which `_col2im` scatters back onto the input (see those
    two for the paths taken). A weight that needs a gradient gets it from one
    GEMM of the output gradient by the full column matrix. Above
    `KEEP_COLUMN_BYTES` the backward pass rebuilds that matrix with `_im2col`
    rather than keeping it from the forward pass (recomputation for memory,
    as in gradient checkpointing): a trainable 48->16 conv at 96 px would
    otherwise hold 16 MB from its forward pass until the backward pass
    reaches it. A smaller one is kept, which is cheaper than building it
    twice.
    """
    _check_chw(x, "conv2d")
    weight, pad = p.weight, p.padding
    c_out, c_in, k, _ = weight.shape
    c, h, w = x.shape
    if c != c_in:
        raise ContractError(f"conv2d: input has {c} channels, weight expects {c_in}")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ContractError(f"conv2d: padded input {h}x{w} (pad {pad}) smaller than kernel {k}")
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1

    w2 = weight.data.reshape(c_out, c_in * k * k)
    rows_per_band = max(1, COLUMN_BYTES // (c_in * k * k * wo * x.dtype.itemsize))
    n = -(-ho // rows_per_band)
    out = np.empty((c_out, ho * wo), dtype=np.result_type(w2, x.data))
    # a kept matrix is the one band: KEEP_COLUMN_BYTES < COLUMN_BYTES
    keep = weight.requires_grad and c_in * k * k * ho * wo * x.dtype.itemsize <= KEEP_COLUMN_BYTES
    kept = None
    for i in range(n):
        rows = range(ho * i // n, ho * (i + 1) // n)
        col = _im2col(x.data, k, pad, rows, wo)
        np.matmul(w2, col, out=out[:, rows.start * wo:rows.stop * wo])
        if keep:
            kept = col
        del col  # before the next band is built

    def bw(g):
        g2 = g.reshape(c_out, ho * wo)
        if weight.requires_grad:
            col = kept if keep else _im2col(x.data, k, pad, range(ho), wo)
            accumulate(weight, (g2 @ col.T).reshape(weight.shape))
            del col  # before the column gradient is built
        if x.requires_grad:
            accumulate(x, _col2im(w2.T @ g2, x.data, k, pad, ho, wo))

    return record(out.reshape(c_out, ho, wo), (x, weight), bw)


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
