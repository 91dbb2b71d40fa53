"""Rank-4 tensors with reverse-mode differentiation.

Values are immutable (batch, channels, height, width) arrays, float32 by
default.  Every operation here but the bilinear resampler is a primitive
with a paired backward rule; while a :class:`GradTape` is active the
primitives record themselves, and replaying the tape in reverse yields
exact loss gradients for arbitrary compositions.  Each record names one
output and its inputs by their tensors' keys, and its backward rule maps
that output's cotangent to one cotangent per input.  A record holds no
tensor itself: the backward rule keeps only the operands it reads, so a
map that no backward reads is freed as soon as the forward drops it.
float64 is supported throughout so numerical checks can run at higher
precision than the training path.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


# Source of Tensor.key: every tensor built in the process gets a new one.
_KEYS = count()


class Tensor:
    """Immutable rank-4 value: (batch, channels, height, width).

    The wrapped array is treated as read-only after construction; all
    operations return fresh tensors.  ``key`` names the tensor on a tape.
    Unlike ``id()``, it is never reused after the tensor is freed, so a
    tape that outlives the tensors it recorded still routes each cotangent
    to the one tensor it belongs to.
    """

    __slots__ = ("data", "key")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (n, c, h, w); got rank {arr.ndim}")
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def tensor(data, dtype=DEFAULT_DTYPE) -> Tensor:
    """Build a tensor from array-like data, casting to the given dtype."""
    return Tensor(np.asarray(data, dtype=dtype))


def zeros(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def full(shape, value, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

# A backward rule receives its output's cotangent and returns one cotangent
# ndarray per recorded input.  It may hand one array to several inputs.
_BackwardFn = Callable[[np.ndarray], tuple]


class _Recorded:
    """One primitive application: the keys of its inputs and its output, and
    its backward rule, which holds the only arrays the record keeps."""

    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name: str, inputs: tuple[int, ...], output: int, backward: _BackwardFn):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward = backward


class GradTape:
    """Records primitive applications in execution order.

    One tape per training step; tapes cannot be nested.  Use as a context
    manager: operations executed inside the block are recorded, and
    :meth:`gradients` replays their backward rules in reverse.
    """

    _active: "GradTape | None" = None

    def __init__(self):
        self._records: list[_Recorded] = []

    def __enter__(self) -> "GradTape":
        if GradTape._active is not None:
            raise RuntimeError("a GradTape is already active; tapes are single-writer")
        GradTape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        GradTape._active = None
        return False

    def __len__(self) -> int:
        return len(self._records)

    def gradients(self, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """Cotangent of ``loss`` for each tensor in ``params``.

        ``loss`` must be a scalar produced through recorded primitives.
        Parameters the loss does not depend on get zero cotangents.  Any
        tensor may be requested, including one computed on the tape; the
        cotangents of other intermediates are dropped as soon as the
        backward has used them.
        """
        if loss.numel != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

        requested = {p.key for p in params}
        # a record whose output the loss does not read gets no cotangent and
        # is skipped whole
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        for rec in reversed(self._records):
            out = rec.output
            # every reader of the output comes later on the tape, so its
            # cotangent is spent once this record's backward has run
            g = grads.get(out) if out in requested else grads.pop(out, None)
            if g is None:
                continue
            for key, dt in zip(rec.inputs, rec.backward(g)):
                # never in place: the summand may be shared with another input
                acc = grads.get(key)
                grads[key] = dt if acc is None else acc + dt
        return [grads.get(p.key, np.zeros_like(p.data)) for p in params]


def _record(name: str, inputs: tuple, output: Tensor, backward_fn: _BackwardFn) -> None:
    """Append a record of ``inputs`` -> ``output`` to the active tape, if any.

    The record keeps the tensors' keys, not the tensors, so ``backward_fn``
    must capture whatever arrays it reads and nothing more: a shape or a
    dtype, not the tensor it came from.
    """
    tape = GradTape._active
    if tape is not None:
        tape._records.append(_Recorded(name, tuple(t.key for t in inputs), output.key, backward_fn))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b with numpy broadcasting."""
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    _record("add", (a, b), out, bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), -_unbroadcast(g, b_shape)

    _record("sub", (a, b), out, bwd)
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b with numpy broadcasting; b may be a Python scalar."""
    if isinstance(b, Tensor):
        out = Tensor(a.data * b.data)

        def bwd(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        _record("mul", (a, b), out, bwd)
        return out

    k = a.data.dtype.type(b)
    out = Tensor(a.data * k)
    _record("mul", (a,), out, lambda g: (g * k,))
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    _record("exp", (a,), out, lambda g: (g * out.data,))
    return out


def sum_all(a: Tensor) -> Tensor:
    """Total of all elements as a (1, 1, 1, 1) tensor."""
    out = Tensor(a.data.sum(dtype=a.data.dtype).reshape(1, 1, 1, 1))
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        return (np.full(shape, g.reshape(()), dtype=dtype),)

    _record("sum_all", (a,), out, bwd)
    return out


def mean_all(a: Tensor) -> Tensor:
    """Mean of all elements as a (1, 1, 1, 1) tensor."""
    inv = a.data.dtype.type(1.0 / a.numel)
    out = Tensor((a.data.sum(dtype=a.data.dtype) * inv).reshape(1, 1, 1, 1))
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        return (np.full(shape, g.reshape(()) * inv, dtype=dtype),)

    _record("mean_all", (a,), out, bwd)
    return out


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """log(sum(exp(a))) along one axis, keepdims, max-shifted for stability."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.subtract(a.data, m)
    np.exp(shifted, out=shifted)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = np.log(total)
    out_data += m
    out = Tensor(out_data)

    def bwd(g):
        # d/dx is the softmax along the reduced axis
        return ((g / total) * shifted,)

    _record("logsumexp", (a,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

# Byte budget of one block of stacked depthwise taps; see _tap_blocks.
TAP_STACK_BYTES = 1 << 20


def _in_range(size: int, offset: int) -> tuple[int, int]:
    """The output positions lo:hi whose input position, shifted by
    ``offset``, lies inside 0:size; the rest read the zero padding."""
    lo = min(size, max(0, -offset))
    return lo, max(lo, min(size, size - offset))


def _tap_blocks(src: np.ndarray, kernel, dilation, whole: bool):
    """Yield (lo, hi, taps) for each block of channels lo:hi of ``src``,
    taps of shape (n, hi - lo, T, h * w): row t holds the map shifted by
    the offset of tap t of a kernel of spatial shape ``kernel``.

    One tap block of shape (n, channels, T, h, w) serves every block of a
    call, so a caller uses each block's taps before asking for the next.
    The part of each tap that reads the zero padding is zeroed once, and
    each block copies only the part that lies inside ``src``, which may be
    strided.  ``whole`` takes every channel in one block; otherwise each
    block's stacked taps, n * T * h * w * itemsize bytes, fit in
    TAP_STACK_BYTES, or the block is one channel.
    """
    n, c, h, wd = src.shape
    kh, kw = kernel
    step = c if whole else max(1, TAP_STACK_BYTES // (n * kh * kw * h * wd * src.itemsize))
    dh, dw = dilation
    ph, pw = (kh - 1) * dh // 2, (kw - 1) * dw // 2
    block = np.empty((n, min(step, c), kh * kw, h, wd), dtype=src.dtype)
    copies = []
    for t in range(kh * kw):
        sy, sx = t // kw * dh - ph, t % kw * dw - pw
        (r0, r1), (c0, c1) = _in_range(h, sy), _in_range(wd, sx)
        # the padding a tap reads is the same in every block: zero it once
        if r0:
            block[:, :, t, :r0] = 0
        if r1 < h:
            block[:, :, t, r1:] = 0
        if c0:
            block[:, :, t, r0:r1, :c0] = 0
        if c1 < wd:
            block[:, :, t, r0:r1, c1:] = 0
        if r0 < r1 and c0 < c1:
            copies.append((block[:, :, t, r0:r1, c0:c1],
                           slice(r0 + sy, r1 + sy), slice(c0 + sx, c1 + sx)))
    stack = block.reshape(n, -1, kh * kw, h * wd)
    for lo in range(0, c, step):
        hi = min(lo + step, c)
        for dst, rows, cols in copies:
            dst[:, :hi - lo] = src[:, lo:hi, rows, cols]
        yield lo, hi, stack[:, :hi - lo]


def _conv_forward(x: np.ndarray, w: np.ndarray, dilation) -> np.ndarray:
    """Cross-correlate ``x`` with ``w`` into a C-contiguous array.

    The network's 1x1 kernels go through conv1x1, so this serves the
    kernels with taps.  It takes the taps of ``x`` from _tap_blocks.  A
    full kernel reads one block of all its input channels, whose rows are
    ordered like a flattened kernel, and takes one product.  A depthwise
    kernel takes one batched (1, T) x (T, h * w) product per image and
    channel of each block.
    Untaped default-config forwards by TAP_STACK_BYTES and input size, each
    the fastest of 3 calls in a fresh process, medians of 8 interleaved
    rounds on one BLAS thread of a 2-core machine with 2 MiB of L2 per
    core.  Single rounds spread widely (1 MiB: 0.63-0.86 s at 32x96,
    0.33-0.52 s at 16x96):

        budget      32x96    16x96
        256 KiB     0.76 s   0.38 s
        512 KiB     0.77 s   0.40 s
        1 MiB       0.73 s   0.37 s
        2 MiB       0.87 s   0.39 s
        4 MiB       0.93 s   0.41 s
        unblocked   0.97 s   0.46 s
    """
    n, cin, h, wd = x.shape
    full = w.shape[1] == cin
    # a full kernel as one group of (cout, cin * T) rows, a depthwise one as
    # one (1, T) row per channel
    kernels = w.reshape((1, len(w), -1) if full else (len(w), 1, -1))
    # the output before the tap block: in the other order the freed block
    # leaves a heap hole under each output the tape keeps, and a training
    # step peaked higher
    out = np.empty((n, *kernels.shape[:2], h * wd), dtype=np.result_type(x, w))
    for lo, hi, taps in _tap_blocks(x, w.shape[2:], dilation, full):
        # a full kernel's one group spans the block, so its lo:hi slices are whole
        np.matmul(kernels[lo:hi], taps.reshape(n, -1, kernels.shape[2], h * wd), out=out[:, lo:hi])
    return out.reshape(n, -1, h, wd)


# Most pixels one product of a weight gradient reads.  OpenBLAS splits a
# long float64 product across threads, which changes its rounding with the
# thread count (a 1-tap kernel's over a whole 128x128 map does); fixed
# pieces keep each on one thread, so the sum is the same at any count.
DOT_PIECE = 8192


def _conv_backward(x: np.ndarray, g: np.ndarray, w: np.ndarray, dilation):
    """The input and kernel cotangents (dx, dW) of _conv_forward(x, w,
    dilation) for the output cotangent ``g``, both from the tap blocks of g.

    Row t of a block holds g shifted by minus the offset of kernel tap
    T - 1 - t, which is the tap the spatially flipped kernel reads at t.
    So dx is the flipped kernel's cross-correlation of g, in and out
    channels swapped for a full kernel, and tap T - 1 - t of dW is row t
    against x, taken from each block before the next overwrites it.  A
    full kernel's block of (cout * T, h * w) rows times x^T gives
    dW[co, ci, T - 1 - t]; a depthwise kernel takes one batched
    (T, h * w) x (h * w, 1) product per image and channel.  Both run in
    pieces of at most DOT_PIECE pixels, summed in order.
    """
    n, cin, h, wd = x.shape
    full = w.shape[1] == cin
    flipped = np.ascontiguousarray((w.swapaxes(0, 1) if full else w)[..., ::-1, ::-1])
    kernels = flipped.reshape((1, cin, -1) if full else (cin, 1, -1))
    xs = x.reshape(n, cin, h * wd)
    dx = np.empty((n, *kernels.shape[:2], h * wd), dtype=np.result_type(g, w))
    dw = []
    for lo, hi, taps in _tap_blocks(g, w.shape[2:], dilation, full):
        rows = taps.reshape(n, -1, kernels.shape[2], h * wd)
        np.matmul(kernels[lo:hi], rows, out=dx[:, lo:hi])
        # x^T: every channel for a full kernel, the block's for a depthwise one
        xt = xs[:, None].swapaxes(2, 3) if full else xs[:, lo:hi, :, None]
        pieces = [np.matmul(rows[..., p:p + DOT_PIECE], xt[:, :, p:p + DOT_PIECE])
                  for p in range(0, h * wd, DOT_PIECE)]
        dw.append(sum(pieces[1:], pieces[0]).sum(axis=0))
    # (cout, T, in_ch) with the taps in the flipped kernel's order
    dw = np.concatenate(dw).reshape(len(w), -1, w.shape[1])
    return dx.reshape(x.shape), dw.swapaxes(1, 2)[..., ::-1].reshape(w.shape)


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, dilation=(1, 1)) -> Tensor:
    """Stride-1 2-D cross-correlation with zero "same" padding, plus a
    per-output-channel bias of shape (1, out_ch, 1, 1).

    The kernel's shape (out_ch, in_ch, kh, kw) decides the convolution: a
    full one when in_ch is the input's channel count, a depthwise one when
    in_ch is 1 and out_ch is the input's channel count.  A (1, 1, kh, kw)
    kernel on a 1-channel input fits both readings, which compute the same
    map; it takes the full path.  Effective extents (k - 1) * dilation + 1
    must be odd, so the symmetric padding (k - 1) * dilation / 2 reproduces
    the input's spatial size exactly.  A 1x1 kernel is accepted, but the
    network applies every 1x1 kernel with conv1x1.
    """
    out_ch, in_ch, kh, kw = weights.shape
    depthwise = in_ch != x.c
    if depthwise and not (in_ch == 1 and out_ch == x.c):
        raise ShapeError(
            f"kernel shaped {weights.shape} fits neither a full convolution of the input's "
            f"{x.c} channels (in_ch {x.c}) nor a depthwise one (in_ch 1, out_ch {x.c})"
        )
    dh, dw = dilation
    if dh < 1 or dw < 1:
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    if ((kh - 1) * dh) % 2 or ((kw - 1) * dw) % 2:
        raise ShapeError(
            f"effective kernel extent must be odd for exact same padding; "
            f"got kernel ({kh}, {kw}) with dilation {dilation}"
        )
    if bias.shape != (1, out_ch, 1, 1):
        raise ShapeError(f"bias shaped {bias.shape}, expected (1, {out_ch}, 1, 1)")

    o = _conv_forward(x.data, weights.data, dilation)
    # the bias goes into the product's own output when that is already of
    # the sum's dtype, so a float64 bias still promotes
    own = o.dtype == np.result_type(o, bias.data)
    out = Tensor(np.add(o, bias.data, out=o if own else None))

    def bwd(g):
        dx, dw = _conv_backward(x.data, g, weights.data, dilation)
        db = g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return dx, dw, db

    _record("conv2d", (x, weights, bias), out, bwd)
    return out


def conv1x1(x: Tensor, weights: Tensor, bias: Tensor, gain: Tensor | None = None,
            shift: Tensor | None = None, scale: Tensor | None = None) -> Tensor:
    """r * (W (g * x + s) + b) for an (out_ch, in_ch, 1, 1) kernel W and a
    (1, out_ch, 1, 1) bias b, with an optional per-input-channel gain g and
    shift s and per-output-channel scale r; an absent factor is the identity.

    No factor acts on a map.  The forward folds them into the kernel and the
    bias, W' = diag(r) W diag(g) and b' = r * (W s + b), and takes the one
    product W' x + b'.  The backward takes dx, dW' and db' from that product
    and the rest by the chain rule on the weights alone, rebuilding the
    folded weights, so the record holds no array but x and the operands.
    W s is an elementwise product summed over in_ch, not a BLAS call.
    """
    n, cin, h, wd = x.shape
    cout = weights.shape[0]
    # the record's inputs, in the order of the backward's cotangents
    inputs = tuple(t for t in (x, weights, bias, scale, gain, shift) if t is not None)
    for t, shape in ((weights, (cout, cin, 1, 1)), (bias, (1, cout, 1, 1)), (gain, (1, cin, 1, 1)),
                     (shift, (1, cin, 1, 1)), (scale, (1, cout, 1, 1))):
        if t is not None and t.shape != shape:
            raise ShapeError(f"1x1 convolution of {cin} into {cout} channels: operand shaped "
                             f"{t.shape}, expected {shape}")
    w, b = weights.data.reshape(cout, cin), bias.data.reshape(cout)
    g, s, r = (None if t is None else t.data.reshape(-1) for t in (gain, shift, scale))

    def fold():
        # W diag(g) and W s + b, then both scaled by r
        gained = w if g is None else w * g
        unscaled = b if s is None else (w * s).sum(axis=1) + b
        if r is None:
            return gained, unscaled, gained, unscaled
        return gained, unscaled, gained * r[:, None], unscaled * r

    _, _, folded, shifted = fold()
    xs = x.data.reshape(n, cin, h * wd)
    o = np.matmul(folded, xs)
    own = o.dtype == np.result_type(o, shifted)
    out = Tensor(np.add(o, shifted[:, None], out=o if own else None).reshape(n, cout, h, wd))
    shapes = [t.shape for t in inputs]

    def bwd(grad):
        gs = grad.reshape(n, cout, h * wd)
        gained, unscaled, folded, _ = fold()
        dw = np.tensordot(gs, xs, axes=([0, 2], [0, 2]))
        db = gs.sum(axis=(0, 2))
        grads = [np.matmul(folded.T, gs), dw, db]
        # from the cotangents of W' and b' back through each fold, last first
        if r is not None:
            grads.append((dw * gained).sum(axis=1) + db * unscaled)
            dw *= r[:, None]
            db *= r
        if g is not None:
            grads.append((dw * w).sum(axis=0))
            dw *= g
        if s is not None:
            grads.append((w * db[:, None]).sum(axis=0))
            dw += db[:, None] * s
        return tuple(d.reshape(shape) for d, shape in zip(grads, shapes))

    _record("conv1x1", inputs, out, bwd)
    return out


# ---------------------------------------------------------------------------
# Normalization, gating, pooling, rearrangement
# ---------------------------------------------------------------------------

def normalize(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization without its gain and shift, which fold into the
    1x1 kernel after it (see conv1x1): each (n, h, w) site's channel vector
    to zero mean and unit variance, (x - mean) / sqrt(var + eps)."""
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=1, keepdims=True) + x.dtype.type(eps))
    xhat *= inv
    out = Tensor(xhat)

    def bwd(g):
        dx = g - g.mean(axis=1, keepdims=True)
        dx -= xhat * (g * xhat).mean(axis=1, keepdims=True)
        dx *= inv
        return (dx,)

    _record("normalize", (x,), out, bwd)
    return out


def simple_gate(x: Tensor) -> Tensor:
    """Split channels in half and multiply the halves elementwise."""
    if x.c % 2:
        raise ShapeError(f"simple_gate needs an even channel count, got {x.c}")
    half = x.c // 2
    a, b = x.data[:, :half], x.data[:, half:]
    out = Tensor(a * b)

    def bwd(g):
        return (np.concatenate([g * b, g * a], axis=1),)

    _record("simple_gate", (x,), out, bwd)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel; output shape (n, c, 1, 1)."""
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    inv = x.data.dtype.type(1.0 / (x.h * x.w))
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g * inv, shape).copy(),)

    _record("global_avg_pool", (x,), out, bwd)
    return out


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange r*r channel groups into an r-times-larger spatial grid.

    out[n, c, h*r + i, w*r + j] = in[n, c*r*r + i*r + j, h, w]
    """
    if r < 1:
        raise ShapeError(f"upscale factor must be >= 1, got {r}")
    if x.c % (r * r):
        raise ShapeError(f"channel count {x.c} not divisible by r^2 = {r * r}")
    n, c, h, w = x.shape
    cout = c // (r * r)
    out_data = (
        x.data.reshape(n, cout, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, cout, h * r, w * r)
    )
    out = Tensor(np.ascontiguousarray(out_data))

    def bwd(g):
        g = g.reshape(n, cout, h, r, w, r).transpose(0, 1, 3, 5, 2, 4)
        return (np.ascontiguousarray(g.reshape(n, c, h, w)),)

    _record("pixel_shuffle", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def spectral_l1(d: Tensor) -> Tensor:
    """Mean absolute value of the real and the imaginary parts of the
    unnormalized 2-D DFT over (h, w) of each channel of ``d``, as a
    (1, 1, 1, 1) tensor; the two parts count as separate elements, so the
    divisor is 2 * d.numel.

    A real signal's spectrum is Hermitian, X[-u, -v] = conj(X[u, v]), and
    conjugation keeps |Re| and |Im|, so one rfft2 half suffices: columns 0
    and, for even w, w / 2 are their own mirror and count once, every other
    column counts twice.  The backward is the inverse transform of the
    signs, sign(0) = 0.
    """
    h, w = d.h, d.w
    half = np.fft.rfft2(d.data)
    weight = np.full(half.shape[-1], 2, dtype=d.dtype)
    weight[0] = 1
    if w % 2 == 0:
        weight[-1] = 1
    mags = np.abs(half.real)
    mags += np.abs(half.imag)
    mags *= weight
    inv = d.dtype.type(1.0 / (2 * d.numel))
    out = Tensor((mags.sum(dtype=d.dtype) * inv).reshape(1, 1, 1, 1))
    # irfft2 divides by h * w, which the unnormalized transform's adjoint lacks
    dtype, scale = d.dtype, h * w / (2 * d.numel)

    def bwd(g):
        grad = np.fft.irfft2(np.sign(half.real) + 1j * np.sign(half.imag), s=(h, w))
        grad *= g.reshape(()) * scale
        return (grad.astype(dtype, copy=False),)

    _record("spectral_l1", (d,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Bilinear interpolation
# ---------------------------------------------------------------------------

def _bilinear_axis(size_in: int, r: int, dtype):
    pos = (np.arange(size_in * r, dtype=np.float64) + 0.5) / r - 0.5
    pos = np.clip(pos, 0.0, size_in - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, size_in - 1)
    t = (pos - i0).astype(dtype)
    return i0, i1, t


def bilinear_upsample(x: Tensor, r: int) -> Tensor:
    """Bilinear interpolation to (h*r, w*r), half-pixel (align-corners-false)
    sample positions with edge clamping.  Not a primitive: the tape does not
    record it, since the network only resamples its input image."""
    if r < 1:
        raise ShapeError(f"upscale factor must be >= 1, got {r}")
    n, c, h, w = x.shape
    dt = x.data.dtype
    i0, i1, th = _bilinear_axis(h, r, dt)
    j0, j1, tw = _bilinear_axis(w, r, dt)
    th_col = th[:, None]
    rows = x.data[:, :, i0, :] * (1 - th_col) + x.data[:, :, i1, :] * th_col
    return Tensor(rows[:, :, :, j0] * (1 - tw) + rows[:, :, :, j1] * tw)


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[list[Tensor]], Tensor], params: Sequence[Tensor],
               eps: float = 1e-3) -> float:
    """Max relative error between tape gradients of ``f`` and central
    finite differences.

    ``f`` maps a list of tensors to a scalar tensor and must be pure.  The
    whole check runs in float64 regardless of the parameters' dtype; the
    error denominator is max(1, |analytic|, |numeric|) per coordinate.
    """
    base = [p.data.astype(np.float64) for p in params]
    p64 = [Tensor(b) for b in base]
    with GradTape() as tape:
        loss = f(p64)
    analytic = tape.gradients(loss, p64)

    worst = 0.0
    for k in range(len(base)):
        flat = base[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            plus = base[k].copy()
            plus.reshape(-1)[i] = orig + eps
            minus = base[k].copy()
            minus.reshape(-1)[i] = orig - eps
            f_plus = f([Tensor(plus) if j == k else p64[j] for j in range(len(base))]).item()
            f_minus = f([Tensor(minus) if j == k else p64[j] for j in range(len(base))]).item()
            numeric = (f_plus - f_minus) / (2.0 * eps)
            exact = float(analytic[k].reshape(-1)[i])
            err = abs(exact - numeric) / max(1.0, abs(exact), abs(numeric))
            if err > worst:
                worst = err
    return worst
