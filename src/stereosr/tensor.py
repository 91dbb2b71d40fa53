"""Rank-4 tensors with reverse-mode differentiation.

Values are immutable (batch, channels, height, width) arrays, float32 by
default.  Every operation here but the bilinear resampler is a primitive
with a paired backward rule; while a :class:`GradTape` is active the
primitives record themselves, and replaying the tape in reverse yields
exact gradients for arbitrary compositions.  Each record names one
output and its inputs by their tensors' keys, and its backward rule maps
that output's cotangent to one cotangent per input.  A record holds no
tensor itself: the backward rule keeps only the operands it reads, so a
map that no backward reads is freed as soon as the forward drops it.
A chain of convolutions is one record that keeps its input and rebuilds
its inner maps in the backward (see :func:`conv2d`).  float64 is
supported throughout so numerical checks can run at higher precision
than the training path.
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

    def gradients(self, output: Tensor, params: Sequence[Tensor],
                  cotangent: np.ndarray | None = None) -> list[np.ndarray]:
        """Gradient of sum(cotangent * output) for each tensor in ``params``.

        The reverse replay starts from ``cotangent``, an array of the output's
        shape and dtype; a scalar output, such as a loss, may omit it and is
        seeded with 1.  Parameters the output does not depend on get zero
        cotangents.  Any tensor may be requested, including one computed on
        the tape or the output itself, which gets back its seed; the
        cotangents of other intermediates are dropped once used.
        """
        if cotangent is None:
            if output.numel != 1:
                raise ShapeError(f"an output of shape {output.shape} needs a cotangent")
            cotangent = np.ones_like(output.data)
        elif cotangent.shape != output.shape:
            raise ShapeError(f"cotangent shaped {cotangent.shape}, output {output.shape}")
        elif cotangent.dtype != output.dtype:
            raise TypeError(f"cotangent is {cotangent.dtype}, output {output.dtype}")

        requested = {p.key for p in params}
        # a record whose output the seeded output does not read gets no
        # cotangent and is skipped whole
        grads: dict[int, np.ndarray] = {output.key: cotangent}
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
        return [grads[p.key] if p.key in grads else np.zeros_like(p.data) for p in params]


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b with numpy broadcasting."""
    out = Tensor(a.data * b.data)

    def bwd(g):
        # b's cotangent first: when b broadcasts, its full-size product is
        # summed down before a's is made, so the two are never held at once
        g_b = _unbroadcast(g * a.data, b.shape)
        return _unbroadcast(g * b.data, a.shape), g_b

    _record("mul", (a, b), out, bwd)
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    _record("exp", (a,), out, lambda g: (g * out.data,))
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


# Most outputs one row of a banded product yields; see _band_segments.
BAND_SEGMENT = 16


def _band_segments(size: int) -> tuple[int, int]:
    """(count, length) of the segments that cover an axis of ``size``
    outputs: equal lengths of at most BAND_SEGMENT, which divide ``size``
    when up to twice the fewest segments allow it, and otherwise overrun
    its end by less than one per segment."""
    fewest = -(-size // BAND_SEGMENT)
    for count in range(fewest, 2 * fewest):
        if size % count == 0:
            return count, size // count
    return fewest, -(-size // fewest)


def _band_forward(x: np.ndarray, w: np.ndarray, dilation) -> np.ndarray:
    """Cross-correlate ``x`` with a depthwise ``w`` of one spatial extent 1
    into a C-contiguous array, as banded matrix products.

    The kernel's axis is cut into segments by _band_segments.  Output j of
    a segment reads entries j + t * d of its window of seg + 2p entries of
    ``x``, zero-padded by p on that axis only, so each channel's window
    times a (seg + 2p, seg) band with band[j + t * d, j] = w[t] gives the
    segment: along a row for a 1 x k kernel, down a column for a k x 1 one.
    The windows of every image, channel and segment are one strided view of
    the padded frame, and one batched product writes into the output.  The
    band's zero entries multiply real map values, so a NaN or an infinity
    in the input reaches every output of the segments whose windows hold
    it, not only the outputs within the kernel's reach.
    """
    n, c, h, wd = x.shape
    vertical = w.shape[3] == 1
    size, d = (h, dilation[0]) if vertical else (wd, dilation[1])
    taps = w.reshape(c, -1)
    p = (taps.shape[1] - 1) * d // 2
    count, seg = _band_segments(size)
    span, length = seg + 2 * p, count * seg
    dtype = np.result_type(x, w)
    # the output before the band and the frame, as _conv_forward allocates
    # its output before the tap block
    out = np.empty((n, c, length, wd) if vertical else (n, c, h, length), dtype=dtype)
    # a k x 1 kernel's band is the transpose, (seg, span), and multiplies
    # its windows from the left
    band = np.zeros((c, seg, span) if vertical else (c, span, seg), dtype=dtype)
    # the strided views are ndarrays over a buffer: unlike as_strided, that
    # checks the strides against the buffer's size, and it takes about 1 µs
    # a view against as_strided's 6
    # diagonal t of each band, t * d entries down its span axis, holds tap t
    per_channel, row, col = band.strides
    np.ndarray((c, taps.shape[1], seg), dtype, band, 0,
               (per_channel, d * (col if vertical else row), row + col))[...] = taps[:, :, None]
    frame = np.empty((n, c, length + 2 * p, wd) if vertical else (n, c, h, length + 2 * p),
                     dtype=dtype)
    # frame[(..., s) + tail] indexes the kernel's axis
    tail = (slice(None),) if vertical else ()
    frame[(..., slice(0, p)) + tail] = 0
    frame[(..., slice(p + size, None)) + tail] = 0
    frame[(..., slice(p, p + size)) + tail] = x
    # each window's rows are contiguous and start at least a row apart, so
    # BLAS takes every window and every output segment as it stands
    s0, s1, s2, s3 = frame.strides
    if vertical:
        # (span, wd) windows, seg rows apart
        windows = np.ndarray((n, c, count, span, wd), dtype, frame, 0, (s0, s1, seg * s2, s2, s3))
        np.matmul(band[:, None], windows, out=out.reshape(n, c, count, seg, wd))
    else:
        # (h, span) windows, seg columns apart
        windows = np.ndarray((n, c, count, h, span), dtype, frame, 0, (s0, s1, seg * s3, s2, s3))
        np.matmul(windows, band[:, None], out=out.reshape(n, c, h, count, seg).swapaxes(2, 3))
    if length != size:
        out = np.ascontiguousarray(out[(..., slice(0, size)) + tail])
    return out


def _conv_forward(x: np.ndarray, w: np.ndarray, dilation) -> np.ndarray:
    """Cross-correlate ``x`` with ``w`` into a C-contiguous array.

    The network's 1x1 kernels go through conv1x1, so this serves the
    kernels with taps.  A depthwise kernel with one spatial extent of 1 (12
    of a block's 13 depthwise kernels with the default branches) goes to
    _band_forward.  Every other kernel takes the taps of ``x`` from
    _tap_blocks.  A full kernel reads one block of all its input channels,
    whose rows are ordered like a flattened kernel, and takes one product.
    A depthwise kernel (the block's 3x3 dwconv) takes one batched
    (1, T) x (T, h * w) product per image and channel of each block.

    Untaped default-config forwards by TAP_STACK_BYTES and input size, each
    the fastest of 3 calls in a fresh process, medians of 8 interleaved
    rounds on one BLAS thread of a 2-core machine with 2 MiB of L2 per
    core.  The budget governs only the 3x3 depthwise forward and the
    depthwise backward: a full kernel takes all its channels in one block,
    and the 1-D kernels take _band_forward.  Single rounds spread (1 MiB:
    0.465-0.510 s at 32x96, 0.231-0.271 s at 16x96); 10 more rounds of
    512 KiB and 1 MiB alone read 0.477 and 0.475 s, 0.253 and 0.251 s:

        budget      32x96     16x96
        256 KiB     0.512 s   0.265 s
        512 KiB     0.479 s   0.255 s
        1 MiB       0.484 s   0.259 s
        2 MiB       0.494 s   0.258 s
        4 MiB       0.506 s   0.263 s
        unblocked   0.529 s   0.269 s

    The forwards of the default branches' 10 distinct 1-D kernels, summed,
    by BAND_SEGMENT, in ms, at batch 1: each kernel the fastest of 5 runs
    of 5 calls, the sums the least of 6 interleaved rounds, on one BLAS
    thread of the same machine; "taps" takes the same kernels through
    _tap_blocks at 1 MiB.  16 is the fastest or within 2% of it at each:

        channels, map   8      12     16     24     32     taps
        48, 32x96       1.50   1.28   1.30   1.57   1.55   2.29
        48, 16x96       0.84   0.69   0.70   0.89   0.76   1.19
        16, 24x72       0.37   0.33   0.33   0.41   0.41   0.67
        16, 93x310      6.32   5.29   5.37   6.81   5.46   7.64
        16, 32x1024     6.07   6.12   5.22   5.28   6.57   8.06
    """
    n, cin, h, wd = x.shape
    full = w.shape[1] == cin
    if not full and 1 in w.shape[2:]:
        return _band_forward(x, w, dilation)
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


def _conv_bias(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation) -> np.ndarray:
    """_conv_forward(x, w, dilation) + b."""
    o = _conv_forward(x, w, dilation)
    # the bias goes into the product's own output when that is already of
    # the sum's dtype, so a float64 bias still promotes
    own = o.dtype == np.result_type(o, b)
    return np.add(o, b, out=o if own else None)


def conv2d(x: Tensor, weights, bias, dilation=(1, 1)) -> Tensor:
    """Stride-1 2-D cross-correlation with zero "same" padding, plus a
    per-output-channel bias of shape (1, out_ch, 1, 1); or a chain of them.

    The kernel's shape (out_ch, in_ch, kh, kw) decides the convolution: a
    full one when in_ch is the input's channel count, a depthwise one when
    in_ch is 1 and out_ch is the input's channel count.  A (1, 1, kh, kw)
    kernel on a 1-channel input fits both readings, which compute the same
    map; it takes the full path.  Effective extents (k - 1) * dilation + 1
    must be odd, so the symmetric padding (k - 1) * dilation / 2 reproduces
    the input's spatial size exactly.  A 1x1 kernel is accepted, but the
    network applies every 1x1 kernel with conv1x1.

    A chain takes sequences of kernels, biases and dilations, one entry per
    convolution, and applies them to ``x`` in turn: one record whose inputs
    are x, then each convolution's kernel and bias.  It holds x and those
    operands only.  Its backward rebuilds the inner maps from x with the
    same operations as the forward, so a chain's output and gradients equal
    those of one record per convolution bit for bit, while its inner maps
    leave the tape: each is read by the next convolution alone.
    """
    if isinstance(weights, Tensor):
        weights, bias, dilation = (weights,), (bias,), (dilation,)
    c = x.c
    for w, b, d in zip(weights, bias, dilation, strict=True):
        out_ch, in_ch, kh, kw = w.shape
        dh, dw = d
        if in_ch != c and not (in_ch == 1 and out_ch == c):
            raise ShapeError(
                f"kernel shaped {w.shape} fits neither a full convolution of the input's "
                f"{c} channels (in_ch {c}) nor a depthwise one (in_ch 1, out_ch {c})"
            )
        if dh < 1 or dw < 1:
            raise ShapeError(f"dilation must be >= 1, got {d}")
        if ((kh - 1) * dh) % 2 or ((kw - 1) * dw) % 2:
            raise ShapeError(
                f"effective kernel extent must be odd for exact same padding; "
                f"got kernel ({kh}, {kw}) with dilation {d}"
            )
        if b.shape != (1, out_ch, 1, 1):
            raise ShapeError(f"bias shaped {b.shape}, expected (1, {out_ch}, 1, 1)")
        c = out_ch

    ws, bs = [w.data for w in weights], [b.data for b in bias]
    t = x.data
    for w, b, d in zip(ws, bs, dilation):
        t = _conv_bias(t, w, b, d)
    out = Tensor(t)

    def bwd(g):
        maps = [x.data]
        for w, b, d in zip(ws[:-1], bs[:-1], dilation):
            maps.append(_conv_bias(maps[-1], w, b, d))
        # last convolution first; each map is dropped once its kernel's
        # backward has read it
        grads = []
        for w, d in zip(reversed(ws), reversed(dilation)):
            db = g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
            g, dw = _conv_backward(maps.pop(), g, w, d)
            grads += [db, dw]
        return (g, *reversed(grads))

    _record("conv2d", (x, *(op for pair in zip(weights, bias) for op in pair)), out, bwd)
    return out


# Added to each site's channel variance before the layer norm's square root.
LN_EPS = 1e-6


def conv1x1(x: Tensor, weights: Tensor, bias: Tensor, norm: tuple[Tensor, Tensor] | None = None,
            scale: Tensor | None = None) -> Tensor:
    """r * (W (g * x̂ + s) + b) for an (out_ch, in_ch, 1, 1) kernel W and a
    (1, out_ch, 1, 1) bias b.  ``norm`` is a layer norm's per-input-channel
    gain and shift (g, s): x̂ is each (n, h, w) site's channel vector at zero
    mean and unit variance, (x - mean) / sqrt(var + LN_EPS).  Without it x̂
    is x, with no gain or shift.  ``scale`` is a per-output-channel r, or 1.

    No factor acts on a map.  The forward folds them into the kernel and the
    bias, W' = diag(r) W diag(g) and b' = r * (W s + b), and takes the one
    product W' x̂ + b'.  The backward takes dx̂, dW' and db' from that
    product, the layer norm's rule from dx̂ to dx, and the rest by the chain
    rule on the weights alone, rebuilding the folded weights, so the record
    holds no array but x̂, the norm's inverse deviations and the operands.
    W s is an elementwise product summed over in_ch, not a BLAS call.
    """
    n, cin, h, wd = x.shape
    cout = weights.shape[0]
    gain, shift = (None, None) if norm is None else norm
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

    # bound either way: the backward reads both
    xhat, inv = x.data, None
    if norm is not None:
        xhat = x.data - x.data.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=1, keepdims=True) + x.dtype.type(LN_EPS))
        xhat *= inv
    _, _, folded, shifted = fold()
    xs = xhat.reshape(n, cin, h * wd)
    o = np.matmul(folded, xs)
    own = o.dtype == np.result_type(o, shifted)
    out = Tensor(np.add(o, shifted[:, None], out=o if own else None).reshape(n, cout, h, wd))
    shapes = [t.shape for t in inputs]

    def bwd(grad):
        gs = grad.reshape(n, cout, h * wd)
        gained, unscaled, folded, _ = fold()
        dw = np.tensordot(gs, xs, axes=([0, 2], [0, 2]))
        db = gs.sum(axis=(0, 2))
        dx = dxhat = np.matmul(folded.T, gs).reshape(xhat.shape)
        if inv is not None:
            # the layer norm's rule, from dx̂ to dx
            dx = dxhat - dxhat.mean(axis=1, keepdims=True)
            dx -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            dx *= inv
        grads = [dx, dw, db]
        # from the cotangents of W' and b' back through each fold, last first
        if r is not None:
            grads.append((dw * gained).sum(axis=1) + db * unscaled)
            dw *= r[:, None]
            db *= r
        if g is not None:
            grads += [(dw * w).sum(axis=0), (w * db[:, None]).sum(axis=0)]
            dw *= g
            dw += db[:, None] * s
        return tuple(d.reshape(shape) for d, shape in zip(grads, shapes))

    _record("conv1x1", inputs, out, bwd)
    return out


# ---------------------------------------------------------------------------
# Gating, pooling, rearrangement
# ---------------------------------------------------------------------------

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

    ``f`` maps a list of tensors to a tensor and must be pure.  Both sides
    are of sum(G * f), with G one fixed-seed N(0, 1) draw (1 for a
    one-element output) that seeds the tape, so every output element
    counts at its own scale, not at 1/numel as under a mean.  The whole
    check runs in float64 regardless of the parameters' dtype; the error
    denominator is max(1, |analytic|, |numeric|) per coordinate.
    """
    base = [p.data.astype(np.float64) for p in params]
    p64 = [Tensor(b) for b in base]
    with GradTape() as tape:
        out = f(p64)
    g = np.ones(out.shape) if out.numel == 1 else np.random.default_rng(0).normal(size=out.shape)
    analytic = tape.gradients(out, p64, g)

    def contracted(k, value):
        moved = [Tensor(value) if j == k else p64[j] for j in range(len(base))]
        return float(np.sum(g * f(moved).data))

    worst = 0.0
    for k in range(len(base)):
        flat = base[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            plus = base[k].copy()
            plus.reshape(-1)[i] = orig + eps
            minus = base[k].copy()
            minus.reshape(-1)[i] = orig - eps
            numeric = (contracted(k, plus) - contracted(k, minus)) / (2.0 * eps)
            exact = float(analytic[k].reshape(-1)[i])
            err = abs(exact - numeric) / max(1.0, abs(exact), abs(numeric))
            if err > worst:
                worst = err
    return worst
