"""Rank-4 tensors with reverse-mode differentiation.

Values are immutable (batch, channels, height, width) arrays, float32 by
default.  Every operation here is a primitive with a paired backward rule;
while a :class:`GradTape` is active the primitives record themselves, and
replaying the tape in reverse yields exact loss gradients for arbitrary
compositions.  Each record holds one output tensor, and its backward rule
maps that output's cotangent to one cotangent per input.  float64 is
supported throughout so numerical checks can run at higher precision than
the training path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """Immutable rank-4 value: (batch, channels, height, width).

    The wrapped array is treated as read-only after construction; all
    operations return fresh tensors.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (n, c, h, w); got rank {arr.ndim}")
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr

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
    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name: str, inputs: tuple, output: Tensor, backward: _BackwardFn):
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

        # Forward sweep: which tensors can influence a requested parameter's
        # gradient (i.e. are parameters or are computed from one).
        requested = {id(p) for p in params}
        needed = set(requested)
        for rec in self._records:
            if any(id(t) in needed for t in rec.inputs):
                needed.add(id(rec.output))

        # Only needed tensors collect cotangents, so a record whose output
        # has none is skipped whole.
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for rec in reversed(self._records):
            out = id(rec.output)
            # every reader of the output comes later on the tape, so its
            # cotangent is spent once this record's backward has run
            g = grads.get(out) if out in requested else grads.pop(out, None)
            if g is None:
                continue
            for t, dt in zip(rec.inputs, rec.backward(g)):
                tid = id(t)
                if tid in needed:
                    # never in place: the summand may be shared with another input
                    acc = grads.get(tid)
                    grads[tid] = dt if acc is None else acc + dt
        return [grads.get(id(p), np.zeros_like(p.data)) for p in params]


def _record(name: str, inputs: tuple, output: Tensor, backward_fn: _BackwardFn) -> None:
    tape = GradTape._active
    if tape is not None:
        tape._records.append(_Recorded(name, inputs, output, backward_fn))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b with numpy broadcasting; b may be a Python scalar."""
    if isinstance(b, Tensor):
        out = Tensor(a.data + b.data)

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        _record("add", (a, b), out, bwd)
        return out

    out = Tensor(a.data + a.data.dtype.type(b))
    _record("add", (a,), out, lambda g: (g,))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

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


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    _record("neg", (a,), out, lambda g: (-g,))
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    _record("exp", (a,), out, lambda g: (g * out.data,))
    return out


def absolute(a: Tensor) -> Tensor:
    """Elementwise |a|; the backward rule uses sign with sign(0) = 0."""
    out = Tensor(np.abs(a.data))
    _record("abs", (a,), out, lambda g: (g * np.sign(a.data),))
    return out


def sum_all(a: Tensor) -> Tensor:
    """Total of all elements as a (1, 1, 1, 1) tensor."""
    out = Tensor(a.data.sum(dtype=a.data.dtype).reshape(1, 1, 1, 1))

    def bwd(g):
        return (np.full_like(a.data, g.reshape(())),)

    _record("sum_all", (a,), out, bwd)
    return out


def mean_all(a: Tensor) -> Tensor:
    """Mean of all elements as a (1, 1, 1, 1) tensor."""
    inv = a.data.dtype.type(1.0 / a.numel)
    out = Tensor((a.data.sum(dtype=a.data.dtype) * inv).reshape(1, 1, 1, 1))

    def bwd(g):
        return (np.full_like(a.data, g.reshape(()) * inv),)

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


def transpose(a: Tensor, axes: tuple[int, int, int, int]) -> Tensor:
    """Permute axes; the result stays rank-4."""
    if sorted(axes) != [0, 1, 2, 3]:
        raise ShapeError(f"axes must be a permutation of (0, 1, 2, 3), got {axes}")
    out = Tensor(np.ascontiguousarray(np.transpose(a.data, axes)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    _record("transpose", (a,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """Stride-1 cross-correlation with zero "same" padding.

    ``groups`` is 1 (full) or equal to ``in_ch`` and ``out_ch``
    (depthwise); ``kernel`` is laid out (out_ch, in_ch // groups, kh, kw).
    Effective kernel extents (k - 1) * dilation + 1 must be odd so the
    symmetric padding ((k - 1) * d) / 2 reproduces the input spatial size
    exactly.
    """

    out_ch: int
    in_ch: int
    kh: int
    kw: int
    groups: int = 1
    dilation: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.groups != 1 and not self.groups == self.in_ch == self.out_ch:
            raise ShapeError(
                f"groups must be 1 or equal in_ch and out_ch (depthwise); got groups "
                f"{self.groups} with in_ch {self.in_ch}, out_ch {self.out_ch}"
            )
        dh, dw = self.dilation
        if dh < 1 or dw < 1:
            raise ShapeError(f"dilation must be >= 1, got {self.dilation}")
        if ((self.kh - 1) * dh) % 2 or ((self.kw - 1) * dw) % 2:
            raise ShapeError(
                f"effective kernel extent must be odd for exact same padding; "
                f"got kernel ({self.kh}, {self.kw}) with dilation {self.dilation}"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_ch, self.in_ch // self.groups, self.kh, self.kw)

    @property
    def padding(self) -> tuple[int, int]:
        return ((self.kh - 1) * self.dilation[0] // 2, (self.kw - 1) * self.dilation[1] // 2)


def _pad_spatial(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out


def _taps(x: np.ndarray, spec: ConvSpec) -> list[np.ndarray]:
    """One (n, c, h, w) view of the zero-padded input per kernel tap, in
    row-major tap order: the tap (i, j) view holds, at each output site,
    the input value that kernel entry (i, j) multiplies."""
    n, c, h, w = x.shape
    dh, dw = spec.dilation
    padded = _pad_spatial(x, *spec.padding)
    return [padded[:, :, i * dh:i * dh + h, j * dw:j * dw + w]
            for i in range(spec.kh) for j in range(spec.kw)]


def _columns(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    # (n, in_ch * kh * kw, h * w), rows ordered like a flattened kernel
    n, c, h, w = x.shape
    return np.stack(_taps(x, spec), axis=2).reshape(n, c * spec.kh * spec.kw, h * w)


def _conv_forward(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    n, cin, h, wd = x.shape
    if spec.groups > 1:
        # depthwise: accumulate the taps, each scaled by its kernel column
        columns = w.reshape(cin, -1).T.reshape(-1, 1, cin, 1, 1)
        out = np.zeros((n, cin, h, wd), dtype=x.dtype)
        for tap, column in zip(_taps(x, spec), columns):
            out += tap * column
        return out
    flat = np.matmul(w.reshape(spec.out_ch, -1), _columns(x, spec))
    return flat.reshape(n, spec.out_ch, h, wd)


def _conv_grad_w(x: np.ndarray, gout: np.ndarray, spec: ConvSpec) -> np.ndarray:
    if spec.groups > 1:
        per_tap = [(tap * gout).sum(axis=(0, 2, 3)) for tap in _taps(x, spec)]
        return np.stack(per_tap, axis=1).reshape(spec.weight_shape)
    n = x.shape[0]
    flat = np.tensordot(gout.reshape(n, spec.out_ch, -1), _columns(x, spec), axes=([0, 2], [0, 2]))
    return flat.reshape(spec.weight_shape)


def _conv_grad_x(gout: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    # Cross-correlate the output gradient with the spatially flipped kernel,
    # in/out channel roles swapped (a depthwise kernel keeps its layout).
    wt = w if spec.groups > 1 else w.swapaxes(0, 1)
    wt = np.ascontiguousarray(wt[..., ::-1, ::-1])
    spec_t = ConvSpec(
        out_ch=spec.in_ch, in_ch=spec.out_ch, kh=spec.kh, kw=spec.kw,
        groups=spec.groups, dilation=spec.dilation,
    )
    return _conv_forward(gout, wt, spec_t)


def conv2d(x: Tensor, spec: ConvSpec, weights: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation per ``spec`` plus a per-output-channel bias."""
    if x.c != spec.in_ch:
        raise ShapeError(f"input has {x.c} channels, spec expects in_ch={spec.in_ch}")
    if weights.shape != spec.weight_shape:
        raise ShapeError(f"weights shaped {weights.shape}, spec expects {spec.weight_shape}")
    if bias.shape != (1, spec.out_ch, 1, 1):
        raise ShapeError(f"bias shaped {bias.shape}, expected (1, {spec.out_ch}, 1, 1)")

    out = Tensor(_conv_forward(x.data, weights.data, spec) + bias.data)

    def bwd(g):
        dx = _conv_grad_x(g, weights.data, spec)
        dw = _conv_grad_w(x.data, g, spec)
        db = g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return dx, dw, db

    _record("conv2d", (x, weights, bias), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Normalization, gating, pooling, rearrangement
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize each (n, h, w) site's channel vector to zero mean / unit
    variance, then scale by ``gain`` and offset by ``shift`` (both (1, c, 1, 1))."""
    if gain.shape != (1, x.c, 1, 1) or shift.shape != (1, x.c, 1, 1):
        raise ShapeError(
            f"gain/shift must be (1, {x.c}, 1, 1); got {gain.shape} and {shift.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = np.square(centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = centered * inv
    out = Tensor(gain.data * xhat + shift.data)

    def bwd(g):
        dgain = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dshift = g.sum(axis=(0, 2, 3), keepdims=True)
        dxh = g * gain.data
        dx = dxh - dxh.mean(axis=1, keepdims=True)
        dx -= xhat * (dxh * xhat).mean(axis=1, keepdims=True)
        dx *= inv
        return dx, dgain, dshift

    _record("layer_norm", (x, gain, shift), out, bwd)
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

    def bwd(g):
        return (np.broadcast_to(g * inv, x.shape).copy(),)

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
# Fourier transform and batched matrix product
# ---------------------------------------------------------------------------

def dft2(x: Tensor) -> Tensor:
    """Unnormalized 2-D discrete Fourier transform over (h, w) per channel.

    X[u, v] = sum_{h, w} x[h, w] * exp(-2*pi*i*(u*h/H + v*w/W)), returned as
    one (n, 2c, h, w) tensor: real parts in channels [0, c), imaginary parts
    in [c, 2c).
    """
    n, c, h, w = x.shape
    coeffs = np.fft.fft2(x.data, axes=(2, 3))
    out = Tensor(np.concatenate([coeffs.real, coeffs.imag], axis=1).astype(x.data.dtype))

    def bwd(g):
        grad = np.fft.ifft2(g[:, :c] + 1j * g[:, c:], axes=(2, 3)).real * (h * w)
        return (grad.astype(x.data.dtype),)

    _record("dft2", (x,), out, bwd)
    return out


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, batched over the first two.

    (n, B, X, K) @ (n, B, K, Y) -> (n, B, X, Y), with a fixed accumulation
    order along K for every output value.
    """
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(f"batch dims differ: {a.shape[:2]} vs {b.shape[:2]}")
    if a.shape[3] != b.shape[2]:
        raise ShapeError(
            f"inner dimensions disagree: a has K={a.shape[3]}, b has K={b.shape[2]}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        da = np.matmul(g, b.data.swapaxes(2, 3))
        db = np.matmul(a.data.swapaxes(2, 3), g)
        return da, db

    _record("batched_matmul", (a, b), out, bwd)
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
    sample positions with edge clamping."""
    if r < 1:
        raise ShapeError(f"upscale factor must be >= 1, got {r}")
    n, c, h, w = x.shape
    dt = x.data.dtype
    i0, i1, th = _bilinear_axis(h, r, dt)
    j0, j1, tw = _bilinear_axis(w, r, dt)
    th_col = th[:, None]
    rows = x.data[:, :, i0, :] * (1 - th_col) + x.data[:, :, i1, :] * th_col
    out = Tensor(rows[:, :, :, j0] * (1 - tw) + rows[:, :, :, j1] * tw)

    def bwd(g):
        grows = np.zeros_like(rows)
        np.add.at(grows, (slice(None), slice(None), slice(None), j0), g * (1 - tw))
        np.add.at(grows, (slice(None), slice(None), slice(None), j1), g * tw)
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), slice(None), i0, slice(None)), grows * (1 - th_col))
        np.add.at(dx, (slice(None), slice(None), i1, slice(None)), grows * th_col)
        return (dx,)

    _record("bilinear_upsample", (x,), out, bwd)
    return out


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
