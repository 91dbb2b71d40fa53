"""Independent references the benchmark checks the program's outputs against.

Each function recomputes a result from the documented definitions in
float64 numpy, without calling into ``stereosr``: a PNG reader built on
``zlib`` alone, the network's forward pass, the training loss, PSNR and
SSIM.  Each ``check_*`` function returns a list of failure messages, empty
when the output passes.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from inputs import PNG_SIGNATURE

# An 8-bit output may differ from the float64 reference by one level only
# where the reference lies this close (in levels) to a rounding boundary.
# On the benchmark's inputs the float32 forward drifts from float64 by
# under 0.001 levels.
QUANT_SLACK_LEVELS = 0.02
PLAN_ROW_SUM_TOL = 5e-6
# float32 loss against its float64 recomputation
LOSS_RTOL = 2e-5
# float64 tape gradient against a central difference along a unit
# direction.  The loss's frequency term is an absolute value with a kink at
# every zero DFT difference; a step that straddles one was seen to move the
# difference quotient by up to 1.6%, so the step starts at GRAD_EPS and
# shrinks tenfold (at most GRAD_SHRINKS times) until no DFT difference
# changes sign across it.  The tolerance allows GRAD_RTOL relative error
# plus LOSS_ROUNDING / step for float64 rounding of the loss.
GRAD_EPS = 1e-6
GRAD_SHRINKS = 3
GRAD_RTOL = 1e-4
LOSS_ROUNDING = 1e-15
METRIC_ATOL = 1e-9


# ---------------------------------------------------------------------------
# PNG read-back through zlib alone
# ---------------------------------------------------------------------------

def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def read_png(blob: bytes) -> np.ndarray:
    """Pixels of an 8-bit RGB, non-interlaced PNG as (h, w, 3) uint8.

    Undoes every scanline filter byte by byte, straight from the PNG
    specification; slow for filtered rows, and meant for the images the
    program writes.
    """
    if not blob.startswith(PNG_SIGNATURE):
        raise ValueError("missing PNG signature")
    pos, header, idat = len(PNG_SIGNATURE), None, b""
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise ValueError("truncated chunk")
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        if pos + 12 + length > len(blob):
            raise ValueError("truncated chunk")
        ctype, data = blob[pos + 4:pos + 8], blob[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", blob[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"CRC mismatch in {ctype!r}")
        if ctype == b"IHDR":
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise ValueError("no IHDR chunk")
    width, height, depth, color, _, _, interlace = header
    if (depth, color, interlace) != (8, 2, 0):
        raise ValueError(f"not 8-bit RGB non-interlaced: {header}")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as e:
        raise ValueError(f"corrupt IDAT: {e}") from e
    stride, bpp = width * 3, 3
    if len(raw) != height * (stride + 1):
        raise ValueError("decompressed size does not match the header")
    out = bytearray(height * stride)
    for y in range(height):
        ftype = raw[y * (stride + 1)]
        src = raw[y * (stride + 1) + 1:(y + 1) * (stride + 1)]
        base, prev = y * stride, (y - 1) * stride
        if ftype > 4:
            raise ValueError(f"unknown filter type {ftype} on row {y}")
        if ftype == 0:
            out[base:base + stride] = src
            continue
        for x in range(stride):
            a = out[base + x - bpp] if x >= bpp else 0
            b = out[prev + x] if y else 0
            c = out[prev + x - bpp] if y and x >= bpp else 0
            pred = (0, a, b, (a + b) // 2, _paeth(a, b, c))[ftype]
            out[base + x] = (src[x] + pred) % 256
    return np.frombuffer(bytes(out), np.uint8).reshape(height, width, 3)


# ---------------------------------------------------------------------------
# Network forward, float64, from the README's description
# ---------------------------------------------------------------------------

def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, depthwise: bool = False,
         dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Stride-1 cross-correlation with zero "same" padding, as a direct sum
    over kernel taps.  x is (c, h, w); w is (out, in or 1, kh, kw)."""
    _, _, kh, kw = w.shape
    c, h, wd = x.shape
    dh, dw = dilation
    ph, pw = (kh - 1) * dh // 2, (kw - 1) * dw // 2
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((w.shape[0], h, wd))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, i * dh:i * dh + h, j * dw:j * dw + wd]
            if depthwise:
                out += w[:, 0, i, j][:, None, None] * tap
            else:
                out += np.tensordot(w[:, :, i, j], tap, axes=(1, 0))
    return out + b.reshape(-1, 1, 1)


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)
    return gain.reshape(-1, 1, 1) * (x - mu) / np.sqrt(var + 1e-6) + shift.reshape(-1, 1, 1)


def gate(x: np.ndarray) -> np.ndarray:
    half = x.shape[0] // 2
    return x[:half] * x[half:]


def sinkhorn_plan(scores: np.ndarray, iters: int) -> np.ndarray:
    """Per-row plans of (rows, w, w) scores in the scaling-vector form.

    With K = exp(M), each iteration sets b = 1 / (w K^T a), then
    a = 1 / (w K b), from a = 1; the plan is w * a_i K_ij b_j.  This is the
    log-domain update of the README, exponentiated.  Subtracting each row
    matrix's maximum from M leaves the plan unchanged and keeps K finite.
    """
    w = scores.shape[-1]
    k = np.exp(scores - scores.max(axis=(1, 2), keepdims=True))
    a = np.ones(scores.shape[:2])
    for _ in range(iters):
        b = 1.0 / (w * (a[:, None, :] @ k)[:, 0, :])
        a = 1.0 / (w * (k @ b[:, :, None])[:, :, 0])
    return w * a[:, :, None] * k * b[:, None, :]


class ReferenceModel:
    """The network of the README, evaluated in float64 on one pair.

    ``params`` maps the weight file's tensor names to arrays; ``cfg``
    supplies the block count, branches, scale and flags.
    """

    def __init__(self, params: dict[str, np.ndarray], cfg):
        self.p = {k: np.asarray(v, np.float64) for k, v in params.items()}
        self.cfg = cfg

    def _block(self, x: np.ndarray, pre: str) -> np.ndarray:
        p, c = self.p, x.shape[0]
        # attention half
        y = layer_norm(x, p[f"{pre}.mscam.norm.gain"], p[f"{pre}.mscam.norm.shift"])
        y = conv(y, p[f"{pre}.mscam.expand.weight"], p[f"{pre}.mscam.expand.bias"])
        y = conv(y, p[f"{pre}.mscam.dwconv.weight"], p[f"{pre}.mscam.dwconv.bias"], depthwise=True)
        y = gate(y)
        acc = 0.0
        for j, br in enumerate(self.cfg.lska_branches):
            q = f"{pre}.mscam.lska.{j}"
            t = conv(y, p[f"{q}.local_h.weight"], p[f"{q}.local_h.bias"], True)
            t = conv(t, p[f"{q}.local_v.weight"], p[f"{q}.local_v.bias"], True)
            t = conv(t, p[f"{q}.dilated_h.weight"], p[f"{q}.dilated_h.bias"], True, (1, br.dilation))
            t = conv(t, p[f"{q}.dilated_v.weight"], p[f"{q}.dilated_v.bias"], True, (br.dilation, 1))
            acc = acc + t
        y = y * conv(acc, p[f"{pre}.mscam.lska.fuse.weight"], p[f"{pre}.mscam.lska.fuse.bias"])
        pooled = y.mean(axis=(1, 2), keepdims=True)
        y = y * conv(pooled, p[f"{pre}.mscam.sca.weight"], p[f"{pre}.mscam.sca.bias"])
        y = conv(y, p[f"{pre}.mscam.project.weight"], p[f"{pre}.mscam.project.bias"])
        x = x + p[f"{pre}.mscam.res_scale"].reshape(c, 1, 1) * y
        # feed-forward half
        y = layer_norm(x, p[f"{pre}.sffn.norm.gain"], p[f"{pre}.sffn.norm.shift"])
        y = gate(conv(y, p[f"{pre}.sffn.expand.weight"], p[f"{pre}.sffn.expand.bias"]))
        y = conv(y, p[f"{pre}.sffn.project.weight"], p[f"{pre}.sffn.project.bias"])
        return x + p[f"{pre}.sffn.res_scale"].reshape(c, 1, 1) * y

    def _deam(self, x_l, x_r, pre):
        p, c = self.p, x_l.shape[0]
        m_l = conv(layer_norm(x_l, p[f"{pre}.norm_l.gain"], p[f"{pre}.norm_l.shift"]),
                   p[f"{pre}.match_l.weight"], p[f"{pre}.match_l.bias"])
        m_r = conv(layer_norm(x_r, p[f"{pre}.norm_r.gain"], p[f"{pre}.norm_r.shift"]),
                   p[f"{pre}.match_r.weight"], p[f"{pre}.match_r.bias"])
        v_l = conv(x_l, p[f"{pre}.value_l.weight"], p[f"{pre}.value_l.bias"])
        v_r = conv(x_r, p[f"{pre}.value_r.weight"], p[f"{pre}.value_r.bias"])
        # per row h: scores[h, i, j] = sum_c m_l[c, h, i] * m_r[c, h, j] / sqrt(c)
        scores = m_l.transpose(1, 2, 0) @ m_r.transpose(1, 0, 2) / math.sqrt(c)
        plan = sinkhorn_plan(scores, self.cfg.sinkhorn_iters)
        # to_left[c, h, i] = sum_j plan[h, i, j] v_r[c, h, j]; to_right uses plan^T
        to_left = (plan @ v_r.transpose(1, 2, 0)).transpose(2, 0, 1)
        to_right = (plan.transpose(0, 2, 1) @ v_l.transpose(1, 2, 0)).transpose(2, 0, 1)
        return (x_l + p[f"{pre}.fuse_scale_l"].reshape(c, 1, 1) * to_left,
                x_r + p[f"{pre}.fuse_scale_r"].reshape(c, 1, 1) * to_right)

    def forward(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Super-resolve (3, h, w) views in [0, 1]; returns (3, rh, rw) views."""
        cfg, p = self.cfg, self.p
        pre = ("", "") if cfg.share_view_weights else ("left.", "right.")
        xs = [conv(v, p[f"{q}intro.weight"], p[f"{q}intro.bias"]) for v, q in zip((left, right), pre)]
        stages = (cfg.n_blocks - 1,) if cfg.single_interaction else range(cfg.n_blocks)
        for i in range(cfg.n_blocks):
            xs = [self._block(x, f"{q}block.{i}") for x, q in zip(xs, pre)]
            if i in stages:
                xs = list(self._deam(*xs, f"deam.{i}"))
        r = cfg.scale
        outs = []
        for x, q, lr in zip(xs, pre, (left, right)):
            y = conv(x, p[f"{q}head.weight"], p[f"{q}head.bias"])
            _, h, w = y.shape
            # sub-pixel: out[c, h*r + i, w*r + j] = in[c*r*r + i*r + j, h, w]
            y = y.reshape(3, r, r, h, w).transpose(0, 3, 1, 4, 2).reshape(3, h * r, w * r)
            if cfg.global_residual:
                y = y + bilinear(lr, r)
            outs.append(y)
        return outs[0], outs[1]


def _bilinear_matrix(n: int, r: int) -> np.ndarray:
    # half-pixel sample positions, clamped to the edge samples
    m = np.zeros((n * r, n))
    for o in range(n * r):
        pos = min(max((o + 0.5) / r - 0.5, 0.0), n - 1.0)
        i0 = int(math.floor(pos))
        t = pos - i0
        m[o, i0] += 1.0 - t
        m[o, min(i0 + 1, n - 1)] += t
    return m


def bilinear(x: np.ndarray, r: int) -> np.ndarray:
    """(c, h, w) -> (c, h*r, w*r), align-corners-false bilinear."""
    _, h, w = x.shape
    return _bilinear_matrix(h, r) @ x @ _bilinear_matrix(w, r).T


def check_quantized(name: str, ref: np.ndarray, pixels: np.ndarray) -> list[str]:
    """An (h, w, 3) 8-bit output against a (3, h, w) float reference: each
    pixel may be off by one level only at a rounding boundary."""
    levels = np.clip(ref, 0.0, 1.0).transpose(1, 2, 0) * 255.0
    if pixels.shape != levels.shape:
        return [f"{name}: shape {pixels.shape}, reference {levels.shape}"]
    if not np.isfinite(levels).all():
        return [f"{name}: the float64 reference is not finite"]
    gap = np.abs(levels - pixels.astype(np.float64))
    worst = float(gap.max())
    if worst > 0.5 + QUANT_SLACK_LEVELS:
        bad = int((gap > 0.5 + QUANT_SLACK_LEVELS).sum())
        return [f"{name}: {bad} pixels off the float64 reference by up to {worst:.3f} levels"]
    return []


def check_plan_rows(row_sum_errors: list[float]) -> list[str]:
    worst = max(row_sum_errors, default=math.inf)
    if not row_sum_errors or worst > PLAN_ROW_SUM_TOL:
        return [f"transport plan row sums off 1 by {worst:.3e} (tolerance {PLAN_ROW_SUM_TOL})"]
    return []


# ---------------------------------------------------------------------------
# Training loss
# ---------------------------------------------------------------------------

def loss(sr: tuple[np.ndarray, np.ndarray], hr: tuple[np.ndarray, np.ndarray],
         freq_weight: float = 0.01) -> float:
    """The README's loss: per view, mean squared error plus freq_weight
    times the mean absolute difference of the 2-D DFT coefficients, real
    and imaginary parts counted as separate elements; averaged over views."""
    total = 0.0
    for s, h in zip(sr, hr):
        d = np.asarray(s, np.float64) - np.asarray(h, np.float64)
        f = np.fft.fft2(d, axes=(-2, -1))
        total += np.mean(d * d) + freq_weight * 0.5 * (np.mean(np.abs(f.real)) + np.mean(np.abs(f.imag)))
    return total / 2.0


def check_losses(losses: list[float], first_expected: float) -> list[str]:
    out = []
    if not losses or not all(math.isfinite(v) for v in losses):
        out.append(f"non-finite or missing logged losses: {losses[:5]}")
    elif abs(losses[0] - first_expected) > LOSS_RTOL * abs(first_expected):
        out.append(f"first logged loss {losses[0]!r} != recomputed {first_expected!r}")
    return out


def dft_differences(sr: tuple[np.ndarray, np.ndarray], hr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Real and imaginary parts of every DFT coefficient of sr - hr, both
    views, flattened: the arguments of the loss's absolute values."""
    parts = []
    for s, h in zip(sr, hr):
        f = np.fft.fft2(np.asarray(s, np.float64) - np.asarray(h, np.float64), axes=(-2, -1))
        parts += [f.real.ravel(), f.imag.ravel()]
    return np.concatenate(parts)


def straddles_kink(minus: np.ndarray, plus: np.ndarray) -> bool:
    """True when some DFT difference changes sign between the two ends of a
    step.  Exact zeros of a real signal's spectrum (rounding noise of order
    1e-16 of the largest coefficient) are not kinks the step can cross."""
    scale = max(float(np.abs(minus).max()), float(np.abs(plus).max()))
    live = np.maximum(np.abs(minus), np.abs(plus)) > 1e-12 * scale
    return bool(np.any((np.sign(minus) != np.sign(plus)) & live))


def check_gradient(analytic: float, numeric: float, step: float) -> list[str]:
    allowed = GRAD_RTOL * max(abs(analytic), abs(numeric)) + LOSS_ROUNDING / step
    if not abs(analytic - numeric) <= allowed:
        return [f"directional derivative: tape {analytic!r}, central difference {numeric!r} "
                f"(step {step:g}) differ by more than {allowed:.3e}"]
    return []


# ---------------------------------------------------------------------------
# Image metrics
# ---------------------------------------------------------------------------

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return 100.0 if mse <= 0 else min(100.0, 10.0 * math.log10(1.0 / mse))


def ssim(a: np.ndarray, b: np.ndarray, size: int = 11, sigma: float = 1.5) -> float:
    """Mean SSIM over channels and valid positions, with the 11x11 Gaussian
    window applied as two separable 11-tap passes."""
    g = np.exp(-((np.arange(size) - (size - 1) / 2.0) ** 2) / (2 * sigma * sigma))
    g /= g.sum()

    def mean(x):
        h, w = x.shape[-2:]
        rows = sum(g[i] * x[..., i:i + h - size + 1, :] for i in range(size))
        return sum(g[j] * rows[..., j:j + w - size + 1] for j in range(size))

    x, y = np.asarray(a, np.float64), np.asarray(b, np.float64)
    mx, my = mean(x), mean(y)
    vx, vy, cxy = mean(x * x) - mx * mx, mean(y * y) - my * my, mean(x * y) - mx * my
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    s = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(s.mean())


def check_close(name: str, got: float, expected: float, atol: float = METRIC_ATOL) -> list[str]:
    if not abs(got - expected) <= atol:
        return [f"{name}: program {got!r}, reference {expected!r}"]
    return []


def check_equal_pixels(name: str, got: np.ndarray, expected: np.ndarray) -> list[str]:
    if got.shape != expected.shape or not np.array_equal(got, expected):
        return [f"{name}: pixels differ from the reference"]
    return []
