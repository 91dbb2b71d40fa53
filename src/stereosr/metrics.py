"""Image quality metrics on [0, 1] tensors.

SSIM takes its window means as banded matrix products over tiles of
SSIM_TILE output rows, so its float64 temporaries stay cache-sized; the
value is the one the whole image gives, up to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError, Tensor

PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# Output rows of one ssim tile, and output columns of one window; see there.
SSIM_TILE = 16


def psnr(a: Tensor, b: Tensor) -> float:
    """Peak signal-to-noise ratio in dB for unit dynamic range.

    Identical inputs (and anything below the corresponding MSE floor) report
    the documented 100 dB cap so output stays finite and parseable.  A NaN
    or infinite value in either input has no PSNR and raises ValueError.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    # a NaN or infinite input makes the error NaN (inf - inf, quietly) or inf
    with np.errstate(invalid="ignore"):
        diff = np.subtract(a.data, b.data, dtype=np.float64)
        mse = float(np.mean(np.square(diff, out=diff)))
    if not math.isfinite(mse):
        raise ValueError("PSNR is undefined: an input holds a NaN or infinite value")
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    # normalized 1-D Gaussian weights
    half = (size - 1) / 2.0
    coords = np.arange(size, dtype=np.float64) - half
    g = np.exp(-np.square(coords) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim(a: Tensor, b: Tensor) -> float:
    """Single-scale structural similarity, 11x11 Gaussian window (sigma 1.5),
    averaged over channels and valid window positions.  Dynamic range 1.
    A NaN or infinite value in either input has no SSIM and raises
    ValueError.

    The window is two banded (Toeplitz) matrix products over tiles of
    SSIM_TILE = T output rows by 32 T output columns.  A tile stacks the
    float64 maps x, y, x², y² and xy of its T + 10 rows and 32 T + 10
    columns (fewer at the bottom and right edges, and zero past the last
    column, so that its column windows are whole).  The row pass is one
    product with the (T, T + 10) matrix whose row i holds the 11 taps
    from column i; the column pass is one product of the stride-T windows
    of T + 10 columns with that matrix's transpose.  The tiles' score sums
    add to one total, so working memory does not grow with the image's
    height or width.
    Seconds per call by tile size and image size, RGB, each the fastest
    of 5 calls (3 at 1024x2048) in a fresh process, medians of 3
    interleaved rounds on one core of a 2-core machine with 2 MiB of L2
    per core:

        372x500     128 cols  256      512      1024
        8 rows      0.0147    0.0133   0.0123   0.0124
        16 rows     0.0119    0.0113   0.0105   0.0105
        32 rows     0.0124    0.0116   0.0143   0.0143
        64 rows     0.0154    0.0184   0.0208   0.0207
        1024x2048
        8 rows      0.176     0.156    0.144    0.144
        16 rows     0.145     0.134    0.149    0.146
        32 rows     0.143     0.153    0.151    0.164
        64 rows     0.187     0.198    0.203    0.196

    Separable 11-tap passes over row bands of 512 KiB take 0.038 s and
    0.463 s, measured the same way.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.h < SSIM_WINDOW or a.w < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.h}x{a.w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    k, t = SSIM_WINDOW, SSIM_TILE
    piece = 32 * t
    # the (t, t + k - 1) Toeplitz matrix whose row i holds the k taps from
    # column i, and its transpose
    band = np.zeros((t, t + k - 1))
    i = np.arange(t)[:, None]
    band[i, i + np.arange(k)] = _gaussian_taps(k, SSIM_SIGMA)
    band_t = np.ascontiguousarray(band.T)
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    n, c = a.n, a.c
    h_out, w_out = a.h - k + 1, a.w - k + 1
    total = 0.0
    # a NaN or infinite input spreads NaN over its tiles (0 * inf, inf - inf,
    # quietly) and so into the total
    with np.errstate(invalid="ignore"):
        for r0 in range(0, h_out, t):
            rows = min(t, h_out - r0)
            for c0 in range(0, w_out, piece):
                cols = min(piece, w_out - c0)
                wins = -(-cols // t)
                # x, y, x², y² and xy with the halo, zero past the last column
                # so that the column windows are whole
                maps = np.empty((5, n, c, rows + k - 1, wins * t + k - 1))
                maps[..., cols + k - 1:] = 0.0
                maps[0, ..., :cols + k - 1] = a.data[:, :, r0:r0 + rows + k - 1, c0:c0 + cols + k - 1]
                maps[1, ..., :cols + k - 1] = b.data[:, :, r0:r0 + rows + k - 1, c0:c0 + cols + k - 1]
                np.multiply(maps[0], maps[0], out=maps[2])
                np.multiply(maps[1], maps[1], out=maps[3])
                np.multiply(maps[0], maps[1], out=maps[4])
                means = band[:rows, :rows + k - 1] @ maps
                windows = np.lib.stride_tricks.sliding_window_view(means, t + k - 1, axis=-1)
                means = windows[..., ::t, :] @ band_t
                mu_x, mu_y, sigma_x, sigma_y, sigma_xy = means.reshape(5, n, c, rows, wins * t)
                # the score as ((2 mu_x mu_y + c1)(2 sigma_xy + c2)) /
                # ((mu_x² + mu_y² + c1)(sigma_x + sigma_y + c2)), in place
                mu_xy = mu_x * mu_y
                mu_xx = mu_x * mu_x
                mu_yy = mu_y * mu_y
                sigma_x -= mu_xx
                sigma_y -= mu_yy
                sigma_xy -= mu_xy
                mu_xy *= 2.0
                mu_xy += c1
                sigma_xy *= 2.0
                sigma_xy += c2
                mu_xy *= sigma_xy
                mu_xx += mu_yy
                mu_xx += c1
                sigma_x += sigma_y
                sigma_x += c2
                mu_xx *= sigma_x
                mu_xy /= mu_xx
                total += float(mu_xy[..., :cols].sum())
    if not math.isfinite(total):
        raise ValueError("SSIM is undefined: an input holds a NaN or infinite value")
    return total / (n * c * h_out * w_out)
