"""Image quality metrics on [0, 1] tensors.

SSIM runs in row bands of SSIM_BAND_BYTES, so its float64 temporaries stay
cache-sized; the value is the one the whole image gives.
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

# Byte budget of one band of float64 image rows in ssim; see there.
SSIM_BAND_BYTES = 512 << 10


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
        mse = float(np.mean(np.square(a.data.astype(np.float64) - b.data.astype(np.float64))))
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


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 2-D Gaussian weights, the outer product of the normalized
    1-D Gaussian with itself."""
    g = _gaussian_taps(size, sigma)
    return np.outer(g, g)


def _windowed_mean(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    # valid-mode local mean over the trailing two axes under the window
    # outer(g, g), as a pass along the rows and then one along the columns
    k = g.size
    h, w = x.shape[2] - k + 1, x.shape[3] - k + 1
    rows = sum(g[i] * x[:, :, i:i + h, :] for i in range(k))
    return sum(g[j] * rows[:, :, :, j:j + w] for j in range(k))


def ssim(a: Tensor, b: Tensor) -> float:
    """Single-scale structural similarity, 11x11 Gaussian window (sigma 1.5),
    averaged over channels and valid window positions.  Dynamic range 1.

    Runs in row bands of SSIM_BAND_BYTES: each band takes
    max(1, SSIM_BAND_BYTES // (n * c * w * 8)) output rows, whose window
    means read the band's rows of both images plus the 10 below it, in
    float64.  Every score is computed as over the whole image, and the
    bands' maps are joined before the one mean, so the result does not
    depend on the budget.  Seconds per call by budget and image size, RGB,
    each the fastest of 5 calls (3 at 1024x2048) in a fresh process,
    medians of 3 interleaved rounds on one core of a 2-core machine with
    2 MiB of L2 per core:

        budget      372x500   1024x2048
        128 KiB     0.084     1.14
        256 KiB     0.083     0.82
        512 KiB     0.063     0.74
        1 MiB       0.098     1.05
        2 MiB       0.120     1.22
        4 MiB       0.127     1.26
        unbanded    0.105     2.57
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.h < SSIM_WINDOW or a.w < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.h}x{a.w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    g = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    band = max(1, SSIM_BAND_BYTES // (a.n * a.c * a.w * 8))
    scores = []
    for lo in range(0, a.h - SSIM_WINDOW + 1, band):
        rows = slice(lo, lo + band + SSIM_WINDOW - 1)
        x = a.data[:, :, rows].astype(np.float64)
        y = b.data[:, :, rows].astype(np.float64)
        mu_x = _windowed_mean(x, g)
        mu_y = _windowed_mean(y, g)
        sigma_x = _windowed_mean(x * x, g) - mu_x * mu_x
        sigma_y = _windowed_mean(y * y, g) - mu_y * mu_y
        sigma_xy = _windowed_mean(x * y, g) - mu_x * mu_y
        scores.append(((2.0 * mu_x * mu_y + c1) * (2.0 * sigma_xy + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (sigma_x + sigma_y + c2)
        ))
    return float(np.concatenate(scores, axis=2).mean())
