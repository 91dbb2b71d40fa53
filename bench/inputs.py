"""Seeded inputs for the benchmark: a synthetic stereo scene, a PNG encoder
that chooses row filters the way libpng does, and the perturbed weights the
inference workload loads.

Nothing here calls into ``stereosr``; the program only ever sees the files
and arrays these functions produce.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

# (centre height, size, aspect, texture period, texture angle) per object;
# the layout is fixed so that every seed gives the same mix of row content
# and hence of PNG row filters and decode cost.
_OBJECT_LAYOUT = (
    (0.35, 0.10, 1.3, 7.0, 0.3),
    (0.55, 0.14, 0.8, 9.0, 0.0),
    (0.70, 0.12, 1.0, 6.0, 1.2),
    (0.50, 0.09, 1.5, 11.0, 0.7),
    (0.78, 0.15, 0.7, 8.0, 2.0),
)


def _smooth_step(d: np.ndarray, width: float) -> np.ndarray:
    # 1 inside (d < 0), 0 outside, a logistic edge about `width` pixels wide
    return 1.0 / (1.0 + np.exp(np.clip(d / width, -50.0, 50.0)))


def render_pair(rng: np.random.Generator, height: int, width: int,
                pixel: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Left and right views of one random scene as (h, w, 3) uint8 arrays.

    ``pixel`` is the size of one output pixel in scene units, so the same
    scene can be rendered at several resolutions.  The scene is a sky
    gradient over a textured ground plane with five fronto-parallel objects
    (discs and rectangles carrying gratings or checkers) at fixed heights
    and sizes.  The seed draws the colours, texture phases, horizontal
    positions, disparities and the noise samples.  Each layer has its own disparity;
    the right view samples the scene shifted by it, and nearer layers are
    painted last so they occlude.  Gaussian sensor noise is added last,
    stronger on the ground than in the sky.
    """
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    ys = (ys + 0.5) * pixel
    xs = (xs + 0.5) * pixel
    scene_h, scene_w = height * pixel, width * pixel
    horizon = scene_h * 0.4

    sky_top = rng.uniform(0.45, 0.7, 3)
    sky_bottom = np.clip(sky_top + rng.uniform(0.1, 0.25, 3), 0.0, 0.95)
    ground_base = rng.uniform(0.25, 0.5, 3)
    ground_period = 11.0
    ground_disp = rng.uniform(1.0, 3.0)          # disparity at the bottom edge
    objects = []
    for k, (cy, size, aspect, period, angle) in enumerate(_OBJECT_LAYOUT):
        objects.append(dict(
            kind="disc" if k % 2 == 0 else "rect",
            cx=scene_w * (0.1 + 0.8 * (k + rng.uniform(0.2, 0.8)) / len(_OBJECT_LAYOUT)),
            cy=scene_h * cy, size=min(scene_h, scene_w) * size, aspect=aspect,
            period=period, angle=angle, phase=rng.uniform(0.0, 2 * np.pi),
            color=rng.uniform(0.15, 0.85, 3), contrast=0.2,
            disparity=rng.uniform(4.0, 20.0),
        ))
    objects.sort(key=lambda o: o["disparity"])   # far to near
    noise_sky, noise_ground = 0.003, 0.011

    def view(shift_sign: float) -> np.ndarray:
        # sky: vertical gradient plus a faint horizontal band
        t = np.clip(ys / max(horizon, 1.0), 0.0, 1.0)[None]
        img = sky_top[:, None, None] * (1 - t) + sky_bottom[:, None, None] * t
        img = img + 0.03 * np.sin(2 * np.pi * xs / (scene_w * 0.7))[None]
        # ground: disparity grows linearly from the horizon to the bottom edge
        depth = np.clip((ys - horizon) / max(scene_h - horizon, 1.0), 0.0, 1.0)
        gx = xs + shift_sign * ground_disp * depth
        texture = 0.12 * np.sin(2 * np.pi * gx / ground_period) \
            * np.sin(2 * np.pi * ys / (ground_period * 0.7))
        ground = ground_base[:, None, None] + texture[None] + 0.1 * depth[None]
        img = np.where((ys >= horizon)[None], ground, img)
        for o in objects:
            ox = xs + shift_sign * o["disparity"] - o["cx"]
            oy = ys - o["cy"]
            if o["kind"] == "disc":
                dist = np.sqrt((ox / o["aspect"]) ** 2 + oy ** 2) - o["size"]
            else:
                dist = np.maximum(np.abs(ox) - o["size"] * o["aspect"], np.abs(oy) - o["size"])
            mask = _smooth_step(dist, 0.6 * pixel)[None]
            u = ox * np.cos(o["angle"]) + oy * np.sin(o["angle"])
            if o["kind"] == "disc":
                pattern = np.sin(2 * np.pi * u / o["period"] + o["phase"])
            else:
                v = -ox * np.sin(o["angle"]) + oy * np.cos(o["angle"])
                pattern = np.sign(np.sin(np.pi * u / o["period"] + o["phase"])
                                  * np.sin(np.pi * v / o["period"]))
            shade = 0.08 * oy / o["size"]
            obj = o["color"][:, None, None] + (o["contrast"] * pattern + shade)[None]
            img = img * (1 - mask) + obj * mask
        sigma = np.where(ys < horizon, noise_sky, noise_ground)[None]
        img = img + sigma * rng.standard_normal(img.shape)
        return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8).transpose(1, 2, 0)

    left = view(0.0)
    right = view(+1.0)
    return np.ascontiguousarray(left), np.ascontiguousarray(right)


# ---------------------------------------------------------------------------
# PNG encoding with per-row adaptive filters
# ---------------------------------------------------------------------------

def _paeth_predict(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_candidates(pixels: np.ndarray) -> np.ndarray:
    """All five PNG filters applied to every row: (5, h, w*3) uint8.

    Filters act on the raw bytes of the row and of the row above, so every
    row and filter is computed at once.
    """
    h, w, ch = pixels.shape
    raw = pixels.reshape(h, w * ch).astype(np.int32)
    up = np.vstack([np.zeros((1, w * ch), np.int32), raw[:-1]])
    left = np.hstack([np.zeros((h, ch), np.int32), raw[:, :-ch]])
    up_left = np.hstack([np.zeros((h, ch), np.int32), up[:, :-ch]])
    preds = (
        np.zeros_like(raw), left, up, (left + up) // 2, _paeth_predict(left, up, up_left),
    )
    return np.stack([(raw - p) % 256 for p in preds]).astype(np.uint8)


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """libpng's default heuristic: per row, the filter whose output bytes,
    read as signed, have the smallest sum of absolute values."""
    signed = candidates.astype(np.int16)
    cost = np.minimum(signed, 256 - signed).sum(axis=2)
    return np.argmin(cost, axis=0)


def _chunk(ctype: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """8-bit RGB PNG with adaptive row filters; returns the file bytes and
    the filter type chosen for each row."""
    h, w, _ = pixels.shape
    candidates = filter_candidates(pixels)
    filters = choose_filters(candidates)
    rows = np.empty((h, w * 3 + 1), np.uint8)
    rows[:, 0] = filters
    rows[:, 1:] = candidates[filters, np.arange(h)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (PNG_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(rows.tobytes(), 6)) + _chunk(b"IEND", b""))
    return blob, filters


def filter_shares(filters: np.ndarray) -> dict[str, float]:
    counts = np.bincount(filters, minlength=5)
    return {name: float(c) / len(filters) for name, c in zip(FILTER_NAMES, counts)}


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def perturb_weights(arrays: dict[str, np.ndarray], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded changes to a freshly initialised model, so that no part of the
    network is an identity or a zero and the transport shapes the output.

    Fusion scales, which start at zero (making every cross-view stage the
    identity), become uniform in +-[0.12, 0.3].  Match projections are
    multiplied by 3, which sharpens the transport plans.  The head is
    multiplied by 0.1, so that fewer than 0.1% of output values leave
    [0, 1].  Biases and norm shifts get N(0, 0.02) noise, norm gains
    1 + N(0, 0.05), residual scales uniform [0.5, 1].
    """
    out = {}
    for name, a in arrays.items():
        if "fuse_scale" in name:
            a = rng.uniform(0.12, 0.3, a.shape) * rng.choice((-1.0, 1.0), a.shape)
        elif ".match_" in name and name.endswith(".weight"):
            a = a * 3.0
        elif name.endswith("head.weight"):
            a = a * 0.1
        elif name.endswith(".bias") or name.endswith(".shift"):
            a = a + rng.normal(0.0, 0.02, a.shape)
        elif name.endswith(".gain"):
            a = a + rng.normal(0.0, 0.05, a.shape)
        elif name.endswith("res_scale"):
            a = rng.uniform(0.5, 1.0, a.shape)
        out[name] = np.asarray(a, dtype=np.float32)
    return out
