"""8-bit RGB image buffers, a minimal PNG codec, and bicubic downsampling.

The PNG support is deliberately narrow: 8-bit grayscale or RGB, not
interlaced, at most MAX_PIXELS pixels.  Everything else (palette, alpha,
16-bit, bad checksums, oversized images) is rejected with a diagnostic
rather than guessed at.  ``png_size`` checks a file's header, its first 33
bytes, without reading the rest.

Row filters are undone as one vectorized wavefront over the
anti-diagonals, which predicts each diagonal with one lookup in a table of
predictor offsets, built on first use.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

_COLOR_TYPE_NAMES = {0: "grayscale", 2: "rgb", 3: "palette", 4: "grayscale+alpha", 6: "rgba"}

# Largest width * height decoded; the inflated stream is capped at the size
# the header implies, so neither can grow past what this allows.
MAX_PIXELS = 1 << 24

# Longest PNG file read.  An image of at most MAX_PIXELS pixels inflates to
# at most 2^26 bytes: three bytes a pixel and one filter byte a row, with no
# more rows than pixels.  Stored (uncompressed) deflate blocks add 5 bytes
# per 65,535 and each chunk 12, so a file whose chunks carry at least 12
# bytes each fits in twice that.
MAX_PNG_BYTES = 1 << 27


class PngError(ValueError):
    """A PNG stream failed validation or is unsupported."""


@dataclass(frozen=True)
class ImageBuffer:
    """Height x width x 3 array of 8-bit channel values."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ShapeError(f"pixels must be (h, w, 3) uint8, got {p.shape} {p.dtype}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_tensor(self) -> Tensor:
        """(1, 3, h, w) float32 in [0, 1], dividing by 255."""
        return Tensor(self.pixels.astype(np.float32).transpose(2, 0, 1)[None] / np.float32(255.0))

    @classmethod
    def from_tensor(cls, t: Tensor) -> "ImageBuffer":
        """Quantize a (1, 3, h, w) tensor: clamp to [0, 1], then
        round-half-up to 8 bits.  NaN or infinite values raise ValueError."""
        if t.n != 1 or t.c != 3:
            raise ShapeError(f"expected a (1, 3, h, w) tensor, got {t.shape}")
        if not np.isfinite(t.data).all():
            raise ValueError("cannot quantize an image with NaN or infinite values")
        x = np.clip(t.data[0].astype(np.float64), 0.0, 1.0)
        quantized = np.floor(x * 255.0 + 0.5).astype(np.uint8)
        return cls(pixels=np.ascontiguousarray(quantized.transpose(1, 2, 0)))


# ---------------------------------------------------------------------------
# PNG reading
# ---------------------------------------------------------------------------

def _iter_chunks(blob: bytes):
    # each chunk's data is a memoryview of ``blob``, not a copy
    view = memoryview(blob)
    pos = len(_PNG_SIGNATURE)
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise PngError("truncated chunk header")
        (length,) = struct.unpack_from(">I", blob, pos)
        ctype = blob[pos + 4:pos + 8]
        data_end = pos + 8 + length
        if data_end + 4 > len(blob):
            raise PngError(f"truncated {ctype!r} chunk")
        data = view[pos + 8:data_end]
        (crc,) = struct.unpack_from(">I", blob, data_end)
        if zlib.crc32(data, zlib.crc32(ctype)) != crc:
            raise PngError(f"CRC mismatch in {ctype.decode('latin1')} chunk")
        yield ctype, data
        pos = data_end + 4


# Predictor offsets by filter: each predictor is c plus an offset that depends
# only on da = a - c and db = b - c, so one lookup in a table indexed by
# (slab, da + 255, db + 255) predicts any row.  A row of filter type f >= 1
# reads slab f - 1; None rows are rewritten as Sub rows first.
_OFFSET_SIDE = 511


@functools.cache
def _offset_table() -> np.ndarray:
    """The (4, 511, 511) uint8 table of predictor offsets mod 256, for Sub
    (da), Up (db), Average ((da + db) >> 1) and Paeth (da, db or 0).  Built
    on first use, 64 rows at a time so the temporaries stay small."""
    diffs = np.arange(-255, 256, dtype=np.int16)
    table = np.empty((4, _OFFSET_SIDE, _OFFSET_SIDE), np.uint8)
    table[0] = diffs[:, None] & 0xFF
    table[1] = diffs & 0xFF
    db = diffs
    for lo in range(0, _OFFSET_SIDE, 64):
        da = diffs[lo:lo + 64, None]
        total = da + db
        table[2, lo:lo + 64] = (total >> 1) & 0xFF
        # Paeth with p = a + b - c: |p - a| = |db|, |p - b| = |da|,
        # |p - c| = |da + db|; ties go to a, then b
        pa, pb, pc = np.abs(db), np.abs(da), np.abs(total)
        paeth = np.where((pa <= pb) & (pa <= pc), da, np.where(pb <= pc, db, 0))
        table[3, lo:lo + 64] = paeth & 0xFF
    table.flags.writeable = False
    return table


def _unfilter(raw: bytes, width: int, height: int, channels: int) -> np.ndarray:
    """Undo the scanline filters of ``raw``: an (h, w, ch) uint8 array.

    One wavefront over the anti-diagonals, one table lookup per diagonal,
    undoes every row, with None rows rewritten as Sub rows.
    """
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise PngError(
            f"decompressed size {len(raw)} does not match {height} rows of {stride + 1} bytes"
        )
    data = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    ftypes = data[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        y = int(bad[0])
        raise PngError(f"unknown scanline filter type {ftypes[y]} on row {y}")
    # Pixel (y, x) is predicted from its left (y, x-1), upper (y-1, x) and
    # upper-left (y-1, x-1) neighbours, so each anti-diagonal y + x = d
    # depends only on the two before it: one vectorized step per diagonal
    # (the hyperplane method).  In the flat (h * w, ch) pixel list the
    # diagonal is a strided slice, decoded in place.  Its values also go
    # into one of three rotating flat ((h + 1) * ch) buffers, slot y + 1 for
    # pixel row y, after a slot 0 that stands above the image.  Slots fill
    # in increasing order, so a slot no diagonal has reached yet still holds
    # the zero that a pixel in column 0 has for its left and upper-left
    # neighbours.  Channels trail, so a, b and c are contiguous slices.
    image = data[:, 1:].reshape(height, width, channels).copy()
    none = ftypes == 0
    if none.any():
        # a None row decodes as a Sub row whose bytes are differenced one
        # pixel to the left
        rows = image[none]
        image[none, 1:] = rows[:, 1:] - rows[:, :-1]
    flat = image.reshape(-1, channels)
    slabs = np.maximum(ftypes.astype(np.int32) - 1, 0)
    base = np.repeat(slabs * _OFFSET_SIDE**2 + 255 * (_OFFSET_SIDE + 1), channels)
    table = _offset_table().reshape(-1)
    step = max(width - 1, 1)
    prev2, prev, cur = (np.zeros((height + 1) * channels, np.int32) for _ in range(3))
    index = np.empty(height * channels, np.int32)
    for d in range(height + width - 1):
        lo, hi = max(0, d - width + 1), min(height - 1, d)
        start = lo * width + d - lo
        diagonal = slice(start, start + (hi - lo) * step + 1, step)
        above = slice(lo * channels, (hi + 1) * channels)
        here = slice(above.start + channels, above.stop + channels)
        c = prev2[above]
        # index = 511 (a - c) + (b - c) + the row's slab base
        i = index[:above.stop - above.start]
        np.subtract(prev[here], c, out=i)
        i *= _OFFSET_SIDE
        i += prev[above]
        i -= c
        i += base[above]
        decoded = cur[here]
        np.add(table.take(i), c, out=decoded)
        pixels = decoded.reshape(-1, channels)
        pixels += flat[diagonal]
        pixels &= 0xFF
        flat[diagonal] = pixels
        prev2, prev, cur = prev, cur, prev2
    return image


# The signature and the IHDR chunk, which the PNG specification puts first
_HEADER_BYTES = len(_PNG_SIGNATURE) + 8 + 13 + 4


def _read_header(blob: bytes) -> tuple[int, int, int]:
    """Width, height and channel count from the IHDR chunk that opens
    ``blob``, checked against what decode_png handles; only the first 33
    bytes are read."""
    if not blob.startswith(_PNG_SIGNATURE):
        raise PngError("missing PNG signature")
    if blob[12:16] != b"IHDR":
        raise PngError("no IHDR chunk")
    (length,) = struct.unpack(">I", blob[8:12])
    if length != 13:
        raise PngError(f"IHDR length {length}, expected 13")
    _, data = next(_iter_chunks(blob[:_HEADER_BYTES]))  # truncation and CRC
    width, height, bit_depth, color_type, compression, filter_method, interlace = (
        struct.unpack(">IIBBBBB", data)
    )
    if bit_depth != 8:
        raise PngError(f"unsupported bit depth {bit_depth}; only 8-bit images are handled")
    if color_type not in (0, 2):
        name = _COLOR_TYPE_NAMES.get(color_type, str(color_type))
        raise PngError(f"unsupported color type: {name}; only grayscale and rgb are handled")
    if compression != 0 or filter_method != 0:
        raise PngError("nonstandard compression or filter method")
    if interlace != 0:
        raise PngError("interlaced PNGs are not handled")
    if width == 0 or height == 0 or width * height > MAX_PIXELS:
        raise PngError(
            f"image size {width}x{height} outside the supported 1 to {MAX_PIXELS} pixels"
        )
    return width, height, 1 if color_type == 0 else 3


def decode_png(blob: bytes) -> ImageBuffer:
    """Decode an 8-bit grayscale or RGB PNG byte stream.

    Grayscale is promoted to three identical channels.
    """
    width, height, channels = _read_header(blob)
    chunks = _iter_chunks(blob)
    next(chunks)  # the IHDR chunk, read above
    idat = bytearray()
    saw_end = False
    for ctype, data in chunks:
        if ctype == b"IHDR":
            raise PngError("duplicate IHDR chunk")
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            saw_end = True
            break
    if not saw_end:
        raise PngError("no IEND chunk")
    if not idat:
        raise PngError("no IDAT data")
    expected = height * (width * channels + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as e:
        raise PngError(f"corrupt IDAT stream: {e}") from e
    if len(raw) > expected:
        raise PngError(f"IDAT inflates past the {expected} bytes of {height} rows")
    if not inflater.eof:
        raise PngError("corrupt IDAT stream: incomplete or truncated stream")
    pixels = _unfilter(raw, width, height, channels)
    if channels == 1:
        pixels = np.repeat(pixels, 3, axis=2)
    return ImageBuffer(pixels=np.ascontiguousarray(pixels))


def png_size(path) -> tuple[int, int]:
    """(width, height) of the PNG file at ``path``, from its header alone:
    at most the first 33 bytes are read, and the header is checked as
    decode_png checks it."""
    with open(path, "rb") as fh:
        width, height, _ = _read_header(fh.read(_HEADER_BYTES))
    return width, height


def load_png(path) -> ImageBuffer:
    """Decode the PNG file at ``path``; its signature is checked before the
    rest, at most MAX_PNG_BYTES, is read."""
    with open(path, "rb") as fh:
        blob = fh.read(len(_PNG_SIGNATURE))
        if blob != _PNG_SIGNATURE:
            raise PngError("missing PNG signature")
        blob += fh.read(MAX_PNG_BYTES + 1 - len(blob))
    if len(blob) > MAX_PNG_BYTES:
        raise PngError(f"PNG file is longer than {MAX_PNG_BYTES} bytes")
    return decode_png(blob)


# ---------------------------------------------------------------------------
# PNG writing
# ---------------------------------------------------------------------------

def _chunk(ctype: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(data, zlib.crc32(ctype)))
    )


def encode_png(buf: ImageBuffer) -> bytes:
    """Encode as 8-bit RGB, unfiltered scanlines."""
    h, w = buf.height, buf.width
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = np.empty((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 0] = 0
    rows[:, 1:] = buf.pixels.reshape(h, w * 3)
    idat = zlib.compress(rows, 6)
    return (
        _PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def save_png(buf: ImageBuffer, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_png(buf))


# ---------------------------------------------------------------------------
# Bicubic downsampling (for synthesizing low-resolution inputs)
# ---------------------------------------------------------------------------

def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    near = (a + 2.0) * ax3 - (a + 3.0) * ax2 + 1.0
    far = a * ax3 - 5.0 * a * ax2 + 8.0 * a * ax - 4.0 * a
    return np.where(ax <= 1.0, near, np.where(ax < 2.0, far, 0.0))


def _downsample_matrix(in_size: int, out_size: int) -> np.ndarray:
    # antialiased: the kernel is stretched by the scale factor when shrinking
    scale = out_size / in_size
    support = 2.0 / scale
    centers = (np.arange(out_size, dtype=np.float64) + 0.5) / scale - 0.5
    taps = int(np.ceil(support)) * 2 + 1
    left = np.floor(centers - support).astype(np.int64) + 1
    idx = left[:, None] + np.arange(taps)[None, :]
    weights = _cubic_kernel((idx - centers[:, None]) * scale)
    weights /= weights.sum(axis=1, keepdims=True)
    idx = np.clip(idx, 0, in_size - 1)  # replicate edges
    matrix = np.zeros((out_size, in_size), dtype=np.float64)
    np.add.at(matrix, (np.repeat(np.arange(out_size), taps), idx.reshape(-1)), weights.reshape(-1))
    return matrix


def bicubic_downsample(x: Tensor, r: int) -> Tensor:
    """Shrink spatial dimensions by an integer factor with an antialiased
    cubic kernel (a = -0.5).  Used to synthesize low-resolution training
    inputs; not differentiable."""
    if r < 1:
        raise ShapeError(f"factor must be >= 1, got {r}")
    if r == 1:
        return x
    if x.h % r or x.w % r:
        raise ShapeError(f"spatial size {x.h}x{x.w} not divisible by factor {r}")
    mh = _downsample_matrix(x.h, x.h // r)
    mw = _downsample_matrix(x.w, x.w // r)
    data = x.data.astype(np.float64)
    return Tensor((mh @ data @ mw.T).astype(x.data.dtype))
