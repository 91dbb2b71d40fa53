"""PNG codec edge cases, buffer/tensor conversion, bicubic downsampling."""

import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stereosr
from stereosr import images as im
from stereosr.images import ImageBuffer, PngError
from stereosr.tensor import ShapeError, Tensor

SIG = b"\x89PNG\r\n\x1a\n"


def chunk(ctype, data):
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(
        ">I", zlib.crc32(ctype + data) & 0xFFFFFFFF
    )


def build_png(width, height, bit_depth, color_type, raw_rows, interlace=0, stream=None):
    """PNG with one IDAT chunk holding ``stream``, by default raw_rows compressed."""
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, interlace)
    if stream is None:
        stream = zlib.compress(raw_rows)
    return SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", stream) + chunk(b"IEND", b"")


def apply_filter(ftype, row, prev, bpp):
    """Reference scanline filter (encode direction)."""
    out = np.zeros_like(row, dtype=np.int32)
    r = row.astype(np.int32)
    p = prev.astype(np.int32)
    for i in range(len(row)):
        left = r[i - bpp] if i >= bpp else 0
        up = p[i]
        up_left = p[i - bpp] if i >= bpp else 0
        if ftype == 0:
            pred = 0
        elif ftype == 1:
            pred = left
        elif ftype == 2:
            pred = up
        elif ftype == 3:
            pred = (left + up) // 2
        else:
            q = left + up - up_left
            candidates = [(abs(q - left), left), (abs(q - up), up), (abs(q - up_left), up_left)]
            pred = min(candidates, key=lambda t: t[0])[1]
        out[i] = (r[i] - pred) % 256
    return out.astype(np.uint8)


def _paeth_oracle(left, up, up_left):
    p = left.astype(np.int32) + up.astype(np.int32) - up_left.astype(np.int32)
    pa = np.abs(p - left)
    pb = np.abs(p - up)
    pc = np.abs(p - up_left)
    out = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
    return out.astype(np.uint8)


def unfilter_oracle(raw, width, height, channels):
    """The earlier per-pixel scanline decoder, kept as an exact oracle."""
    stride = width * channels
    data = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.zeros((height, stride), dtype=np.uint8)
    bpp = channels
    for y in range(height):
        ftype = int(data[y, 0])
        row = data[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            line = row
        elif ftype == 1:
            line = row.copy()
            for o in range(bpp):
                line[o::bpp] = np.cumsum(row[o::bpp]) % 256
        elif ftype == 2:
            line = (row + prev) % 256
        else:
            line = np.zeros(stride, dtype=np.int32)
            for x in range(width):
                s = slice(x * bpp, (x + 1) * bpp)
                left = line[s.start - bpp:s.start] if x else np.zeros(bpp, dtype=np.int32)
                up = prev[s]
                if ftype == 3:
                    line[s] = (row[s] + (left + up) // 2) % 256
                else:
                    up_left = prev[s.start - bpp:s.start] if x else np.zeros(bpp, dtype=np.int32)
                    pred = _paeth_oracle(
                        left.astype(np.uint8), up.astype(np.uint8), up_left.astype(np.uint8)
                    )
                    line[s] = (row[s] + pred) % 256
        out[y] = line.astype(np.uint8)
    return out.reshape(height, width, channels)


class TestImageBuffer:
    def test_u8_tensor_roundtrip_is_identity(self):
        values = np.arange(256, dtype=np.uint8)
        rolled = np.roll(values, 7)
        pixels = np.stack([values, values[::-1], rolled], axis=-1).reshape(16, 16, 3)
        buf = ImageBuffer(pixels=pixels)
        back = ImageBuffer.from_tensor(buf.to_tensor())
        np.testing.assert_array_equal(back.pixels, pixels)

    def test_from_tensor_clamps(self):
        t = Tensor(np.array([[-0.5, 0.0], [1.0, 2.0]], np.float32).reshape(1, 1, 2, 2).repeat(3, axis=1))
        buf = ImageBuffer.from_tensor(t)
        np.testing.assert_array_equal(buf.pixels[:, :, 0], [[0, 0], [255, 255]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_tensor_rejects_non_finite(self, bad):
        data = np.full((1, 3, 2, 2), 0.5, np.float32)
        data[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            ImageBuffer.from_tensor(Tensor(data))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            ImageBuffer(pixels=np.zeros((4, 4), np.uint8))
        with pytest.raises(ShapeError):
            ImageBuffer.from_tensor(Tensor(np.zeros((1, 4, 4, 4), np.float32)))


class TestPngRoundTrip:
    def test_save_load_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        buf = ImageBuffer(pixels=rng.integers(0, 256, size=(7, 11, 3), dtype=np.uint8))
        path = tmp_path / "x.png"
        im.save_png(buf, path)
        loaded = im.load_png(path)
        np.testing.assert_array_equal(loaded.pixels, buf.pixels)

    def test_grayscale_promoted_to_three_channels(self):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        rows = np.concatenate([np.zeros((5, 1), np.uint8), gray], axis=1).tobytes()
        buf = im.decode_png(build_png(6, 5, 8, 0, rows))
        for ch in range(3):
            np.testing.assert_array_equal(buf.pixels[:, :, ch], gray)

    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_all_scanline_filters_decode(self, ftype):
        rng = np.random.default_rng(2 + ftype)
        pixels = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        stride = 5 * 3
        rows = bytearray()
        prev = np.zeros(stride, np.uint8)
        for y in range(6):
            raw = pixels[y].reshape(-1)
            rows.append(ftype)
            rows += apply_filter(ftype, raw, prev, 3).tobytes()
            prev = raw
        buf = im.decode_png(build_png(5, 6, 8, 2, bytes(rows)))
        np.testing.assert_array_equal(buf.pixels, pixels)


class TestUnfilterOracle:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("width", [1, 2, 7])
    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4, None])
    def test_matches_per_pixel_decoder(self, ftype, width, channels):
        # any bytes are valid filtered data; None mixes all five filters
        rng = np.random.default_rng(40 + 10 * width + channels)
        height = 64
        rows = rng.integers(0, 256, size=(height, 1 + width * channels), dtype=np.uint8)
        rows[:, 0] = rng.integers(0, 5, size=height) if ftype is None else ftype
        raw = rows.tobytes()
        np.testing.assert_array_equal(
            im._unfilter(raw, width, height, channels),
            unfilter_oracle(raw, width, height, channels),
        )

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("width, height", [
        (w, h) for h in (1, 2, 7) for w in (1, 2, 7, 40)
    ] + [(40, 9), (9, 40)])
    def test_matches_at_the_wavefront_edges(self, width, height, channels):
        # heights 1, 2 and 7, and images wider than tall and taller than
        # wide: the diagonals start on the top row and then on the right
        # column, and have one to min(h, w) pixels
        rng = np.random.default_rng(7 * width + 3 * height + channels)
        rows = rng.integers(0, 256, size=(height, 1 + width * channels), dtype=np.uint8)
        rows[:, 0] = rng.integers(0, 5, size=height)
        raw = rows.tobytes()
        np.testing.assert_array_equal(
            im._unfilter(raw, width, height, channels),
            unfilter_oracle(raw, width, height, channels),
        )

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(width=st.integers(1, 24), height=st.integers(1, 24), channels=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1), types=st.sampled_from([(3, 4), (0, 1, 2), range(5)]))
    def test_random_sizes_and_filter_mixes_match(self, width, height, channels, seed, types):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, size=(height, 1 + width * channels), dtype=np.uint8)
        rows[:, 0] = rng.choice(list(types), size=height)
        raw = rows.tobytes()
        np.testing.assert_array_equal(
            im._unfilter(raw, width, height, channels),
            unfilter_oracle(raw, width, height, channels),
        )

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_none_rows_next_to_predicted_rows(self, width, channels):
        # None rows decode as rewritten Sub rows: each sits directly above
        # and below Paeth and Average rows, and two None rows are adjacent
        ftypes = [0, 4, 0, 3, 0, 0, 4, 3, 0, 3, 0, 4, 0]
        rng = np.random.default_rng(60 + 10 * width + channels)
        rows = rng.integers(0, 256, size=(len(ftypes), 1 + width * channels), dtype=np.uint8)
        rows[:, 0] = ftypes
        raw = rows.tobytes()
        np.testing.assert_array_equal(
            im._unfilter(raw, width, len(ftypes), channels),
            unfilter_oracle(raw, width, len(ftypes), channels),
        )

    def test_paeth_tie_between_up_and_up_left_picks_up(self):
        # left 110, up 80, up-left 100: |left - upleft| = |left + up - 2 upleft| = 10
        rows = bytes([0, 100, 80, 4, 10, 0])
        np.testing.assert_array_equal(im._unfilter(rows, 2, 2, 1)[1, :, 0], [110, 80])
        np.testing.assert_array_equal(unfilter_oracle(rows, 2, 2, 1)[1, :, 0], [110, 80])

    def test_matches_on_saturated_rows(self):
        # all-255 and all-0 rows exercise the Paeth ties and the mod-256 wrap
        width, channels = 5, 3
        rows = np.zeros((10, 1 + width * channels), np.uint8)
        rows[::2, 1:] = 255
        rows[:, 0] = [3, 4, 4, 3, 4, 1, 4, 2, 4, 3]
        raw = rows.tobytes()
        np.testing.assert_array_equal(
            im._unfilter(raw, width, 10, channels), unfilter_oracle(raw, width, 10, channels)
        )


class TestOffsetTable:
    def test_every_neighbour_triple_matches_the_predictors(self):
        # all 256^3 (left a, up b, up-left c), one slice of c at a time:
        # c plus the table's offset, mod 256, is each filter's prediction
        table = im._offset_table()
        a = np.arange(256, dtype=np.int32)[:, None]
        b = np.arange(256, dtype=np.int32)[None, :]
        expected = {0: np.broadcast_to(a, (256, 256)), 1: np.broadcast_to(b, (256, 256)),
                    2: (a + b) // 2}
        left, up = (np.broadcast_to(v, (256, 256)).astype(np.uint8) for v in (a, b))
        for c in range(256):
            expected[3] = _paeth_oracle(left, up, np.full((256, 256), c, np.uint8))
            for slab, want in expected.items():
                predicted = (c + table[slab, a - c + 255, b - c + 255].astype(np.int32)) & 0xFF
                np.testing.assert_array_equal(predicted, want, err_msg=f"slab {slab}, c {c}")

    def test_built_on_first_use_not_at_import(self):
        script = ("import stereosr\n"
                  "from stereosr import images\n"
                  "print(images._offset_table.cache_info().currsize)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={
                "PATH": "/usr/bin:/bin",
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": str(Path(stereosr.__file__).resolve().parent.parent),
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_build_temporaries_stay_under_the_table_size(self):
        tracemalloc.start()
        try:
            table = im._offset_table.__wrapped__()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.nbytes

    def test_wavefront_holds_no_whole_image_temporaries(self):
        # a 1024x1024 RGB all-Paeth image: the call holds its output and
        # per-diagonal buffers, not int32 arrays the size of the image
        width = height = 1024
        rows = np.random.default_rng(8).integers(0, 256, size=(height, 1 + 3 * width),
                                                 dtype=np.uint8)
        rows[:, 0] = 4
        raw = rows.tobytes()
        im._offset_table()  # built once per process, outside the measured call
        tracemalloc.start()
        try:
            out = im._unfilter(raw, width, height, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes + (2 << 20)


class TestPngValidation:
    def _rgb_rows(self, w, h):
        data = np.zeros((h, 1 + w * 3), np.uint8)
        return data.tobytes()

    def test_sixteen_bit_rejected(self):
        with pytest.raises(PngError, match="bit depth"):
            im.decode_png(build_png(2, 2, 16, 2, self._rgb_rows(2, 2)))

    def test_palette_rejected(self):
        with pytest.raises(PngError, match="palette"):
            im.decode_png(build_png(2, 2, 8, 3, self._rgb_rows(2, 2)))

    def test_rgba_rejected(self):
        with pytest.raises(PngError, match="rgba"):
            im.decode_png(build_png(2, 2, 8, 6, self._rgb_rows(2, 2)))

    def test_interlace_rejected(self):
        with pytest.raises(PngError, match="interlaced"):
            im.decode_png(build_png(2, 2, 8, 2, self._rgb_rows(2, 2), interlace=1))

    def test_missing_signature_rejected(self):
        with pytest.raises(PngError, match="signature"):
            im.decode_png(b"not a png at all")

    def test_file_signature_checked_before_its_length(self, tmp_path, monkeypatch):
        path = tmp_path / "x.png"
        path.write_bytes(b"GIF89a" + bytes(94))
        monkeypatch.setattr(im, "MAX_PNG_BYTES", 16)
        with pytest.raises(PngError, match="signature"):
            im.load_png(path)

    def test_crc_corruption_rejected(self, tmp_path):
        buf = ImageBuffer(pixels=np.full((4, 4, 3), 200, np.uint8))
        blob = bytearray(im.encode_png(buf))
        idat = blob.find(b"IDAT")
        blob[idat + 6] ^= 0xFF  # flip a byte inside the IDAT payload
        with pytest.raises(PngError, match="CRC"):
            im.decode_png(bytes(blob))

    def test_truncation_rejected(self):
        buf = ImageBuffer(pixels=np.full((4, 4, 3), 90, np.uint8))
        blob = im.encode_png(buf)
        with pytest.raises(PngError):
            im.decode_png(blob[: len(blob) - 6])

    def test_unknown_filter_type_rejected(self):
        rows = bytearray()
        for _ in range(2):
            rows.append(9)
            rows += bytes(6)
        with pytest.raises(PngError, match="filter type"):
            im.decode_png(build_png(2, 2, 8, 2, bytes(rows)))

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (4097, 4096)])
    def test_size_outside_limits_rejected(self, width, height):
        with pytest.raises(PngError, match="image size"):
            im.decode_png(build_png(width, height, 8, 2, b""))

    def test_truncated_stream_rejected(self):
        stream = zlib.compress(self._rgb_rows(2, 2))[:-3]
        with pytest.raises(PngError, match="truncated"):
            im.decode_png(build_png(2, 2, 8, 2, None, stream=stream))

    def test_inflation_bomb_rejected_in_bounded_memory(self):
        # an 8x8 RGB header over 64 MiB of zeros compressed to about 65 KB
        packer = zlib.compressobj(9)
        stream = b"".join(packer.compress(bytes(1 << 20)) for _ in range(64)) + packer.flush()
        blob = build_png(8, 8, 8, 2, None, stream=stream)
        tracemalloc.start()
        try:
            with pytest.raises(PngError, match="inflates past"):
                im.decode_png(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            im.load_png(tmp_path / "absent.png")


class TestPngSize:
    def test_size_of_a_saved_image(self, tmp_path):
        path = tmp_path / "x.png"
        im.save_png(ImageBuffer(pixels=np.zeros((7, 11, 3), np.uint8)), path)
        assert im.png_size(path) == (11, 7)

    def test_signature_and_header_suffice(self, tmp_path):
        # the first 33 bytes, then junk where the image data would be
        blob = build_png(4097, 4095, 8, 0, b"")[:33]
        path = tmp_path / "x.png"
        path.write_bytes(blob)
        assert im.png_size(path) == (4097, 4095)
        path.write_bytes(blob + b"junk" * 100)
        assert im.png_size(path) == (4097, 4095)

    @pytest.mark.parametrize("blob, match", [
        (b"GIF89a" + bytes(27), "signature"),
        (SIG + chunk(b"IEND", b""), "no IHDR"),
        (SIG + chunk(b"IHDR", bytes(12)), "IHDR length 12"),
        (build_png(2, 2, 8, 2, b"")[:30], "truncated"),
        (build_png(2, 2, 8, 2, b"")[:29] + b"\0\0\0\0", "CRC"),
        (build_png(2, 2, 16, 2, b""), "bit depth"),
        (build_png(4097, 4096, 8, 2, b""), "image size"),
    ], ids=["signature", "first_chunk", "length", "truncated", "crc", "bit_depth", "size"])
    def test_bad_header_raises_as_decode_png_does(self, tmp_path, blob, match):
        path = tmp_path / "x.png"
        path.write_bytes(blob)
        with pytest.raises(PngError, match=match):
            im.png_size(path)
        with pytest.raises(PngError, match=match):
            im.decode_png(blob)


class TestBicubicDownsample:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 3, 8, 12), 0.37, np.float32))
        out = im.bicubic_downsample(x, 4)
        assert out.shape == (1, 3, 2, 3)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-6)

    def test_linear_ramp_preserved_in_interior(self):
        w = 32
        ramp = np.broadcast_to(np.linspace(0.0, 1.0, w, dtype=np.float32), (1, 1, 8, w)).copy()
        out = im.bicubic_downsample(Tensor(ramp), 2)
        # interior of a downsampled linear ramp stays linear at half-pixel centers
        want = (np.arange(w // 2) * 2 + 0.5) / (w - 1)
        np.testing.assert_allclose(out.data[0, 0, 2, 2:-2], want[2:-2], atol=1e-3)

    def test_factor_one_is_identity(self):
        x = Tensor(np.random.default_rng(3).uniform(size=(1, 3, 6, 6)).astype(np.float32))
        np.testing.assert_array_equal(im.bicubic_downsample(x, 1).data, x.data)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ShapeError):
            im.bicubic_downsample(Tensor(np.zeros((1, 3, 7, 8), np.float32)), 2)

    def test_factor_zero_rejected(self):
        with pytest.raises(ShapeError, match="factor must be >= 1"):
            im.bicubic_downsample(Tensor(np.zeros((1, 3, 4, 4), np.float32)), 0)
