"""Property-based fuzzing of the two binary readers and the config reader.

Valid PNG and weight-file bytes are mutated field by field (chunk lengths
and CRCs, IHDR fields, filter bytes, the zlib stream, header words, name
lengths, ranks, dims) and by raw byte edits and truncation.  Whatever the
mutation, ``decode_png`` either decodes or raises ``PngError``, and
``load_weights`` either loads or raises ``WeightFormatError``: no other
exception escapes.  ``png_size`` raises only ``PngError`` too, and reads
the size of every image ``decode_png`` decodes.  A valid config file is
mutated line by line (keys, values, separators, comments, branch specs,
duplicated and unknown keys, over-long digit strings, non-UTF-8 bytes):
``parse_config_file`` either parses it or raises ``UsageError``, and
``stereosr overfit`` then exits 1 with one ``error:`` line.

The runs are reproducible: examples come from a fixed seed
(``derandomize=True``) and no example database is read or written.
"""

import contextlib
import functools
import io
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stereosr import cli
from stereosr.blocks import LskaBranch
from stereosr.images import ImageBuffer, PngError, decode_png, png_size, save_png
from stereosr.model import ModelConfig, WeightFormatError, init_model, load_weights, save_weights

FUZZ = settings(derandomize=True, database=None, max_examples=500, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# integers near the edges that readers get wrong, plus anything in 32 bits
U32 = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 8, 255, 256, 2**16 - 1, 2**16, 2**24, 2**24 + 1,
                     2**31 - 1, 2**31, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)
# (kind, which field or position, new value); ``which`` is taken modulo the
# number of candidates, so one strategy serves every base file
EDIT = st.tuples(st.integers(0, 2**16), U32)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

def _chunk(ctype: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(
        ">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)


def _scanlines(width: int, height: int, channels: int, seed: int) -> bytearray:
    """Rows of random bytes, each led by a filter type from 0 to 4."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, size=(height, width * channels + 1), dtype=np.uint8)
    rows[:, 0] = np.arange(height) % 5
    return bytearray(rows.tobytes())


# (IHDR fields, decompressed scanlines) of small RGB and grayscale images
PNG_BASES = [
    ([6, 5, 8, 2, 0, 0, 0], _scanlines(6, 5, 3, 0)),
    ([7, 4, 8, 0, 0, 0, 0], _scanlines(7, 4, 1, 1)),
]
IHDR_FORMAT = ">IIBBBBB"
IHDR_LIMITS = [2**32 - 1, 2**32 - 1, 255, 255, 255, 255, 255]

PNG_EDITS = st.lists(st.tuples(
    st.sampled_from(["ihdr", "scanline", "zlib", "length", "crc", "drop_chunk",
                     "repeat_chunk", "byte"]),
    EDIT,
), min_size=1, max_size=3)


def _mutated_png(base: int, edits, cut) -> bytes:
    fields, raw = PNG_BASES[base]
    fields, raw = list(fields), bytearray(raw)
    idat_edits, blob_edits = [], []
    for kind, (which, value) in edits:
        if kind == "ihdr":
            i = which % len(fields)
            fields[i] = value % (IHDR_LIMITS[i] + 1)
        elif kind == "scanline":
            raw[which % len(raw)] = value % 256
        else:
            (idat_edits if kind == "zlib" else blob_edits).append((kind, which, value))
    idat = bytearray(zlib.compress(bytes(raw)))
    for _, which, value in idat_edits:
        idat[which % len(idat)] = value % 256
    chunks = [(b"IHDR", struct.pack(IHDR_FORMAT, *fields)), (b"IDAT", bytes(idat)),
              (b"IEND", b"")]
    for kind, which, _ in blob_edits:
        if kind == "drop_chunk":
            del chunks[which % len(chunks)]
        elif kind == "repeat_chunk" and chunks:
            chunks.insert(which % len(chunks), chunks[which % len(chunks)])
    encoded = [bytearray(_chunk(ctype, data)) for ctype, data in chunks]
    for kind, which, value in blob_edits:
        if encoded and kind in ("length", "crc"):
            chunk = encoded[which % len(encoded)]
            at = 0 if kind == "length" else len(chunk) - 4
            chunk[at:at + 4] = struct.pack(">I", value)
    blob = bytearray(b"\x89PNG\r\n\x1a\n" + b"".join(encoded))
    for kind, which, value in blob_edits:
        if kind == "byte":
            blob[which % len(blob)] = value % 256
    return bytes(blob[:cut])


@FUZZ
@given(base=st.integers(0, len(PNG_BASES) - 1), edits=PNG_EDITS,
       cut=st.one_of(st.none(), st.integers(0, 400)))
def test_mutated_png_raises_only_png_error(base, edits, cut):
    blob = _mutated_png(base, edits, cut)
    try:
        decode_png(blob)
    except PngError:
        pass


@pytest.fixture(scope="module")
def png_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "image.png"


@FUZZ
@given(base=st.integers(0, len(PNG_BASES) - 1), edits=PNG_EDITS,
       cut=st.one_of(st.none(), st.integers(0, 400)))
def test_png_size_agrees_with_decode_png(png_path, base, edits, cut):
    # a header png_size rejects fails decode_png too, and the size it reads
    # is the size decode_png decodes
    blob = _mutated_png(base, edits, cut)
    png_path.write_bytes(blob)
    try:
        size = png_size(png_path)
    except PngError:
        size = None
    try:
        pixels = decode_png(blob).pixels
    except PngError:
        return
    assert size == (pixels.shape[1], pixels.shape[0])


def test_unmutated_png_bases_decode():
    for base in range(len(PNG_BASES)):
        assert decode_png(_mutated_png(base, [], None)).pixels.shape[2] == 3


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def _weight_fields(blob: bytes):
    """Offsets of the header words and, per tensor, of its name length, rank
    byte and first dim, in a valid weight file."""
    (branches,) = struct.unpack_from("<I", blob, 20)
    count_at = 24 + 12 * branches + 8
    words = list(range(4, count_at + 4, 4))
    (count,) = struct.unpack_from("<I", blob, count_at)
    tensors, pos = [], count_at + 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        rank_at = pos + 2 + name_len
        rank = blob[rank_at]
        dims = struct.unpack_from(f"<{rank}I", blob, rank_at + 1)
        tensors.append((pos, rank_at, rank_at + 1))
        pos = rank_at + 1 + 4 * rank + 4 * int(np.prod(dims))
    assert pos == len(blob)
    return words, tensors


@functools.lru_cache(maxsize=None)
def _weight_base():
    """Bytes of a valid N=1, C=8 weight file, and their field offsets."""
    cfg = ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.msin")
        save_weights(init_model(cfg, 0), path)
        with open(path, "rb") as fh:
            blob = fh.read()
    return blob, _weight_fields(blob)


@pytest.fixture(scope="module")
def weight_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.msin"


WEIGHT_EDITS = st.lists(st.tuples(
    st.sampled_from(["word", "name_len", "rank", "dims", "byte"]), EDIT,
), min_size=1, max_size=4)


def _mutated_weights(edits, cut) -> bytes:
    blob, (words, tensors) = _weight_base()
    out = bytearray(blob)
    for kind, (which, value) in edits:
        name_len_at, rank_at, dims_at = tensors[which % len(tensors)]
        if kind == "word":
            at = words[which % len(words)]
            out[at:at + 4] = struct.pack("<I", value)
        elif kind == "name_len":
            out[name_len_at:name_len_at + 2] = struct.pack("<H", value % 2**16)
        elif kind == "rank":
            out[rank_at] = value % 256
        elif kind == "dims":
            # every dim of the tensor to one value, low dims to 1 when the
            # value is large, so wrapped products appear
            dims = [value, value, max(1, value >> 29), 1] if value > 2**20 else [value] * 4
            out[dims_at:dims_at + 16] = struct.pack("<4I", *dims)
        else:
            out[which % len(out)] = value % 256
    return bytes(out[:cut])


@FUZZ
@given(edits=WEIGHT_EDITS, cut=st.one_of(st.none(), st.integers(0, 3000)))
# the first tensor's dims (2^31, 2^31, 4, 1): a 64-bit element count wraps to 0
@example(edits=[("dims", (0, 2**31))], cut=None)
def test_mutated_weight_file_raises_only_weight_format_error(weight_path, edits, cut):
    weight_path.write_bytes(_mutated_weights(edits, cut))
    try:
        load_weights(weight_path)
    except WeightFormatError:
        pass


def test_unmutated_weight_file_loads(weight_path):
    weight_path.write_bytes(_mutated_weights([], None))
    assert len(load_weights(weight_path)) == len(_weight_base()[1][1])


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

CONFIG_BASE = [
    "# a valid config", "n_blocks = 2", "width = 16", "scale = 2", "sinkhorn_iters = 5",
    "share_view_weights = false", "single_interaction = true", "global_residual = true",
    "lska_branches = 3:3:1, 5:7:2",
]
# texts near the edges of what the reader accepts, plus arbitrary text
CONFIG_TEXT = st.one_of(
    st.sampled_from(["", " ", "0", "-1", "1", "256", "257", "2**31", "1e3", "0x10", "1_0",
                     "+4", "\u0663", "nan", "true", "FALSE", "yes", "3:3:1", "3:3", "3:3:1,",
                     ",", "3:3:1:1", "-3:3:1", "3:3:0", "4:3:1", "127:127:1", "99:99:99",
                     "9" * 4301, "n_blocks", "lska_branches", "=", "#", "\t", "\r"]),
    st.text(max_size=12),
    st.integers(-2, 2**70).map(str),
)
# a branch spec: fields and branches of any count, small and large integers
BRANCH_SPEC = st.lists(
    st.lists(st.one_of(st.integers(-2, 13), st.integers(-2, 2**70)).map(str),
             min_size=0, max_size=4).map(":".join),
    min_size=0, max_size=10).map(", ".join)
# 0 to 12 valid branches, around the bound of 8
BRANCH_COUNT = st.integers(0, 12).map(lambda k: ", ".join(["3:3:1"] * k))
# the integer settings (lines 1 to 4 of the base) near and past their bounds
SETTING = st.tuples(st.just("value"), st.integers(1, 4), st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "5", "255", "256", "257", "1000", "1001"]),
    st.integers(-2, 2**70).map(str)))
CONFIG_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["key", "value", "separator", "comment", "insert"]),
              st.integers(0, 2**16), CONFIG_TEXT),
    st.tuples(st.just("branches"), st.just(0), BRANCH_SPEC | BRANCH_COUNT),
    SETTING,
    st.tuples(st.sampled_from(["duplicate", "drop"]), st.integers(0, 2**16), st.just("")),
    st.tuples(st.just("byte"), st.integers(0, 2**16), st.integers(0, 255)),
), min_size=1, max_size=4)


def _mutated_config(edits) -> bytes:
    lines = list(CONFIG_BASE)
    byte_edits = []
    for kind, which, new in edits:
        i = which % len(lines) if lines else 0
        if kind == "byte":
            byte_edits.append((which, new))
        elif kind == "branches":
            lines = [line for line in lines if not line.startswith("lska_branches")]
            lines.append("lska_branches = " + new)
        elif kind == "insert":
            lines.insert(i, new)
        elif not lines:
            continue
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "drop":
            del lines[i]
        elif kind == "comment":
            at = which % (len(lines[i]) + 1)
            lines[i] = lines[i][:at] + "#" + new + lines[i][at:]
        else:
            key, sep, value = lines[i].partition("=")
            if kind == "key":
                key = new
            elif kind == "value":
                value = " " + new
            else:
                sep = new
            lines[i] = key + sep + value
    blob = bytearray("\n".join(lines).encode("utf-8"))
    for which, value in byte_edits:
        if blob:
            blob[which % len(blob)] = value
    return bytes(blob)


@pytest.fixture(scope="module")
def config_run(tmp_path_factory):
    """A config path and the argv of an `overfit` run that reads it."""
    tmp = tmp_path_factory.mktemp("config")
    views = []
    for name in ("left.png", "right.png"):
        views.append(str(tmp / name))
        save_png(ImageBuffer(pixels=np.full((8, 8, 3), 128, np.uint8)), views[-1])
    config = tmp / "model.cfg"
    return config, ["overfit", "--left", views[0], "--right", views[1], "--config", str(config),
                    "--steps", "0", "--out", str(tmp / "fit.msin")]


@FUZZ
@given(edits=CONFIG_EDITS)
@example(edits=[("value", 1, "9" * 4301)])
@example(edits=[("byte", 3, 0xFF)])
def test_mutated_config_raises_only_usage_error(config_run, edits):
    config, argv = config_run
    config.write_bytes(_mutated_config(edits))
    try:
        cli.parse_config_file(config)
    except cli.UsageError:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv) == cli.EXIT_USAGE
        lines = err.getvalue().splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[:1]
        assert "Traceback" not in err.getvalue()


def test_unmutated_config_parses(config_run):
    config, _ = config_run
    config.write_bytes(_mutated_config([]))
    assert cli.parse_config_file(config).n_blocks == 2
