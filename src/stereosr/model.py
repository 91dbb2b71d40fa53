"""Network assembly: shallow conv, stacked blocks with cross-view stages,
sub-pixel reconstruction head, and weight-store (de)serialization."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import blocks as _blocks
from . import transport as _transport
from .blocks import UNIFORM, LskaBranch, apply_conv, conv_rows, default_branches, mscab_layout
from .tensor import ConvSpec, ShapeError, Tensor, add, bilinear_upsample, pixel_shuffle
from .transport import MAX_SINKHORN_ITERS, SinkhornConfig, deam_layout

MAGIC = b"MSIN"
FORMAT_VERSION = 1

# The boolean ModelConfig fields, in the order of their bits in a weight
# file's flags word.
_FLAG_FIELDS = ("share_view_weights", "single_interaction", "global_residual")

# Size caps.  At both caps the default branches give 209,570,864 parameters
# (0.84 GB of float32) with shared view weights and 351,377,504 (1.41 GB)
# with separate ones.  With MAX_BRANCHES branches of the largest kind
# (base_k + dilated_k = 128, e.g. 127:1:1) as well, the counts are
# 340,642,864 (1.36 GB) and 613,521,504 (2.45 GB).
MAX_BLOCKS = 256
MAX_WIDTH = 256
MAX_BRANCHES = 8

# Elements h * w * w of the cross-view cost volume of an h x w low-resolution
# input (one w x w score matrix per row): 128 MiB of float32.  Admits 32x1024
# and 128x512 inputs.
MAX_COST_VOLUME = 2**25


class WeightFormatError(ValueError):
    """A weight file failed validation."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``single_interaction`` keeps only one cross-view stage, after the final
    block, instead of one per block.  ``global_residual`` adds a bilinear
    upsample of the input to the reconstruction.
    """

    n_blocks: int = 32
    width: int = 48
    scale: int = 4
    lska_branches: tuple[LskaBranch, ...] = field(default_factory=default_branches)
    sinkhorn_iters: int = 10
    share_view_weights: bool = True
    single_interaction: bool = False
    global_residual: bool = True

    def __post_init__(self):
        if not 1 <= self.n_blocks <= MAX_BLOCKS:
            raise ValueError(f"n_blocks must be in [1, {MAX_BLOCKS}], got {self.n_blocks}")
        if not 4 <= self.width <= MAX_WIDTH or self.width % 2:
            raise ValueError(f"width must be even and in [4, {MAX_WIDTH}], got {self.width}")
        if self.scale not in (2, 4):
            raise ValueError(f"scale must be 2 or 4, got {self.scale}")
        if not 1 <= len(self.lska_branches) <= MAX_BRANCHES:
            raise ValueError(
                f"lska_branches must hold 1 to {MAX_BRANCHES} branches, "
                f"got {len(self.lska_branches)}"
            )
        if not 1 <= self.sinkhorn_iters <= MAX_SINKHORN_ITERS:
            raise ValueError(
                f"sinkhorn_iters must be in [1, {MAX_SINKHORN_ITERS}], got {self.sinkhorn_iters}"
            )

    def sinkhorn_config(self) -> SinkhornConfig:
        return SinkhornConfig(iters=self.sinkhorn_iters)

    def deam_stages(self) -> tuple[int, ...]:
        """Block indices after which a cross-view stage runs."""
        if self.single_interaction:
            return (self.n_blocks - 1,)
        return tuple(range(self.n_blocks))


@dataclass(frozen=True)
class StereoPair:
    """Left/right tensors kept in lockstep through the network."""

    left: Tensor
    right: Tensor

    def __post_init__(self):
        if self.left.shape != self.right.shape:
            raise ShapeError(
                f"stereo views must share a shape: {self.left.shape} vs {self.right.shape}"
            )


class WeightStore:
    """Ordered map of canonical parameter names to tensors.

    Carries the :class:`ModelConfig` it was built for, so a saved file is
    self-describing.  Names are unique; insertion order is the canonical
    parameter order used by the optimizer and the file format.
    """

    def __init__(self, config: ModelConfig, items=()):
        self.config = config
        self._params: dict[str, Tensor] = {}
        for name, t in items:
            self.add(name, t)

    def add(self, name: str, t: Tensor) -> None:
        if name in self._params:
            raise WeightFormatError(f"duplicate parameter name: {name}")
        self._params[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def items(self):
        return self._params.items()

    @property
    def param_count(self) -> int:
        return sum(t.numel for t in self._params.values())

    def replace_values(self, tensors) -> "WeightStore":
        """Same names and config, new tensors (given in canonical order)."""
        tensors = list(tensors)
        if len(tensors) != len(self._params):
            raise ShapeError(f"expected {len(self._params)} tensors, got {len(tensors)}")
        out = WeightStore(self.config)
        for name, t in zip(self._params, tensors):
            if t.shape != self._params[name].shape:
                raise ShapeError(
                    f"{name}: shape {t.shape} != expected {self._params[name].shape}"
                )
            out.add(name, t)
        return out


# ---------------------------------------------------------------------------
# Parameter layout and initialization
# ---------------------------------------------------------------------------

def _intro(cfg: ModelConfig) -> ConvSpec:
    return ConvSpec(out_ch=cfg.width, in_ch=3, kh=3, kw=3)


def _head(cfg: ModelConfig) -> ConvSpec:
    return ConvSpec(out_ch=3 * cfg.scale * cfg.scale, in_ch=cfg.width, kh=3, kw=3)


def _views(cfg: ModelConfig) -> tuple[str, str]:
    """Name prefixes of the left and the right view's weights."""
    return ("", "") if cfg.share_view_weights else ("left.", "right.")


def layout(cfg: ModelConfig):
    """Yield every parameter of the network as a (name, shape, init kind)
    row, in store order, which is also the seeded draw order: per view the
    shallow conv, the blocks and the head, then the cross-view stages."""
    block = mscab_layout(cfg.width, cfg.lska_branches)
    for view in dict.fromkeys(_views(cfg)):   # once when the views share weights
        yield from conv_rows(f"{view}intro", _intro(cfg))
        for i in range(cfg.n_blocks):
            for name, shape, init in block:
                yield f"{view}block.{i}.{name}", shape, init
        yield from conv_rows(f"{view}head", _head(cfg))
    deam = deam_layout(cfg.width)
    for i in cfg.deam_stages():
        for name, shape, init in deam:
            yield f"deam.{i}.{name}", shape, init


def init_params(rows, rng: np.random.Generator) -> dict[str, Tensor]:
    """Draw the tensors of layout ``rows`` in row order: uniform(-k, k) with
    k = 1/sqrt(fan_in) for uniform rows, the row's constant otherwise."""
    out = {}
    for name, shape, init in rows:
        if init == UNIFORM:
            k = 1.0 / np.sqrt(np.prod(shape[1:]))
            out[name] = Tensor(rng.uniform(-k, k, size=shape).astype(np.float32))
        else:
            out[name] = Tensor(np.full(shape, init, dtype=np.float32))
    return out


def init_model(cfg: ModelConfig, seed: int) -> WeightStore:
    """Deterministic initialization: same seed + config -> identical store.

    Conv weights are uniform(-k, k) with k = 1/sqrt(fan_in); biases and
    norm shifts are zero; norm gains and block residual scales are one; all
    cross-view fusion scales are exactly zero.
    """
    params = init_params(layout(cfg), np.random.default_rng(seed))
    return WeightStore(cfg, params.items())


def _check_layout(store: WeightStore) -> None:
    """Raise WeightFormatError unless ``store`` holds exactly the tensors
    its config's layout lists, with the listed shapes."""
    count = 0
    for name, shape, _ in layout(store.config):
        if name not in store:
            raise WeightFormatError(f"missing tensor {name!r}, which the config needs")
        if store[name].shape != shape:
            raise WeightFormatError(
                f"tensor {name!r} has shape {store[name].shape}, the config needs {shape}"
            )
        count += 1
    if len(store) != count:
        known = {name for name, _, _ in layout(store.config)}
        extra = [name for name in store.names() if name not in known]
        raise WeightFormatError(
            f"{len(extra)} tensor(s) the config does not use, first {extra[0]!r}"
        )


def _params(store: WeightStore, prefix: str, rows) -> dict[str, Tensor]:
    # one module's tensors keyed by their names relative to ``prefix``
    return {name: store[prefix + name] for name, _, _ in rows}


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def forward(pair: StereoPair, store: WeightStore, cfg: ModelConfig | None = None) -> StereoPair:
    """Run the network on a low-resolution pair in [0, 1].

    Per view: shallow 3x3 conv, then the block stack with cross-view stages
    interleaved, then a 3x3 conv + sub-pixel upsample.  With the global
    residual enabled the bilinear upsample of the input is added, so the
    stack only has to produce the high-frequency residue.  Output spatial
    size is exactly (scale*h, scale*w).
    """
    if cfg is None:
        cfg = store.config
    if pair.left.c != 3:
        raise ShapeError(f"expected 3-channel input images, got {pair.left.c} channels")

    left, right = _views(cfg)
    intro, head = _intro(cfg), _head(cfg)
    x_l = apply_conv(pair.left, intro, store, f"{left}intro")
    x_r = apply_conv(pair.right, intro, store, f"{right}intro")

    block = mscab_layout(cfg.width, cfg.lska_branches)
    deam = deam_layout(cfg.width)
    deam_at = set(cfg.deam_stages())
    sk = cfg.sinkhorn_config()
    for i in range(cfg.n_blocks):
        p_l = _params(store, f"{left}block.{i}.", block)
        p_r = _params(store, f"{right}block.{i}.", block)
        x_l = _blocks.mscab_forward(x_l, p_l, cfg.lska_branches)
        x_r = _blocks.mscab_forward(x_r, p_r, cfg.lska_branches)
        if i in deam_at:
            x_l, x_r, _ = _transport.deam_forward(x_l, x_r, _params(store, f"deam.{i}.", deam), sk)

    y_l = pixel_shuffle(apply_conv(x_l, head, store, f"{left}head"), cfg.scale)
    y_r = pixel_shuffle(apply_conv(x_r, head, store, f"{right}head"), cfg.scale)
    if cfg.global_residual:
        y_l = add(y_l, bilinear_upsample(pair.left, cfg.scale))
        y_r = add(y_r, bilinear_upsample(pair.right, cfg.scale))
    return StereoPair(left=y_l, right=y_r)


# ---------------------------------------------------------------------------
# Serialization (little-endian, no padding)
#
#   magic "MSIN" | version u32 | n_blocks u32 | width u32 | scale u32
#   | branch_count u32 | per branch: base_k u32, dilated_k u32, dilation u32
#   | sinkhorn_iters u32 | flags u32 (bit i: _FLAG_FIELDS[i]) | tensor_count u32
#   | per tensor: name_len u16, utf-8 name, rank u8, dims u32 x rank,
#     raw float32 values
# ---------------------------------------------------------------------------

def save_weights(store: WeightStore, path) -> None:
    """Write the store to ``path`` in the self-describing binary format."""
    cfg = store.config
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<IIII", cfg.n_blocks, cfg.width, cfg.scale, len(cfg.lska_branches))
    for br in cfg.lska_branches:
        out += struct.pack("<III", br.base_k, br.dilated_k, br.dilation)
    flags = sum(bool(getattr(cfg, name)) << i for i, name in enumerate(_FLAG_FIELDS))
    out += struct.pack("<II", cfg.sinkhorn_iters, flags)
    out += struct.pack("<I", len(store))
    for name, t in store.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", len(t.shape))
        out += struct.pack(f"<{len(t.shape)}I", *t.shape)
        out += t.data.astype("<f4", copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise WeightFormatError(
                f"truncated weight file: needs {count} bytes at offset {self.pos}, "
                f"only {len(self.blob) - self.pos} remain"
            )
        chunk = self.blob[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_weights(path) -> WeightStore:
    """Read a weight file, validating magic, version, flags, framing, and
    the tensor names and shapes against the config's layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise WeightFormatError(f"bad magic bytes; not a weight file: {path}")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise WeightFormatError(f"unsupported format version {version} (expected {FORMAT_VERSION})")
    *sizes, branch_count = r.unpack("<IIII")   # n_blocks, width, scale
    if branch_count > MAX_BRANCHES:
        raise WeightFormatError(
            f"invalid config block: branch_count must be at most {MAX_BRANCHES}, "
            f"got {branch_count}"
        )
    branches = [r.unpack("<III") for _ in range(branch_count)]
    sinkhorn_iters, flags = r.unpack("<II")
    if flags >> len(_FLAG_FIELDS):
        raise WeightFormatError(f"unknown config flag bits: {flags:#x}")
    try:
        cfg = ModelConfig(
            *sizes, lska_branches=tuple(LskaBranch(*b) for b in branches),
            sinkhorn_iters=sinkhorn_iters,
            **{name: bool(flags >> i & 1) for i, name in enumerate(_FLAG_FIELDS)},
        )
    except ValueError as e:
        raise WeightFormatError(f"invalid config block: {e}") from e

    (tensor_count,) = r.unpack("<I")
    store = WeightStore(cfg)
    for _ in range(tensor_count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise WeightFormatError(f"tensor name is not valid UTF-8: {e}") from e
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}I")
        numel = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = r.take(4 * numel)
        data = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
        try:
            store.add(name, Tensor(data))
        except ShapeError as e:
            raise WeightFormatError(f"tensor {name!r}: {e}") from e
    if r.pos != len(blob):
        raise WeightFormatError(f"{len(blob) - r.pos} trailing bytes after last tensor")
    _check_layout(store)
    return store
