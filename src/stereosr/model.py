"""Network assembly: shallow conv, stacked blocks with cross-view stages,
sub-pixel reconstruction head, and weight-store (de)serialization."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import blocks as _blocks
from . import transport as _transport
from .blocks import UNIFORM, LskaBranch, apply_conv, conv_rows, default_branches, mscab_layout
from .tensor import ShapeError, Tensor, add, bilinear_upsample, pixel_shuffle
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


def check_cost_volume(h: int, w: int, stages: int = 1, batch: int = 1) -> None:
    """Reject a low-resolution size whose cost volumes, h * w * w elements
    for each of ``batch`` pairs and ``stages`` cross-view stages held at
    once, add up to more than MAX_COST_VOLUME."""
    total = batch * stages * h * w * w
    if total > MAX_COST_VOLUME:
        counts = [f"{k} {what}" for k, what in ((batch, "pairs"), (stages, "cross-view stages"))
                  if k > 1]
        held = f", {total} for {' and '.join(counts)}" if counts else ""
        raise ShapeError(
            f"low-resolution size {h}x{w} needs a cost volume of h*w*w = {h * w * w} "
            f"elements{held}, above the bound of {MAX_COST_VOLUME}"
        )


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
        left, right = self.left, self.right
        if left.shape != right.shape:
            raise ShapeError(
                f"left view is {left.h}x{left.w} but right view is {right.h}x{right.w}; "
                f"stereo views must share a shape: {left.shape} vs {right.shape}"
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

def _views(cfg: ModelConfig) -> tuple[str, str]:
    """Name prefixes of the left and the right view's weights."""
    return ("", "") if cfg.share_view_weights else ("left.", "right.")


def layout(cfg: ModelConfig):
    """Yield every parameter of the network as a (name, shape, init kind)
    row, in store order, which is also the seeded draw order: per view the
    shallow conv, the blocks and the head, then the cross-view stages."""
    block = mscab_layout(cfg.width, cfg.lska_branches)
    for view in dict.fromkeys(_views(cfg)):   # once when the views share weights
        yield from conv_rows(f"{view}intro", (cfg.width, 3, 3, 3))
        for i in range(cfg.n_blocks):
            for name, shape, init in block:
                yield f"{view}block.{i}.{name}", shape, init
        yield from conv_rows(f"{view}head", (3 * cfg.scale * cfg.scale, cfg.width, 3, 3))
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
    size is exactly (scale*h, scale*w).  An input whose cost volumes, one per
    pair of the batch, are together over MAX_COST_VOLUME raises ShapeError
    before any convolution runs.  ``cfg``, when given, must be the store's
    own config; any other raises ValueError.
    """
    if cfg is None:
        cfg = store.config
    elif cfg != store.config:
        raise ValueError(f"config {cfg} is not the weight store's {store.config}")
    if pair.left.c != 3:
        raise ShapeError(f"expected 3-channel input images, got {pair.left.c} channels")
    check_cost_volume(pair.left.h, pair.left.w, batch=pair.left.n)

    # each step runs on the left view, then the right, and replaces that
    # view's map at once: untaped, the old map is freed before the other
    # view's step allocates
    xs = [pair.left, pair.right]
    views = list(enumerate(_views(cfg)))   # (index, weight name prefix)
    for v, prefix in views:
        xs[v] = apply_conv(xs[v], store, f"{prefix}intro")

    block = mscab_layout(cfg.width, cfg.lska_branches)
    deam = deam_layout(cfg.width)
    deam_at = set(cfg.deam_stages())
    sk = SinkhornConfig(iters=cfg.sinkhorn_iters)
    for i in range(cfg.n_blocks):
        for v, prefix in views:
            params = _params(store, f"{prefix}block.{i}.", block)
            xs[v] = _blocks.mscab_forward(xs[v], params, cfg.lska_branches)
        if i in deam_at:
            *xs, _ = _transport.deam_forward(*xs, _params(store, f"deam.{i}.", deam), sk)

    for v, prefix in views:
        xs[v] = pixel_shuffle(apply_conv(xs[v], store, f"{prefix}head"), cfg.scale)
    if cfg.global_residual:
        for v, x in enumerate((pair.left, pair.right)):
            xs[v] = add(xs[v], bilinear_upsample(x, cfg.scale))
    return StereoPair(*xs)


# ---------------------------------------------------------------------------
# Serialization (little-endian, no padding)
#
#   magic "MSIN" | _HEADER: version, n_blocks, width, scale, branch_count
#   | per branch _BRANCH: base_k, dilated_k, dilation
#   | _TAIL: sinkhorn_iters, flags (bit i: _FLAG_FIELDS[i]), tensor_count
#   | per tensor, _record_head: name_len u16, utf-8 name, _SHAPE: rank u8
#     (always 4), dims u32 x 4; then the raw float32 values
#
# All header words are u32.  A loader checks each record's name, rank and
# dims against the config's layout before it reads the values, so no read
# asks for more than one layout tensor or one name.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<5I")
_BRANCH = struct.Struct("<3I")
_TAIL = struct.Struct("<3I")
_NAME_LEN = struct.Struct("<H")
_SHAPE = struct.Struct("<B4I")


def _record_head(name: str, shape: tuple) -> bytes:
    """The bytes of a tensor record before its values."""
    encoded = name.encode("utf-8")
    return _NAME_LEN.pack(len(encoded)) + encoded + _SHAPE.pack(len(shape), *shape)


def save_weights(store: WeightStore, path) -> None:
    """Write the store to ``path`` in the self-describing binary format."""
    cfg = store.config
    flags = sum(bool(getattr(cfg, name)) << i for i, name in enumerate(_FLAG_FIELDS))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(FORMAT_VERSION, cfg.n_blocks, cfg.width, cfg.scale,
                              len(cfg.lska_branches)))
        for br in cfg.lska_branches:
            fh.write(_BRANCH.pack(br.base_k, br.dilated_k, br.dilation))
        fh.write(_TAIL.pack(cfg.sinkhorn_iters, flags, len(store)))
        for name, t in store.items():
            fh.write(_record_head(name, t.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f4"))


def load_weights(path) -> WeightStore:
    """Read a weight file, validating magic, version, flags and config, then
    each tensor's name, rank and dims against the config's layout before
    its values.  Records may come in any order; the store is in layout
    order."""
    offset = 0

    def take(count: int) -> bytes:
        nonlocal offset
        chunk = fh.read(count)
        if len(chunk) < count:
            raise WeightFormatError(
                f"truncated weight file: needs {count} bytes at offset {offset}, "
                f"only {len(chunk)} remain")
        offset += count
        return chunk

    def unpack(fmt: struct.Struct) -> tuple:
        return fmt.unpack(take(fmt.size))

    with open(path, "rb") as fh:
        if take(len(MAGIC)) != MAGIC:
            raise WeightFormatError(f"bad magic bytes; not a weight file: {path}")
        version, *sizes, branch_count = unpack(_HEADER)   # sizes: n_blocks, width, scale
        if version != FORMAT_VERSION:
            raise WeightFormatError(
                f"unsupported format version {version} (expected {FORMAT_VERSION})")
        if branch_count > MAX_BRANCHES:
            raise WeightFormatError(
                f"invalid config block: branch_count must be at most {MAX_BRANCHES}, "
                f"got {branch_count}"
            )
        branches = [unpack(_BRANCH) for _ in range(branch_count)]
        sinkhorn_iters, flags, tensor_count = unpack(_TAIL)
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
        shapes = {name: shape for name, shape, _ in layout(cfg)}
        if tensor_count != len(shapes):
            raise WeightFormatError(
                f"the file holds {tensor_count} tensors, but its config's layout has "
                f"{len(shapes)}")

        # the right count of layout names, none twice, is every layout tensor
        store = WeightStore(cfg)
        for _ in range(tensor_count):
            (name_len,) = unpack(_NAME_LEN)
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise WeightFormatError(f"tensor name is not valid UTF-8: {e}") from e
            if name not in shapes:
                raise WeightFormatError(f"tensor {name!r} is not in the config's layout")
            rank, *dims = unpack(_SHAPE)
            if rank != 4:
                raise WeightFormatError(f"tensor {name!r}: rank {rank}, but tensors are rank-4")
            shape = tuple(dims)
            if shape != shapes[name]:
                raise WeightFormatError(
                    f"tensor {name!r} has shape {shape}, the config needs {shapes[name]}")
            raw = take(4 * math.prod(shape))
            store.add(name, Tensor(np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)))
        if fh.read(1):
            raise WeightFormatError("trailing bytes after the last tensor")
    return WeightStore(cfg, ((name, store[name]) for name in shapes))
