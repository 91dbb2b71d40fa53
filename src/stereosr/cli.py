"""Command-line interface.

Exit codes are a stable contract for scripts: 0 success, 1 usage error,
2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import io
import os
import sys

import numpy as np

from .images import (MAX_PIXELS, ImageBuffer, PngError, bicubic_downsample, load_png, png_size,
                     save_png)
from .metrics import psnr, ssim
from .model import (
    ModelConfig,
    StereoPair,
    WeightFormatError,
    check_cost_volume,
    forward,
    load_weights,
    save_weights,
)
from .blocks import LskaBranch
from .tensor import ShapeError, Tensor
from .train import TrainingDivergedError, format_log_line, overfit
from .transport import (
    MAX_SINKHORN_ITERS,
    CostVolume,
    NonConvergenceError,
    SinkhornConfig,
    sinkhorn,
    sinkhorn_oracle,
)
from .verify import gradient_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# sinkhorn-demo prints the whole width x width plan and solves it twice
MAX_DEMO_WIDTH = 1024


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config files: one `key = value` per line, '#' comments, unknown keys rejected
# ---------------------------------------------------------------------------

# Longest config file read: the keys and their values fit in a few hundred bytes.
MAX_CONFIG_BYTES = 64 * 1024

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# the keys are ModelConfig's fields; an integer or boolean default gives
# the field's type
_KEY_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ModelConfig)}
_INT_KEYS = tuple(key for key, t in _KEY_TYPES.items() if t is int)
_BOOL_KEYS = tuple(key for key, t in _KEY_TYPES.items() if t is bool)


def _parse_branches(text: str) -> tuple[LskaBranch, ...]:
    branches = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise UsageError(
                f"bad branch spec {part.strip()!r}; expected base_k:dilated_k:dilation"
            )
        try:
            branches.append(LskaBranch(*(int(f) for f in fields)))
        except ValueError as e:
            raise UsageError(f"bad branch spec {part.strip()!r}: {e}") from e
    return tuple(branches)


def parse_config_file(path) -> ModelConfig:
    """Read a ModelConfig from `key = value` lines; omitted keys keep their
    defaults, unknown keys are rejected."""
    values = {}
    with open(path, "rb") as fh:
        blob = fh.read(MAX_CONFIG_BYTES + 1)
        if len(blob) > MAX_CONFIG_BYTES:
            raise UsageError(f"{path}: config file is longer than {MAX_CONFIG_BYTES} bytes")
        try:
            lines = io.StringIO(blob.decode("utf-8"), newline=None).readlines()
        except UnicodeDecodeError as e:
            raise UsageError(f"{path}: config file is not UTF-8 text: {e}") from e
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in values:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            if key in _INT_KEYS:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {key} needs an integer, got {value!r}")
            elif key in _BOOL_KEYS:
                if value.lower() not in _BOOL_VALUES:
                    raise UsageError(f"{path}:{lineno}: {key} needs true/false, got {value!r}")
                values[key] = _BOOL_VALUES[value.lower()]
            elif key == "lska_branches":
                values[key] = _parse_branches(value)
            else:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    try:
        return ModelConfig(**values)
    except ValueError as e:
        raise UsageError(f"{path}: invalid config: {e}") from e


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _header_shape(path) -> tuple[int, int, int, int]:
    # the (1, 3, h, w) tensor shape the PNG file at path decodes to
    width, height = png_size(path)
    return 1, 3, height, width


def _pair_size(left_path, right_path) -> tuple[int, int]:
    """The (h, w) both views decode to, from their PNG headers alone.  Views
    of different sizes fail StereoPair's own check, made on zero-stride
    stand-ins, before either file is inflated."""
    left, right = (Tensor(np.broadcast_to(np.float32(0), _header_shape(p)))
                   for p in (left_path, right_path))
    StereoPair(left=left, right=right)
    return left.h, left.w


def _load_pair(left_path, right_path) -> StereoPair:
    return StereoPair(left=load_png(left_path).to_tensor(), right=load_png(right_path).to_tensor())


def _split(name: str) -> tuple[str, str]:
    """os.path.split, past one trailing separator, as os.makedirs splits."""
    head, tail = os.path.split(name)
    return os.path.split(head) if not tail else (head, tail)


def _check_out_dir(name: str) -> None:
    """Raise the error os.makedirs(name, exist_ok=True) gives when a file
    is in its way, without creating anything: at ``name`` itself, or at
    its nearest existing ancestor, which makedirs' first mkdir fails under."""
    # mkdir sees past a trailing separator to the entry that is there
    if os.path.lexists(name.rstrip(os.sep) or name) and not os.path.isdir(name):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), name)
    child, (head, tail) = name, _split(name)
    while head and tail and not os.path.exists(head):
        child, (head, tail) = head, _split(head)
    if head and tail and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), child)


def _cmd_infer(args) -> int:
    # forward's own bound on its one cost volume, checked before anything
    # larger than the two headers is read
    h, w = _pair_size(args.left, args.right)
    check_cost_volume(h, w)
    store = load_weights(args.weights)
    cfg = store.config
    if args.scale is not None and args.scale != cfg.scale:
        raise UsageError(
            f"--scale {args.scale} does not match the weight file's scale {cfg.scale}"
        )
    # an output that load_png would refuse to read back is not written
    if cfg.scale**2 * h * w > MAX_PIXELS:
        raise ShapeError(
            f"input size {h}x{w} at scale {cfg.scale} gives {cfg.scale * h}x{cfg.scale * w} "
            f"outputs, above the bound of {MAX_PIXELS} pixels"
        )
    _check_out_dir(args.out_dir)
    sr = forward(_load_pair(args.left, args.right), store, cfg)
    # quantize both views first: a non-finite output writes neither
    views = {"left_sr.png": ImageBuffer.from_tensor(sr.left),
             "right_sr.png": ImageBuffer.from_tensor(sr.right)}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, image in views.items():
        out_path = os.path.join(args.out_dir, name)
        save_png(image, out_path)
        print(out_path)
    return EXIT_OK


def _crop_to_multiple(t: Tensor, r: int) -> Tensor:
    h = (t.h // r) * r
    w = (t.w // r) * r
    if h < r or w < r:
        raise UsageError(f"image {t.h}x{t.w} too small for scale {r}")
    if (h, w) == (t.h, t.w):
        return t
    return Tensor(np.ascontiguousarray(t.data[:, :, :h, :w]))


def _cmd_overfit(args) -> int:
    cfg = parse_config_file(args.config)
    h, w = _pair_size(args.left, args.right)
    # a taped step holds every stage's volumes until the backward; checked on
    # the cropped size before decoding and the downsampling, whose dense
    # matrices grow with the input
    check_cost_volume(h // cfg.scale, w // cfg.scale, len(cfg.deam_stages()))
    if os.path.isdir(args.out):   # save_weights' error
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    hr = _load_pair(args.left, args.right)
    hr = StereoPair(*(_crop_to_multiple(v, cfg.scale) for v in (hr.left, hr.right)))
    lr = StereoPair(*(bicubic_downsample(v, cfg.scale) for v in (hr.left, hr.right)))
    log_path = args.out + ".log"
    with open(log_path, "w", buffering=1) as log_file:   # a killed run keeps its lines
        def on_step(entry):
            log_file.write(format_log_line(entry) + "\n")
            if entry.step % 100 == 0 or entry.step == args.steps - 1:
                print(format_log_line(entry))

        store = overfit(lr, hr, cfg, steps=args.steps, seed=args.seed, log_fn=on_step)
    save_weights(store, args.out)
    print(f"weights: {args.out}")
    print(f"log: {log_path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradient_suite(args.seed)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<22} max_rel_err {r.max_rel_err:.3e}  tol {r.tolerance:.0e}  {status}")
        all_ok &= r.passed
    if not all_ok:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_sinkhorn_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    scores = CostVolume(values=Tensor(rng.normal(size=(1, 1, args.width, args.width)).astype(np.float32)))
    plan = sinkhorn(scores, SinkhornConfig(iters=args.iters))
    matrix = plan.values.data[0, 0]
    print(f"transport plan ({args.width}x{args.width}, {args.iters} iterations):")
    for row in matrix:
        print("  " + " ".join(f"{v:.4f}" for v in row))
    row_violation = float(np.abs(matrix.sum(axis=1) - 1.0).max())
    col_violation = float(np.abs(matrix.sum(axis=0) - 1.0).max())
    oracle = sinkhorn_oracle(scores)
    gap = float(np.abs(plan.values.data - oracle.values.data).max())
    print(f"max row-sum violation: {row_violation:.3e}")
    print(f"max col-sum violation: {col_violation:.3e}")
    print(f"max gap vs converged oracle: {gap:.3e}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    ref_shape, test_shape = _header_shape(args.ref), _header_shape(args.test)
    if ref_shape != test_shape:
        # psnr's check, made on the headers before either file is inflated
        raise ShapeError(f"shape mismatch: {ref_shape} vs {test_shape}")
    ref = load_png(args.ref).to_tensor()
    test = load_png(args.test).to_tensor()
    # both before either is printed: a failed SSIM prints nothing
    psnr_db, ssim_score = psnr(ref, test), ssim(ref, test)
    print(f"PSNR {psnr_db:.2f}")
    print(f"SSIM {ssim_score:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer in [minimum, maximum] (no upper end if None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "integer"   # argparse names the type in its error message
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="stereosr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="super-resolve a stereo pair")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scale", type=int, default=None,
                   help="expected scale; must match the weight file")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("overfit", help="fit a model to one pair (inputs are "
                                       "high-resolution; low-resolution is synthesized)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=_count(0), required=True)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_overfit)

    p = sub.add_parser("gradcheck", help="finite-difference check of every "
                                         "primitive and a tiny end-to-end model")
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("sinkhorn-demo", help="print a random transport plan and "
                                             "its marginal violations")
    p.add_argument("--width", type=_count(1, MAX_DEMO_WIDTH), default=8)
    p.add_argument("--iters", type=_count(1, MAX_SINKHORN_ITERS), default=10)
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=_cmd_sinkhorn_demo)

    p = sub.add_parser("metrics", help="PSNR and SSIM between two images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ShapeError) as e:   # before ValueError, ShapeError's base
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse --help
        return EXIT_OK if not e.code else EXIT_USAGE
    except (OSError, PngError, WeightFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:   # an allocation failed; numpy's says what it asked for
        print(f"error: out of memory{': ' + str(e) if str(e) else ''}", file=sys.stderr)
        return EXIT_IO
    except (NonConvergenceError, TrainingDivergedError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
