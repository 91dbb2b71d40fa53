"""The four workloads.  Each is a closed loop with one caller: an operation
starts when the previous one has returned.

A workload object makes its inputs from the seed when it is built (not
timed), runs operations under a :class:`Clock` until the clock says stop,
and afterwards checks the program's outputs against ``reference``.  Checks
take their data as arguments, so tests can feed them perturbed outputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time

import numpy as np

import inputs
import reference as ref
from stereosr import cli, images, metrics, model, tensor, train, transport
from stereosr.model import ModelConfig, StereoPair, WeightStore
from stereosr.tensor import Tensor

# overfit's schedule length in the training workloads; runs stop long before
TRAIN_SCHEDULE_STEPS = 100_000


class Clock:
    """Marks the end of each operation; says stop once ``seconds`` have
    passed since ``start`` and at least two operations (one cold, one warm)
    have ended.  ``tracer``, when given, learns the index of the operation
    that runs next."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.start = time.perf_counter()
        self.ends: list[float] = []

    def tick(self) -> bool:
        now = time.perf_counter()
        self.ends.append(now)
        if self.tracer is not None:
            self.tracer.op = len(self.ends)
        return len(self.ends) >= 2 and now - self.start >= self.seconds

    def durations(self) -> list[float]:
        starts = [self.start] + self.ends[:-1]
        return [e - s for s, e in zip(starts, self.ends)]


def _to_unit(pixels: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 -> (3, h, w) float64 in [0, 1]."""
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def _block_mean(pixels: np.ndarray, r: int) -> np.ndarray:
    h, w, _ = pixels.shape
    m = pixels.reshape(h // r, r, w // r, r, 3).mean(axis=(1, 3))
    return np.floor(m + 0.5).astype(np.uint8)


def _perturbed_store(cfg: ModelConfig, seed: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    store = model.init_model(cfg, seed)
    return inputs.perturb_weights({n: t.data for n, t in store.items()}, rng)


def _store_of(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> WeightStore:
    return WeightStore(cfg, [(n, Tensor(a)) for n, a in arrays.items()])


# ---------------------------------------------------------------------------
# infer: `stereosr infer` on a 32x96 PNG pair, default config
# ---------------------------------------------------------------------------

class Infer:
    """One operation is one ``stereosr infer`` call through ``cli.main``:
    load the weight file, decode the PNG pair, forward with no tape, write
    two PNGs."""

    name = "infer"
    cfg = ModelConfig()
    lr_shape = (32, 96)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        r = self.cfg.scale
        hr = inputs.render_pair(rng, self.lr_shape[0] * r, self.lr_shape[1] * r)
        self.lr = [_block_mean(v, r) for v in hr]
        paths = [os.path.join(workdir, f"{v}.png") for v in ("left", "right")]
        for path, pixels in zip(paths, self.lr):
            with open(path, "wb") as fh:
                fh.write(inputs.encode_png(pixels)[0])
        self.params = _perturbed_store(self.cfg, seed, rng)
        weights = os.path.join(workdir, "model.msin")
        model.save_weights(_store_of(self.cfg, self.params), weights)
        self.out_dir = os.path.join(workdir, "out")
        self.argv = ["infer", "--left", paths[0], "--right", paths[1],
                     "--weights", weights, "--out-dir", self.out_dir]
        self.failed = 0

    def run(self, clock: Clock) -> None:
        while True:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv)
            self.failed += code != 0
            if clock.tick():
                return

    def outputs(self) -> dict:
        """The written PNGs, and the program's transport plans from one more
        forward on the same inputs (row-sum errors only)."""
        out = {}
        for view in ("left", "right"):
            with open(os.path.join(self.out_dir, f"{view}_sr.png"), "rb") as fh:
                out[view] = fh.read()
        errors = []
        original = transport.deam_forward

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            errors.append(float(np.abs(result[2].row_sums() - 1.0).max()))
            return result

        pair = StereoPair(*(Tensor(_to_unit(v)[None].astype(np.float32)) for v in self.lr))
        transport.deam_forward = capture
        try:
            model.forward(pair, _store_of(self.cfg, self.params), self.cfg)
        finally:
            transport.deam_forward = original
        out["plan_row_errors"] = errors
        return out

    def check(self, out: dict) -> list[str]:
        fails = []
        pixels = {}
        for view in ("left", "right"):
            try:
                pixels[view] = ref.read_png(out[view])
            except ValueError as e:
                fails.append(f"{view}_sr.png: {e}")
        if fails:
            return fails
        sr = ref.ReferenceModel(self.params, self.cfg).forward(*(_to_unit(v) for v in self.lr))
        for view, expected in zip(("left", "right"), sr):
            fails += ref.check_quantized(f"{view}_sr.png", expected, pixels[view])
        stages = len(self.cfg.deam_stages())
        if len(out["plan_row_errors"]) != stages:
            fails.append(f"{len(out['plan_row_errors'])} transport plans, expected {stages}")
        return fails + ref.check_plan_rows(out["plan_row_errors"])


# ---------------------------------------------------------------------------
# train / train_tiny: steps of overfit on a synthetic pair
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


class Train:
    """One operation is one step of ``train.overfit``: taped forward, loss,
    backward, Lion update, and the two PSNR log values."""

    name = "train"
    cfg = ModelConfig()
    lr_shape = (16, 96)
    grad_lr_shape = (8, 24)      # small enough for a float64 tape

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        r = self.cfg.scale
        h, w = self.lr_shape
        self.hr_pixels = inputs.render_pair(rng, h * r, w * r)
        self.hr = StereoPair(*(Tensor(_to_unit(v)[None].astype(np.float32)) for v in self.hr_pixels))
        self.lr = StereoPair(*(images.bicubic_downsample(v, r) for v in (self.hr.left, self.hr.right)))
        self.grad_params = _perturbed_store(self.cfg, seed, rng)
        self.grad_direction = {n: rng.standard_normal(a.shape) for n, a in self.grad_params.items()}
        self.failed = 0
        self.log = []

    def run(self, clock: Clock) -> None:
        def on_step(entry):
            self.log.append(entry)
            if clock.tick():
                raise _Stop

        try:
            train.overfit(self.lr, self.hr, self.cfg, steps=TRAIN_SCHEDULE_STEPS,
                          seed=self.seed, log_fn=on_step)
        except _Stop:
            pass

    def outputs(self) -> dict:
        """Logged losses, the loss recomputed from the program's forward at
        the initial weights, and a float64 directional gradient check."""
        init = model.init_model(self.cfg, self.seed)
        sr = model.forward(self.lr, init, self.cfg)
        expected = ref.loss((sr.left.data[0], sr.right.data[0]),
                            (self.hr.left.data[0], self.hr.right.data[0]))
        analytic, numeric, step = self._directional_derivatives()
        return {"losses": [e.loss for e in self.log], "expected_first_loss": expected,
                "analytic": analytic, "numeric": numeric, "step": step}

    def _directional_derivatives(self) -> tuple[float, float, float]:
        r = self.cfg.scale
        h, w = self.grad_lr_shape
        hr = StereoPair(*(Tensor(_to_unit(v[:h * r, :w * r])[None]) for v in self.hr_pixels))
        lr = StereoPair(*(images.bicubic_downsample(v, r) for v in (hr.left, hr.right)))
        names = list(self.grad_params)
        norm = math.sqrt(sum(float((d * d).sum()) for d in self.grad_direction.values()))
        direction = [self.grad_direction[n] / norm for n in names]
        base = [self.grad_params[n].astype(np.float64) for n in names]

        def loss_at(step: float) -> tuple[float, np.ndarray]:
            store = WeightStore(self.cfg, [(n, Tensor(b + step * d))
                                           for n, b, d in zip(names, base, direction)])
            sr = model.forward(lr, store, self.cfg)
            kinks = ref.dft_differences((sr.left.data, sr.right.data), (hr.left.data, hr.right.data))
            return train.loss_total(sr, hr).item(), kinks

        store = WeightStore(self.cfg, [(n, Tensor(b)) for n, b in zip(names, base)])
        with tensor.GradTape() as tape:
            loss = train.loss_total(model.forward(lr, store, self.cfg), hr)
        grads = tape.gradients(loss, store.tensors())
        analytic = float(sum((g * d).sum() for g, d in zip(grads, direction)))
        step = ref.GRAD_EPS
        for shrink in range(ref.GRAD_SHRINKS + 1):
            (plus, plus_kinks), (minus, minus_kinks) = loss_at(step), loss_at(-step)
            if shrink == ref.GRAD_SHRINKS or not ref.straddles_kink(minus_kinks, plus_kinks):
                break
            step /= 10
        return analytic, (plus - minus) / (2 * step), step

    def check(self, out: dict) -> list[str]:
        return (ref.check_losses(out["losses"], out["expected_first_loss"])
                + ref.check_gradient(out["analytic"], out["numeric"], out["step"]))


class TrainTiny(Train):
    """Acceptance criterion 5's config: arrays are tiny, so per-primitive
    Python overhead dominates."""

    name = "train_tiny"
    cfg = ModelConfig(n_blocks=2, width=16)
    lr_shape = (24, 72)


# ---------------------------------------------------------------------------
# png_eval: score one camera-sized pair as a stereo SR test set is scored
# ---------------------------------------------------------------------------

class PngEval:
    """One operation evaluates one pair: per view, decode the HR PNG, crop
    to a multiple of 4, bicubic-downsample x4, write the LR view as PNG,
    bilinear-upsample it back, and compute PSNR and SSIM."""

    name = "png_eval"
    hr_shape = (375, 500)
    scale = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.hr_pixels = inputs.render_pair(rng, *self.hr_shape)
        self.paths = [os.path.join(workdir, f"{v}.png") for v in ("left", "right")]
        for path, pixels in zip(self.paths, self.hr_pixels):
            with open(path, "wb") as fh:
                fh.write(inputs.encode_png(pixels)[0])
        self.lr_paths = [os.path.join(workdir, f"{v}_lr.png") for v in ("left", "right")]
        self.constant = float(rng.uniform(0.1, 0.9))
        self.failed = 0
        self.results = None

    def _evaluate(self, hr_path: str, lr_path: str) -> dict:
        decoded = images.load_png(hr_path)
        hr = decoded.to_tensor()
        r = self.scale
        h, w = (hr.h // r) * r, (hr.w // r) * r
        hr = Tensor(np.ascontiguousarray(hr.data[:, :, :h, :w]))
        lr = images.ImageBuffer.from_tensor(images.bicubic_downsample(hr, r))
        images.save_png(lr, lr_path)
        up = tensor.bilinear_upsample(lr.to_tensor(), r)
        return {"decoded": decoded.pixels, "lr": lr.pixels, "hr": hr.data[0], "up": up.data[0],
                "psnr": metrics.psnr(up, hr), "ssim": metrics.ssim(up, hr)}

    def run(self, clock: Clock) -> None:
        while True:
            self.results = [self._evaluate(*p) for p in zip(self.paths, self.lr_paths)]
            if clock.tick():
                return

    def outputs(self) -> dict:
        lr_blobs = []
        for path in self.lr_paths:
            with open(path, "rb") as fh:
                lr_blobs.append(fh.read())
        const = Tensor(np.full((1, 3, 64, 64), self.constant, np.float32))
        shrunk = images.bicubic_downsample(const, self.scale).data
        return {"results": self.results, "lr_blobs": lr_blobs, "constant_shrunk": shrunk}

    def check(self, out: dict) -> list[str]:
        fails = []
        for view, res, blob, pixels in zip(("left", "right"), out["results"], out["lr_blobs"],
                                           self.hr_pixels):
            fails += ref.check_equal_pixels(f"decoded {view}.png", res["decoded"], pixels)
            try:
                fails += ref.check_equal_pixels(f"{view}_lr.png read back", ref.read_png(blob), res["lr"])
            except ValueError as e:
                fails.append(f"{view}_lr.png: {e}")
            fails += ref.check_close(f"{view} PSNR", res["psnr"], ref.psnr(res["up"], res["hr"]))
            fails += ref.check_close(f"{view} SSIM", res["ssim"], ref.ssim(res["up"], res["hr"]))
        worst = float(np.abs(out["constant_shrunk"] - self.constant).max())
        if worst > 1e-6:
            fails.append(f"bicubic downsampling moved a constant image by {worst:.3e}")
        return fails


WORKLOADS = {w.name: w for w in (Infer, Train, TrainTiny, PngEval)}
