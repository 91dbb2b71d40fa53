"""Training: spatial + frequency loss, Lion optimizer, cosine schedule, and
a single-pair overfit harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import psnr
from .model import ModelConfig, StereoPair, WeightStore, forward, init_model
from .tensor import (
    GradTape,
    ShapeError,
    Tensor,
    absolute,
    add,
    dft2,
    mean_all,
    mul,
    sub,
)


class TrainingDivergedError(ArithmeticError):
    """The loss became non-finite during optimization."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step
        self.value = value


# The training recipe: MSE plus FREQ_WEIGHT times the L1 of the DFT
# coefficients, Lion with Chen et al.'s published betas and no weight decay,
# and a cosine schedule from LR_MAX to LR_MIN.
FREQ_WEIGHT = 0.01
LR_MAX = 3e-4
LR_MIN = 1e-8
BETA1 = 0.9
BETA2 = 0.99


def _view_loss(sr: Tensor, hr: Tensor) -> Tensor:
    diff = sub(sr, hr)
    spatial = mean_all(mul(diff, diff))
    # real and imaginary parts are separate elements of the L1 mean
    freq = mean_all(absolute(sub(dft2(sr), dft2(hr))))
    return add(spatial, mul(freq, FREQ_WEIGHT))


def loss_total(sr: StereoPair, hr: StereoPair) -> Tensor:
    """Mean squared spatial error plus a weighted mean absolute error of the
    2-D DFT coefficients, averaged over both views as one batch."""
    if sr.left.shape != hr.left.shape:
        raise ShapeError(f"shape mismatch: sr {sr.left.shape} vs hr {hr.left.shape}")
    return mul(add(_view_loss(sr.left, hr.left), _view_loss(sr.right, hr.right)), 0.5)


def lion_step(store: WeightStore, grads: list[np.ndarray], momentum: list[np.ndarray],
              lr: float) -> tuple[WeightStore, list[np.ndarray]]:
    """One sign-momentum update.

    Per parameter: step along sign(BETA1 * m + (1 - BETA1) * g), then
    refresh momentum as BETA2 * m + (1 - BETA2) * g.  sign(0) is 0, so
    exactly-zero updates leave the weight untouched.
    """
    tensors = store.tensors()
    if not len(grads) == len(momentum) == len(tensors):
        raise ShapeError(
            f"got {len(grads)} gradients and {len(momentum)} momenta "
            f"for {len(tensors)} parameters"
        )
    new_tensors = []
    new_momentum = []
    for t, g, m in zip(tensors, grads, momentum):
        update = np.sign(BETA1 * m + (1.0 - BETA1) * g)
        new_tensors.append(Tensor((t.data - lr * update).astype(t.data.dtype)))
        new_momentum.append(BETA2 * m + (1.0 - BETA2) * g)
    return store.replace_values(new_tensors), new_momentum


def cosine_lr(step: int, total_steps: int) -> float:
    """Cosine annealing from LR_MAX at step 0 to LR_MIN at total_steps;
    steps past the end clamp to LR_MIN."""
    if step >= total_steps:
        return LR_MIN
    frac = step / total_steps
    return LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + math.cos(math.pi * frac))


@dataclass(frozen=True)
class StepLog:
    step: int
    lr: float
    loss: float
    psnr_left: float
    psnr_right: float


def format_log_line(entry: StepLog) -> str:
    return (
        f"{entry.step}\t{entry.lr:.6e}\t{entry.loss:.6e}"
        f"\t{entry.psnr_left:.2f}\t{entry.psnr_right:.2f}"
    )


def _clip01(t: Tensor) -> Tensor:
    return Tensor(np.clip(t.data, 0.0, 1.0))


def overfit(pair_lr: StereoPair, pair_hr: StereoPair, cfg: ModelConfig, steps: int,
            seed: int = 0, log_fn=None) -> tuple[WeightStore, list[StepLog]]:
    """Fit the model to a single stereo pair.

    Each step runs forward, the combined loss, tape backward, and one Lion
    update under the cosine schedule.  PSNR per view is logged against the
    target with the output clipped to [0, 1] (matching what inference would
    write out).  Deterministic for a fixed seed; a non-finite loss aborts
    with the offending step index.
    """
    r = cfg.scale
    if (pair_hr.left.h, pair_hr.left.w) != (r * pair_lr.left.h, r * pair_lr.left.w):
        raise ShapeError(
            f"target size {pair_hr.left.h}x{pair_hr.left.w} is not {r}x the "
            f"input size {pair_lr.left.h}x{pair_lr.left.w}"
        )
    store = init_model(cfg, seed)
    momentum = [np.zeros_like(t.data) for t in store.tensors()]
    log: list[StepLog] = []
    for step in range(steps):
        lr = cosine_lr(step, steps)
        params = store.tensors()
        with GradTape() as tape:
            sr = forward(pair_lr, store, cfg)
            loss = loss_total(sr, pair_hr)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise TrainingDivergedError(step, loss_value)
        grads = tape.gradients(loss, params)
        store, momentum = lion_step(store, grads, momentum, lr)
        entry = StepLog(
            step=step, lr=lr, loss=loss_value,
            psnr_left=psnr(_clip01(sr.left), pair_hr.left),
            psnr_right=psnr(_clip01(sr.right), pair_hr.right),
        )
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
    return store, log
