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


@dataclass(frozen=True)
class LossConfig:
    """Weight of the frequency-domain term."""

    freq_weight: float = 0.01

    def __post_init__(self):
        if self.freq_weight < 0:
            raise ValueError(f"freq_weight must be >= 0, got {self.freq_weight}")


@dataclass(frozen=True)
class ScheduleConfig:
    """Cosine annealing endpoints over ``total_steps``."""

    total_steps: int
    lr_max: float = 3e-4
    lr_min: float = 1e-8

    def __post_init__(self):
        if self.lr_min > self.lr_max:
            raise ValueError(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


@dataclass
class LionState:
    """Per-parameter momentum plus the optimizer constants."""

    momentum: list[np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 0.0

    @classmethod
    def init(cls, store: WeightStore, beta1: float = 0.9, beta2: float = 0.99,
             weight_decay: float = 0.0) -> "LionState":
        return cls(
            momentum=[np.zeros_like(t.data) for t in store.tensors()],
            beta1=beta1, beta2=beta2, weight_decay=weight_decay,
        )


def _view_loss(sr: Tensor, hr: Tensor, freq_weight: float) -> Tensor:
    diff = sub(sr, hr)
    spatial = mean_all(mul(diff, diff))
    if freq_weight == 0.0:
        return spatial
    # real and imaginary parts are separate elements of the L1 mean
    freq = mean_all(absolute(sub(dft2(sr), dft2(hr))))
    return add(spatial, mul(freq, freq_weight))


def loss_total(sr: StereoPair, hr: StereoPair, cfg: LossConfig = LossConfig()) -> Tensor:
    """Mean squared spatial error plus a weighted mean absolute error of the
    2-D DFT coefficients, averaged over both views as one batch."""
    if sr.left.shape != hr.left.shape:
        raise ShapeError(f"shape mismatch: sr {sr.left.shape} vs hr {hr.left.shape}")
    total = add(
        _view_loss(sr.left, hr.left, cfg.freq_weight),
        _view_loss(sr.right, hr.right, cfg.freq_weight),
    )
    return mul(total, 0.5)


def lion_step(store: WeightStore, grads: list[np.ndarray], state: LionState,
              lr: float) -> tuple[WeightStore, LionState]:
    """One sign-momentum update.

    Per parameter: step along sign(beta1 * m + (1 - beta1) * g) with decoupled
    weight decay, then refresh momentum as beta2 * m + (1 - beta2) * g.
    sign(0) is 0, so exactly-zero updates leave the weight untouched.
    """
    tensors = store.tensors()
    if len(grads) != len(tensors):
        raise ShapeError(f"got {len(grads)} gradients for {len(tensors)} parameters")
    new_tensors = []
    new_momentum = []
    for t, g, m in zip(tensors, grads, state.momentum):
        update = np.sign(state.beta1 * m + (1.0 - state.beta1) * g)
        if state.weight_decay:
            update = update + state.weight_decay * t.data
        new_tensors.append(Tensor((t.data - lr * update).astype(t.data.dtype)))
        new_momentum.append(state.beta2 * m + (1.0 - state.beta2) * g)
    new_state = LionState(
        momentum=new_momentum, beta1=state.beta1, beta2=state.beta2,
        weight_decay=state.weight_decay,
    )
    return store.replace_values(new_tensors), new_state


def cosine_lr(step: int, cfg: ScheduleConfig) -> float:
    """Cosine annealing from lr_max at step 0 to lr_min at total_steps;
    steps past the end clamp to lr_min."""
    if step >= cfg.total_steps:
        return cfg.lr_min
    frac = step / cfg.total_steps
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * frac))


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
            seed: int = 0, loss_cfg: LossConfig = LossConfig(),
            schedule: ScheduleConfig | None = None,
            log_fn=None) -> tuple[WeightStore, list[StepLog]]:
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
    if schedule is None:
        schedule = ScheduleConfig(total_steps=max(steps, 1))

    store = init_model(cfg, seed)
    state = LionState.init(store)
    log: list[StepLog] = []
    for step in range(steps):
        lr = cosine_lr(step, schedule)
        params = store.tensors()
        with GradTape() as tape:
            sr = forward(pair_lr, store, cfg)
            loss = loss_total(sr, pair_hr, loss_cfg)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise TrainingDivergedError(step, loss_value)
        grads = tape.gradients(loss, params)
        store, state = lion_step(store, grads, state, lr)
        entry = StepLog(
            step=step, lr=lr, loss=loss_value,
            psnr_left=psnr(_clip01(sr.left), pair_hr.left),
            psnr_right=psnr(_clip01(sr.right), pair_hr.right),
        )
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
    return store, log
