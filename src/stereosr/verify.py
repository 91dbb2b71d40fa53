"""Finite-difference verification suite used by tests and the CLI.

Every differentiable primitive gets a central-difference check of its tape
gradient, plus one end-to-end check of a tiny two-view model under the full
training loss.  All checks run on the float64 path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .model import ModelConfig, StereoPair, forward, init_model
from .tensor import Tensor, grad_check
from .train import loss_total
from .transport import CostVolume, carry, cost_matrix, sinkhorn

PRIMITIVE_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape).astype(np.float32))


def primitive_checks(seed: int = 0) -> list[CheckResult]:
    """One gradient check per primitive, on small random operands."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, (2, 4, 5, 6))
    y = _rand(rng, (2, 4, 5, 6))
    chan = _rand(rng, (1, 4, 1, 1))

    checks: list[tuple[str, list[Tensor], object]] = [
        ("add", [x, y], lambda p: tz.sum_all(tz.mul(tz.add(p[0], p[1]), tz.add(p[0], p[1])))),
        ("add_broadcast", [x, chan], lambda p: tz.sum_all(tz.mul(tz.add(p[0], p[1]), tz.add(p[0], p[1])))),
        ("sub", [x, y], lambda p: tz.sum_all(tz.mul(tz.sub(p[0], p[1]), tz.sub(p[0], p[1])))),
        ("mul", [x, y], lambda p: tz.sum_all(tz.mul(p[0], p[1]))),
        ("mul_broadcast", [x, chan], lambda p: tz.sum_all(tz.mul(tz.mul(p[0], p[1]), tz.mul(p[0], p[1])))),
        ("exp", [x], lambda p: tz.mean_all(tz.exp(p[0]))),
        ("sum_all", [x], lambda p: tz.sum_all(p[0])),
        ("mean_all", [x], lambda p: tz.mean_all(p[0])),
        ("logsumexp", [x], lambda p: tz.mean_all(tz.logsumexp(p[0], axis=3))),
        ("simple_gate", [x], lambda p: tz.mean_all(tz.simple_gate(p[0]))),
        ("global_avg_pool", [x], lambda p: tz.sum_all(tz.mul(tz.global_avg_pool(p[0]), tz.global_avg_pool(p[0])))),
        ("pixel_shuffle", [x], lambda p: tz.sum_all(tz.mul(tz.pixel_shuffle(p[0], 2), tz.pixel_shuffle(p[0], 2)))),
    ]

    # even and odd w: the half spectrum has a self-mirrored last column or not
    checks += [
        ("spectral_l1_even", [_rand(rng, (1, 2, 4, 6))], lambda p: tz.spectral_l1(p[0])),
        ("spectral_l1_odd", [_rand(rng, (2, 3, 5, 7))], lambda p: tz.spectral_l1(p[0])),
    ]

    def squared(out):
        return tz.sum_all(tz.mul(out, out))

    u, v = _rand(rng, (2, 3, 4, 5)), _rand(rng, (2, 3, 4, 5))
    plan = _rand(rng, (2, 4, 5, 5))
    checks += [
        ("cost_matrix", [u, v], lambda p: squared(cost_matrix(p[0], p[1]).values)),
        ("carry_to_left", [plan, v], lambda p: squared(carry(p[0], p[1], to_left=True))),
        ("carry_to_right", [plan, v], lambda p: squared(carry(p[0], p[1], to_left=False))),
    ]

    # (weight shape, dilation) on the 4-channel x: full, then depthwise
    conv_cases = [
        ("conv2d_full_3x3", (5, 4, 3, 3), (1, 1)),
        ("conv2d_1x1", (6, 4, 1, 1), (1, 1)),
        ("conv2d_depthwise", (4, 1, 3, 3), (1, 1)),
        ("conv2d_dilated_sep", (4, 1, 1, 5), (1, 2)),
        ("conv2d_dilated_sep_v", (4, 1, 5, 1), (2, 1)),
    ]
    for name, shape, dilation in conv_cases:
        w = _rand(rng, shape)
        bia = _rand(rng, (1, shape[0], 1, 1))

        def conv_loss(p, dilation=dilation):
            out = tz.conv2d(p[0], p[1], p[2], dilation)
            return tz.mean_all(tz.mul(out, out))

        checks.append((name, [x, w, bia], conv_loss))

    gain = _rand(rng, (1, 4, 1, 1), 0.5, 1.5)
    shift = _rand(rng, (1, 4, 1, 1))

    def sinkhorn_loss(p):
        plan = sinkhorn(CostVolume(values=p[0])).values
        return tz.mean_all(tz.mul(plan, plan))

    checks.append(("sinkhorn", [_rand(rng, (2, 3, 5, 5), -2.0, 2.0)], sinkhorn_loss))

    # rows offset by 0, 30, .., 120 span more than SCALING_MAX_RANGE, so this
    # checks the log-domain fallback; the row duals absorb the offsets, so
    # the plan stays soft and its gradient far from zero
    ramp = np.arange(5, dtype=np.float32).reshape(5, 1) * 30.0
    wide = Tensor(_rand(rng, (1, 2, 5, 5), -2.0, 2.0).data + ramp)
    checks.append(("sinkhorn_wide", [wide], sinkhorn_loss))

    # drawn after every other row's operands, so those stay as they were
    w, bia, scale = _rand(rng, (6, 4, 1, 1)), _rand(rng, (1, 6, 1, 1)), _rand(rng, (1, 6, 1, 1))
    checks += [
        ("conv1x1_norm_scale", [x, w, bia, gain, shift, scale], lambda p: squared(tz.conv1x1(*p[:3], p[3:5], p[5]))),
        ("conv1x1_norm", [x, w, bia, gain, shift], lambda p: squared(tz.conv1x1(*p[:3], p[3:5]))),
        ("conv1x1_scale", [x, w, bia, scale], lambda p: squared(tz.conv1x1(*p[:3], scale=p[3]))),
    ]

    # the layer norm's curvature puts the central difference's O(step^2)
    # truncation at about 4e-5 at grad_check's default step of 1e-3, and at
    # about 4e-7 at a step of 1e-4, which its rows take
    fine = {"eps": 1e-4}
    return [
        CheckResult(name, grad_check(f, params, **(fine if name.startswith("conv1x1_norm") else {})),
                    PRIMITIVE_TOLERANCE)
        for name, params, f in checks
    ]


def end_to_end_check(seed: int = 0) -> CheckResult:
    """Gradient of the full loss on a tiny model, checked coordinate by
    coordinate against central differences."""
    cfg = ModelConfig(n_blocks=1, width=8, scale=2)
    store = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    lr_pair = StereoPair(
        left=Tensor(rng.uniform(size=(1, 3, 8, 16))),
        right=Tensor(rng.uniform(size=(1, 3, 8, 16))),
    )
    hr_pair = StereoPair(
        left=Tensor(rng.uniform(size=(1, 3, 16, 32))),
        right=Tensor(rng.uniform(size=(1, 3, 16, 32))),
    )

    def f(params):
        st = store.replace_values(params)
        return loss_total(forward(lr_pair, st, cfg), hr_pair)

    err = grad_check(f, store.tensors())
    return CheckResult("end_to_end", err, END_TO_END_TOLERANCE)


def gradient_suite(seed: int = 0) -> list[CheckResult]:
    """All primitive checks plus the end-to-end model check."""
    return primitive_checks(seed) + [end_to_end_check(seed)]
