"""Finite-difference verification suite used by tests and the CLI.

Every differentiable primitive gets a central-difference check of the tape
gradient of its own output, plus one end-to-end check of a tiny two-view
model under the full training loss.  All checks run on the float64 path.
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


def primitive_cases(seed: int = 0) -> dict[str, tuple[list[Tensor], object, float]]:
    """Each primitive's check by name: small random operands, a function
    that returns the primitive's output, and the central difference's step."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, (2, 4, 5, 6))
    y = _rand(rng, (2, 4, 5, 6))
    chan = _rand(rng, (1, 4, 1, 1))

    checks: list[tuple[str, list[Tensor], object]] = [
        ("add", [x, y], lambda p: tz.add(p[0], p[1])),
        ("add_broadcast", [x, chan], lambda p: tz.add(p[0], p[1])),
        ("sub", [x, y], lambda p: tz.sub(p[0], p[1])),
        ("mul", [x, y], lambda p: tz.mul(p[0], p[1])),
        ("mul_broadcast", [x, chan], lambda p: tz.mul(p[0], p[1])),
        ("exp", [x], lambda p: tz.exp(p[0])),
        # four entries: a gradient of 1/4 each is large enough that a 1%
        # error in it shows above grad_check's denominator floor of 1
        ("mean_all", [Tensor(x.data[:1, :1, :2, :2].copy())], lambda p: tz.mean_all(p[0])),
        ("logsumexp", [x], lambda p: tz.logsumexp(p[0], axis=3)),
        ("simple_gate", [x], lambda p: tz.simple_gate(p[0])),
        ("global_avg_pool", [x], lambda p: tz.global_avg_pool(p[0])),
        ("pixel_shuffle", [x], lambda p: tz.pixel_shuffle(p[0], 2)),
    ]

    # even and odd w: the half spectrum has a self-mirrored last column or not
    checks += [
        ("spectral_l1_even", [_rand(rng, (1, 2, 4, 6))], lambda p: tz.spectral_l1(p[0])),
        ("spectral_l1_odd", [_rand(rng, (2, 3, 5, 7))], lambda p: tz.spectral_l1(p[0])),
    ]

    u, v = _rand(rng, (2, 3, 4, 5)), _rand(rng, (2, 3, 4, 5))
    plan = _rand(rng, (2, 4, 5, 5))
    checks += [
        ("cost_matrix", [u, v], lambda p: cost_matrix(p[0], p[1]).values),
        ("carry_to_left", [plan, v], lambda p: carry(p[0], p[1], to_left=True)),
        ("carry_to_right", [plan, v], lambda p: carry(p[0], p[1], to_left=False)),
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
        checks.append((name, [x, w, bia], lambda p, dilation=dilation: tz.conv2d(*p, dilation)))

    gain = _rand(rng, (1, 4, 1, 1), 0.5, 1.5)
    shift = _rand(rng, (1, 4, 1, 1))

    def plan_of(p):
        return sinkhorn(CostVolume(values=p[0])).values

    checks.append(("sinkhorn", [_rand(rng, (2, 3, 5, 5), -2.0, 2.0)], plan_of))

    # rows offset by 0, 30, .., 120 span more than SCALING_MAX_RANGE, so this
    # checks the log-domain fallback; the row duals absorb the offsets, so
    # the plan stays soft and its gradient far from zero
    ramp = np.arange(5, dtype=np.float32).reshape(5, 1) * 30.0
    wide = Tensor(_rand(rng, (1, 2, 5, 5), -2.0, 2.0).data + ramp)
    checks.append(("sinkhorn_wide", [wide], plan_of))

    # drawn after every other row's operands, so those stay as they were
    w, bia, scale = _rand(rng, (6, 4, 1, 1)), _rand(rng, (1, 6, 1, 1)), _rand(rng, (1, 6, 1, 1))
    checks += [
        ("conv1x1_norm_scale", [x, w, bia, gain, shift, scale],
         lambda p: tz.conv1x1(*p[:3], p[3:5], p[5])),
        ("conv1x1_norm", [x, w, bia, gain, shift], lambda p: tz.conv1x1(*p[:3], p[3:5])),
        ("conv1x1_scale", [x, w, bia, scale], lambda p: tz.conv1x1(*p[:3], scale=p[3])),
    ]

    # an LSKA branch's chain of four depthwise convolutions, the last two
    # dilated, as one record; drawn last, so every other row keeps its operands
    chain = [((4, 1, 1, 3), (1, 1)), ((4, 1, 3, 1), (1, 1)), ((4, 1, 1, 3), (1, 2)),
             ((4, 1, 3, 1), (2, 1))]
    ops = []
    for shape, _ in chain:
        ops += [_rand(rng, shape), _rand(rng, (1, 4, 1, 1))]
    checks.append(("conv2d_chain", [x, *ops],
                   lambda p: tz.conv2d(p[0], p[1::2], p[2::2], [d for _, d in chain])))

    # the layer norm's curvature puts the central difference's O(step^2)
    # truncation at up to 7e-5 at grad_check's default step of 1e-3, and at
    # up to 7e-7 at a step of 1e-4, which its rows take
    return {name: (params, f, 1e-4 if name.startswith("conv1x1_norm") else 1e-3)
            for name, params, f in checks}


def primitive_checks(seed: int = 0) -> list[CheckResult]:
    """One gradient check per primitive, on small random operands."""
    return [CheckResult(name, grad_check(f, params, eps), PRIMITIVE_TOLERANCE)
            for name, (params, f, eps) in primitive_cases(seed).items()]


def end_to_end_check(seed: int = 0) -> CheckResult:
    """Gradient of the full loss on a tiny model, checked coordinate by
    coordinate against central differences."""
    cfg = ModelConfig(n_blocks=1, width=8, scale=2)
    store = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    lr_pair = StereoPair(*(Tensor(rng.uniform(size=(1, 3, 8, 16))) for _ in range(2)))
    hr_pair = StereoPair(*(Tensor(rng.uniform(size=(1, 3, 16, 32))) for _ in range(2)))

    def f(params):
        st = store.replace_values(params)
        return loss_total(forward(lr_pair, st, cfg), hr_pair)

    err = grad_check(f, store.tensors())
    return CheckResult("end_to_end", err, END_TO_END_TOLERANCE)


def gradient_suite(seed: int = 0) -> list[CheckResult]:
    """All primitive checks plus the end-to-end model check."""
    return primitive_checks(seed) + [end_to_end_check(seed)]
