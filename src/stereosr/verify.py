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
from .tensor import ConvSpec, Tensor, grad_check
from .train import loss_total
from .transport import CostVolume, sinkhorn

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


def _rand_nonzero(rng, shape, floor=0.2):
    # magnitudes bounded away from zero so |x| stays differentiable under
    # the finite-difference perturbation
    mag = rng.uniform(floor, 1.0, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor((mag * sign).astype(np.float32))


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
        ("neg", [x], lambda p: tz.sum_all(tz.mul(tz.neg(p[0]), tz.neg(p[0])))),
        ("exp", [x], lambda p: tz.mean_all(tz.exp(p[0]))),
        ("absolute", [_rand_nonzero(rng, (2, 3, 4, 4))], lambda p: tz.mean_all(tz.absolute(p[0]))),
        ("sum_all", [x], lambda p: tz.sum_all(p[0])),
        ("mean_all", [x], lambda p: tz.mean_all(p[0])),
        ("logsumexp", [x], lambda p: tz.mean_all(tz.logsumexp(p[0], axis=3))),
        ("transpose", [x], lambda p: tz.sum_all(tz.mul(tz.transpose(p[0], (0, 2, 3, 1)), 2.0))),
        ("simple_gate", [x], lambda p: tz.mean_all(tz.simple_gate(p[0]))),
        ("global_avg_pool", [x], lambda p: tz.sum_all(tz.mul(tz.global_avg_pool(p[0]), tz.global_avg_pool(p[0])))),
        ("pixel_shuffle", [x], lambda p: tz.sum_all(tz.mul(tz.pixel_shuffle(p[0], 2), tz.pixel_shuffle(p[0], 2)))),
        ("bilinear_upsample", [_rand(rng, (1, 2, 4, 5))], lambda p: tz.sum_all(tz.mul(tz.bilinear_upsample(p[0], 2), tz.bilinear_upsample(p[0], 2)))),
    ]

    checks.append(("dft2", [_rand(rng, (1, 2, 4, 6))],
                   lambda p: tz.mean_all(tz.mul(tz.dft2(p[0]), tz.dft2(p[0])))))

    a = _rand(rng, (1, 3, 4, 5))
    b = _rand(rng, (1, 3, 5, 2))
    checks.append(
        ("batched_matmul", [a, b],
         lambda p: tz.sum_all(tz.mul(tz.batched_matmul(p[0], p[1]), tz.batched_matmul(p[0], p[1])))))

    conv_cases = [
        ("conv2d_full_3x3", ConvSpec(out_ch=5, in_ch=4, kh=3, kw=3)),
        ("conv2d_1x1", ConvSpec(out_ch=6, in_ch=4, kh=1, kw=1)),
        ("conv2d_depthwise", ConvSpec(out_ch=4, in_ch=4, kh=3, kw=3, groups=4)),
        ("conv2d_dilated_sep", ConvSpec(out_ch=4, in_ch=4, kh=1, kw=5, groups=4, dilation=(1, 2))),
    ]
    for name, spec in conv_cases:
        w = _rand(rng, spec.weight_shape)
        bia = _rand(rng, (1, spec.out_ch, 1, 1))

        def conv_loss(p, spec=spec):
            out = tz.conv2d(p[0], spec, p[1], p[2])
            return tz.mean_all(tz.mul(out, out))

        checks.append((name, [x, w, bia], conv_loss))

    gain = _rand(rng, (1, 4, 1, 1), 0.5, 1.5)
    shift = _rand(rng, (1, 4, 1, 1))
    checks.append(
        ("layer_norm", [x, gain, shift],
         lambda p: tz.mean_all(tz.mul(tz.layer_norm(p[0], p[1], p[2]), tz.layer_norm(p[0], p[1], p[2])))))

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

    return [
        CheckResult(name, grad_check(f, params), PRIMITIVE_TOLERANCE)
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
