"""The whole network against the benchmark's independent float64 forward.

``bench/reference.ReferenceModel`` recomputes the forward from README's
description: direct tap sums for every convolution, the scaling-vector form
of the Sinkhorn iterations and explicit bilinear matrices, with no call into
``stereosr``.  Random configs (block count, width, scale, branches,
iterations, the three flags and LR sizes down to one row or one column),
with weights from ``bench/inputs.perturb_weights``, must match it in float64
and in float32.  The reference has only the scaling form, so no draw may
send a normalization to the log domain.  Over the same draws, with a random
HR pair, the float64 tape derivative of ``loss_total`` along a random unit
direction must match a central difference of the reference loss.

``bench/`` is read, never changed.  Its modules import each other by bare
name, so ``bench/`` is on ``sys.path`` only while the test runs.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stereosr import transport as ot
from stereosr.blocks import LskaBranch
from stereosr.model import ModelConfig, StereoPair, WeightStore, forward, init_model
from stereosr.tensor import GradTape, Tensor
from stereosr.train import loss_total

BENCH = Path(__file__).resolve().parents[1] / "bench"

ODD = st.sampled_from([1, 3, 5, 7])
CONFIGS = st.builds(
    ModelConfig,
    n_blocks=st.integers(1, 3),
    width=st.sampled_from([4, 6, 8, 12]),
    scale=st.sampled_from([2, 4]),
    lska_branches=st.lists(st.builds(LskaBranch, ODD, ODD, st.integers(1, 3)),
                           min_size=1, max_size=3).map(tuple),
    sinkhorn_iters=st.integers(1, 11),
    share_view_weights=st.booleans(),
    single_interaction=st.booleans(),
    global_residual=st.booleans(),
)

# largest gap to the reference, relative to its largest output
TOLERANCES = {np.float64: 1e-12, np.float32: 1e-5}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _with_bench(check) -> None:
    """Run ``check(inputs, reference)`` with ``bench/`` importable."""
    sys.path.insert(0, str(BENCH))
    try:
        check(_load("inputs"), _load("reference"))
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("inputs", None)


def _draw(inputs, cfg, h, w, seed):
    """The seeded generator, perturbed weights and float32 LR views of a draw."""
    rng = np.random.default_rng(seed)
    params = inputs.perturb_weights({n: t.data for n, t in init_model(cfg, seed).items()}, rng)
    # float32 values, so both forwards and the reference read the same numbers
    lr = [rng.uniform(size=(1, 3, h, w)).astype(np.float32) for _ in range(2)]
    return rng, params, lr


DRAWS = dict(cfg=CONFIGS, h=st.integers(1, 8), w=st.integers(1, 19), seed=st.integers(0, 2**16))
DRAW_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def test_forward_matches_the_reference():
    _with_bench(_check_configs)


def test_gradient_matches_the_reference():
    _with_bench(_check_gradients)


def _check_configs(inputs, reference):
    @DRAW_SETTINGS
    @given(**DRAWS)
    def check(cfg, h, w, seed):
        _, params, lr = _draw(inputs, cfg, h, w, seed)
        want = reference.ReferenceModel(params, cfg).forward(lr[0][0], lr[1][0])
        scale = max(np.abs(v).max() for v in want)
        for dtype, tol in TOLERANCES.items():
            store = WeightStore(cfg, [(n, Tensor(a.astype(dtype))) for n, a in params.items()])
            with mock.patch.object(ot, "_log_domain_sinkhorn",
                                   wraps=ot._log_domain_sinkhorn) as log_domain:
                got = forward(StereoPair(*(Tensor(v.astype(dtype)) for v in lr)), store, cfg)
            assert log_domain.call_count == 0, "a score range passed SCALING_MAX_RANGE"
            for out, ref in zip((got.left, got.right), want):
                assert out.dtype == dtype and out.shape == (1, *ref.shape)
                err = np.abs(out.data[0] - ref).max() / scale
                assert err < tol, f"{dtype.__name__}: {err:.2e}"

    check()


def _check_gradients(inputs, reference):
    """The float64 tape derivative of ``loss_total`` along a unit direction
    against a central difference of the reference loss, with the step
    shrunk off the frequency term's kinks as the benchmark's ``train``
    check does."""
    @DRAW_SETTINGS
    @given(**DRAWS)
    def check(cfg, h, w, seed):
        rng, params, lr = _draw(inputs, cfg, h, w, seed)
        r = cfg.scale
        hr = [rng.uniform(size=(3, h * r, w * r)) for _ in range(2)]
        direction = {n: rng.standard_normal(a.shape) for n, a in params.items()}
        norm = np.sqrt(sum((d * d).sum() for d in direction.values()))

        store = WeightStore(cfg, [(n, Tensor(a.astype(np.float64))) for n, a in params.items()])
        with GradTape() as tape:
            sr = forward(StereoPair(*(Tensor(v.astype(np.float64)) for v in lr)), store, cfg)
            loss = loss_total(sr, StereoPair(*(Tensor(v[None]) for v in hr)))
        grads = tape.gradients(loss, store.tensors())
        analytic = sum(float((g * direction[n]).sum()) for n, g in zip(store.names(), grads)) / norm

        def reference_loss(t):
            moved = {n: a + t / norm * direction[n] for n, a in params.items()}
            out = reference.ReferenceModel(moved, cfg).forward(lr[0][0], lr[1][0])
            return reference.loss(out, hr), reference.dft_differences(out, hr)

        step = reference.GRAD_EPS
        for shrink in range(reference.GRAD_SHRINKS + 1):
            (plus, plus_kinks), (minus, minus_kinks) = reference_loss(step), reference_loss(-step)
            if shrink == reference.GRAD_SHRINKS or not reference.straddles_kink(minus_kinks,
                                                                                plus_kinks):
                break
            step /= 10
        assert reference.check_gradient(analytic, (plus - minus) / (2 * step), step) == []

    check()
