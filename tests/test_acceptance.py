"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with `pytest -s`);
a failed assertion marks the criterion red.  Criterion 5 trains for 2000
steps and takes several minutes; everything else finishes in seconds.
"""

import time

import numpy as np

from stereosr import blocks as bk
from stereosr import model as md
from stereosr import tensor as tz
from stereosr import transport as ot
from stereosr import verify
from stereosr.blocks import LskaBranch
from stereosr.metrics import psnr, ssim
from stereosr.model import ModelConfig, StereoPair
from stereosr.tensor import Tensor, bilinear_upsample
from stereosr.train import (
    BETA1, BETA2, FREQ_WEIGHT, LR_MAX, LR_MIN, cosine_lr, lion_step, overfit,
)
from stereosr.transport import CostVolume, SinkhornConfig

from _synthetic import make_lr_hr_pair
from test_metrics import ssim_direct


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_sinkhorn_marginals():
    rng = np.random.default_rng(101)
    scores = Tensor(rng.normal(size=(100, 1, 32, 32)).astype(np.float32))
    volume = CostVolume(values=scores)

    plan10 = ot.sinkhorn(volume, SinkhornConfig(iters=10))
    row_violation = float(np.abs(plan10.row_sums() - 1.0).max())
    assert row_violation < 5e-6

    plan200 = ot.sinkhorn(volume, SinkhornConfig(iters=200))
    col_violation = float(np.abs(plan200.col_sums() - 1.0).max())
    assert col_violation < 1e-5

    _report(1, f"100 volumes W=32: row violation {row_violation:.2e} (<5e-6) after 10 "
               f"iterations, column violation {col_violation:.2e} (<1e-5) after 200")


def test_criterion_2_sinkhorn_oracle_agreement():
    rng = np.random.default_rng(102)
    worst_gap = 0.0
    for _ in range(20):
        scores = Tensor(rng.normal(size=(1, 1, 8, 8)).astype(np.float32))
        volume = CostVolume(values=scores)
        plan = ot.sinkhorn(volume, SinkhornConfig(iters=10))
        oracle = ot.sinkhorn_oracle(volume, max_iters=1000)
        worst_gap = max(worst_gap, float(np.abs(plan.values.data - oracle.values.data).max()))
    assert worst_gap < 0.05

    # converged agreement on the float64 path
    scores64 = Tensor(rng.normal(size=(1, 2, 8, 8)))
    volume64 = CostVolume(values=scores64)
    converged = ot.sinkhorn(volume64, SinkhornConfig(iters=ot.MAX_SINKHORN_ITERS))
    oracle = ot.sinkhorn_oracle(volume64)
    converged_gap = float(np.abs(converged.values.data - oracle.values.data).max())
    assert converged_gap < 1e-6

    _report(2, f"10-iteration plan within {worst_gap:.1e} (<0.05) of the independent "
               f"oracle; converged runs agree to {converged_gap:.1e} (<1e-6)")


def test_criterion_3_deam_identity_at_initialization():
    rng = np.random.default_rng(103)
    params = md.init_params(ot.deam_layout(16), rng)
    x_l = Tensor(rng.normal(size=(2, 16, 6, 12)).astype(np.float32))
    x_r = Tensor(rng.normal(size=(2, 16, 6, 12)).astype(np.float32))
    f_l, f_r, _ = ot.deam_forward(x_l, x_r, params)
    assert np.array_equal(f_l.data, x_l.data)
    assert np.array_equal(f_r.data, x_r.data)
    _report(3, "freshly initialized cross-view stage is bit-identical to its inputs")


def test_criterion_4_gradient_suite():
    start = time.monotonic()
    results = verify.gradient_suite(seed=104)
    elapsed = time.monotonic() - start
    for r in results:
        assert r.passed, f"{r.name}: {r.max_rel_err:.3e} >= {r.tolerance}"
    assert elapsed < 120.0
    primitive_worst = max(r.max_rel_err for r in results if r.name != "end_to_end")
    e2e = next(r for r in results if r.name == "end_to_end")
    _report(4, f"{len(results) - 1} primitives worst {primitive_worst:.2e} (<1e-4), "
               f"end-to-end {e2e.max_rel_err:.2e} (<1e-3), in {elapsed:.0f}s (<120s)")


def test_criterion_5_overfit_convergence():
    lr_pair, hr_pair = make_lr_hr_pair(height=96, width=288, scale=4)
    assert lr_pair.left.shape == (1, 3, 24, 72)
    baseline_l = psnr(bilinear_upsample(lr_pair.left, 4), hr_pair.left)
    baseline_r = psnr(bilinear_upsample(lr_pair.right, 4), hr_pair.right)

    cfg = ModelConfig(n_blocks=2, width=16, scale=4)
    start = time.monotonic()
    log = []
    overfit(lr_pair, hr_pair, cfg, steps=2000, seed=0, log_fn=log.append)
    elapsed = time.monotonic() - start

    ratio = log[-1].loss / log[0].loss
    gain_l = log[-1].psnr_left - baseline_l
    gain_r = log[-1].psnr_right - baseline_r
    assert ratio <= 0.10
    assert gain_l >= 10.0
    assert gain_r >= 10.0
    _report(5, f"2000 steps in {elapsed / 60:.1f} min: loss ratio {ratio:.3f} (<=0.10), "
               f"PSNR gain over bilinear {gain_l:.1f}/{gain_r:.1f} dB (>=10)")


def test_criterion_6_shipped_constants():
    assert FREQ_WEIGHT == 0.01
    assert SinkhornConfig().iters == 10
    assert ModelConfig().sinkhorn_iters == 10
    assert (LR_MAX, LR_MIN) == (3e-4, 1e-8)
    assert (BETA1, BETA2) == (0.9, 0.99)
    assert cosine_lr(0, 1000) == 3e-4
    assert abs(cosine_lr(1000, 1000) - 1e-8) < 1e-20
    # no weight decay: zero gradients with zero momentum leave every weight as it was
    dummy = md.init_model(ModelConfig(n_blocks=1, width=8, scale=2,
                                      lska_branches=(LskaBranch(3, 3, 1),)), seed=0)
    zeros = [np.zeros_like(t.data) for t in dummy.tensors()]
    stepped, _ = lion_step(dummy, zeros, zeros, lr=3e-4)
    for before, after in zip(dummy.tensors(), stepped.tensors()):
        assert np.array_equal(before.data, after.data)
    _report(6, "frequency weight 0.01, 10 transport iterations, lr 3e-4 -> 1e-8, "
               "Lion betas 0.9/0.99, weight decay 0, all shipped defaults")


def test_criterion_7_shape_and_identity_laws():
    cfg = ModelConfig(n_blocks=1, width=8, scale=4, lska_branches=(LskaBranch(3, 3, 1),))
    store = md.init_model(cfg, seed=107)
    rng = np.random.default_rng(107)
    pair = StereoPair(
        left=Tensor(rng.uniform(size=(1, 3, 7, 9)).astype(np.float32)),
        right=Tensor(rng.uniform(size=(1, 3, 7, 9)).astype(np.float32)),
    )
    out = md.forward(pair, store)
    assert out.left.shape == (1, 3, 28, 36)
    assert out.right.shape == (1, 3, 28, 36)

    zeroed = store.replace_values(
        tz.zeros(t.shape) if name.startswith("head.") else t for name, t in store.items()
    )
    reduced = md.forward(pair, zeroed)
    assert np.array_equal(reduced.left.data, bilinear_upsample(pair.left, 4).data)
    assert np.array_equal(reduced.right.data, bilinear_upsample(pair.right, 4).data)

    branches = (LskaBranch(3, 3, 1),)
    block = md.init_params(bk.mscab_layout(8, branches), np.random.default_rng(108))
    zero = tz.zeros((1, 8, 1, 1))
    block = {**block, "mscam.res_scale": zero, "sffn.res_scale": zero}
    x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
    assert np.array_equal(bk.mscab_forward(x, block, branches).data, x.data)
    _report(7, "4x forward shape law, zeroed head == bilinear exactly, "
               "zero-scale block == identity exactly")


def test_criterion_8_serialization(tmp_path):
    cfg = ModelConfig(n_blocks=2, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),),
                      single_interaction=True)
    store = md.init_model(cfg, seed=108)
    path = tmp_path / "weights.msin"
    md.save_weights(store, path)
    loaded = md.load_weights(path)
    assert loaded.config == cfg
    assert loaded.names() == store.names()
    for a, b in zip(store.tensors(), loaded.tensors()):
        assert np.array_equal(a.data, b.data)

    corrupt = bytearray(path.read_bytes())
    corrupt[:4] = b"NOPE"
    bad_path = tmp_path / "bad.msin"
    bad_path.write_bytes(bytes(corrupt))
    try:
        md.load_weights(bad_path)
        raise AssertionError("corrupted header accepted")
    except md.WeightFormatError:
        pass
    _report(8, "weight store round-trips bit-exactly; corrupted header rejected")


def test_criterion_9_metrics_closed_forms():
    a = Tensor(np.full((1, 3, 16, 16), 0.4, np.float32))
    b = Tensor(np.full((1, 3, 16, 16), 0.5, np.float32))
    value = psnr(a, b)
    assert abs(value - 20.0) < 1e-4

    img = Tensor(np.random.default_rng(109).uniform(size=(1, 3, 14, 15)).astype(np.float32))
    assert ssim(img, img) == 1.0

    other = Tensor(1.0 - img.data)
    dual_gap = abs(ssim(img, other) - ssim_direct(img, other))
    assert dual_gap < 1e-6
    _report(9, f"uniform 0.1 error -> {value:.2f} dB, SSIM self-similarity exactly 1.0, "
               f"dual SSIM implementations agree to {dual_gap:.1e} (<1e-6)")
