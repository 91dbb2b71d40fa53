"""Tests of the benchmark's own code: tracing, references and checks.

Run from the repository root (takes about a minute):

    python3 -m pytest -q bench/tests/check_bench.py

The file name keeps these tests out of the program's own test run.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from stereosr import tensor, transport  # noqa: E402
from tracing import Tracer, layer_metric_names  # noqa: E402


def _run(cls, tmp_path_factory, trace: bool, seed: int = 5, seconds: float = 0.0):
    """Build a workload, run its two minimum operations, collect outputs."""
    wl = cls(seed, str(tmp_path_factory.mktemp(cls.name)))
    tracer = Tracer() if trace else None
    if tracer is None:
        clock = workloads.Clock(seconds)
        wl.run(clock)
    else:
        with tracer.installed():
            clock = workloads.Clock(seconds, tracer)
            wl.run(clock)
    return wl, tracer, clock, wl.outputs()


@pytest.fixture(scope="module")
def infer_plain(tmp_path_factory):
    return _run(workloads.Infer, tmp_path_factory, trace=False)


@pytest.fixture(scope="module")
def infer_traced(tmp_path_factory):
    return _run(workloads.Infer, tmp_path_factory, trace=True)


@pytest.fixture(scope="module")
def tiny_plain(tmp_path_factory):
    return _run(workloads.TrainTiny, tmp_path_factory, trace=False, seconds=0.5)


@pytest.fixture(scope="module")
def tiny_traced(tmp_path_factory):
    return _run(workloads.TrainTiny, tmp_path_factory, trace=True, seconds=0.5)


@pytest.fixture(scope="module")
def png_traced(tmp_path_factory):
    return _run(workloads.PngEval, tmp_path_factory, trace=True)


def _bindings():
    """Every attribute of every stereosr module, and GradTape's methods."""
    mods = {n: m for n, m in sys.modules.items() if n == "stereosr" or n.startswith("stereosr.")}
    out = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    for attr in ("gradients", "__enter__", "__exit__"):
        out[("GradTape", attr)] = getattr(tensor.GradTape, attr)
    return out


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_tracer_restores_every_wrapped_function(tiny_traced):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    # every traced function is replaced wherever it is bound, GradTape too
    assert ("stereosr.model", "forward") in changed
    assert ("stereosr.train", "forward") in changed
    assert ("stereosr.blocks", "conv2d") in changed
    assert ("GradTape", "gradients") in changed
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []
    assert set(after) == set(before)


def test_tracer_restores_when_the_body_raises():
    before = _bindings()
    with pytest.raises(KeyError):
        with Tracer().installed():
            raise KeyError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reports_every_layer_metric(tiny_traced):
    _, tracer, clock, _ = tiny_traced
    layers = tracer.layer_metrics(range(1, len(clock.ends)))
    assert [k for k, _ in layer_metric_names()] == list(layers)
    assert layers["tensor.tape_records"] > 0
    assert layers["train.lion_step_calls"] == 1
    assert layers["tensor.gradients_calls"] == 1


def test_infer_traced_and_untraced_outputs_are_bit_identical(infer_plain, infer_traced):
    for view in ("left", "right"):
        assert infer_plain[3][view] == infer_traced[3][view]


def test_train_traced_and_untraced_losses_are_bit_identical(tiny_plain, tiny_traced):
    plain = [e.loss for e in tiny_plain[0].log]
    traced = [e.loss for e in tiny_traced[0].log]
    n = min(len(plain), len(traced))
    assert n >= 2 and plain[:n] == traced[:n]


def test_infer_layer_split(infer_traced):
    _, tracer, clock, _ = infer_traced
    layers = tracer.layer_metrics(range(1, len(clock.ends)))
    assert layers["model.forward_calls"] == 1
    assert layers["model.forward_self_s"] < 0.05 * layers["model.forward_s"]
    assert layers["tensor.gradients_calls"] == 0
    assert layers["tensor.tape_records"] == 0
    assert layers["transport.sinkhorn_calls"] == len(workloads.Infer.cfg.deam_stages())


def test_png_eval_layer_split(png_traced):
    _, tracer, clock, _ = png_traced
    layers = tracer.layer_metrics(range(1, len(clock.ends)))
    assert layers["model.forward_calls"] == 0
    assert layers["tensor.gradients_calls"] == 0
    assert layers["images.decode_png_calls"] == 2
    assert layers["metrics.ssim_calls"] == 2


# ---------------------------------------------------------------------------
# Each reference check passes on the program's output and fails on a
# perturbed copy of it
# ---------------------------------------------------------------------------

def _bump_pixel(blob: bytes) -> bytes:
    from stereosr.images import ImageBuffer, decode_png, encode_png
    pixels = decode_png(blob).pixels.copy()
    pixels[3, 5, 1] = (int(pixels[3, 5, 1]) + 128) % 256
    return encode_png(ImageBuffer(pixels))


def test_infer_checks(infer_plain):
    wl, _, _, out = infer_plain
    assert wl.check(out) == []
    assert wl.check(dict(out, left=_bump_pixel(out["left"])))
    assert wl.check(dict(out, right=out["right"][:-20]))
    errors = list(out["plan_row_errors"])
    errors[7] = 1e-5
    assert wl.check(dict(out, plan_row_errors=errors))
    assert wl.check(dict(out, plan_row_errors=errors[:-1]))


def test_infer_check_catches_a_broken_transport(tmp_path_factory, monkeypatch):
    # a row softmax in place of Sinkhorn: only nonzero fusion scales show it
    def softmax_plan(m, cfg=transport.SinkhornConfig()):
        lse = tensor.logsumexp(m.values, axis=3)
        return transport.TransportPlan(values=tensor.exp(tensor.sub(m.values, lse)))

    monkeypatch.setattr(transport, "sinkhorn", softmax_plan)
    wl, _, _, out = _run(workloads.Infer, tmp_path_factory, trace=False)
    assert any("reference" in f for f in wl.check(out))


def test_infer_single_level_rule():
    expected = np.full((3, 2, 2), 100.4 / 255.0)
    assert ref.check_quantized("x", expected, np.full((2, 2, 3), 100, np.uint8)) == []
    assert ref.check_quantized("x", expected, np.full((2, 2, 3), 101, np.uint8))
    assert ref.check_quantized("x", np.full((3, 2, 2), np.nan), np.zeros((2, 2, 3), np.uint8))


def test_train_checks(tiny_plain):
    wl, _, _, out = tiny_plain
    assert wl.check(out) == []
    losses = list(out["losses"])
    assert wl.check(dict(out, losses=[losses[0] * (1 + 1e-4)] + losses[1:]))
    assert wl.check(dict(out, losses=losses[:-1] + [float("nan")]))
    assert wl.check(dict(out, losses=[]))
    assert wl.check(dict(out, analytic=out["analytic"] * (1 + 2e-3)))


def test_kinks_are_sign_changes_of_live_dft_differences():
    minus = np.array([3.0, -2.0, 1e-17, 5.0])
    assert not ref.straddles_kink(minus, np.array([2.0, -1.0, -1e-17, 4.0]))
    assert ref.straddles_kink(minus, np.array([2.0, 1e-3, 1e-17, 4.0]))


def test_png_eval_checks(png_traced):
    wl, _, _, out = png_traced
    assert wl.check(out) == []
    res = [dict(r) for r in out["results"]]
    res[0]["decoded"] = res[0]["decoded"].copy()
    res[0]["decoded"][10, 10, 0] ^= 1
    assert wl.check(dict(out, results=res))
    assert wl.check(dict(out, lr_blobs=[_bump_pixel(out["lr_blobs"][0]), out["lr_blobs"][1]]))
    for key, delta in (("psnr", 1e-6), ("ssim", 1e-7)):
        res = [dict(r) for r in out["results"]]
        res[1][key] += delta
        assert wl.check(dict(out, results=res))
    assert wl.check(dict(out, constant_shrunk=out["constant_shrunk"] + 1e-5))


def test_png_reader_undoes_every_filter():
    import inputs
    rng = np.random.default_rng(0)
    pixels = inputs.render_pair(rng, 40, 60)[0]
    blob, filters = inputs.encode_png(pixels)
    assert set(filters.tolist()) >= {1, 2, 4}
    assert np.array_equal(ref.read_png(blob), pixels)
    from stereosr.images import decode_png
    assert np.array_equal(decode_png(blob).pixels, pixels)


def test_reference_metrics_match_closed_forms():
    a = np.zeros((3, 20, 20))
    b = np.full((3, 20, 20), 0.1)
    assert ref.psnr(a, b) == pytest.approx(20.0)
    assert ref.ssim(a, a) == pytest.approx(1.0)


def test_reference_sinkhorn_matches_the_oracle_when_converged():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(2, 6, 6))
    plan = ref.sinkhorn_plan(scores, 500)
    oracle = transport.sinkhorn_oracle(transport.CostVolume(tensor.Tensor(scores[None]))).values.data[0]
    np.testing.assert_allclose(plan, oracle, atol=1e-8)
