"""Network assembly: configuration, initialization, forward laws, and the
weight file format."""

import hashlib
import io
import itertools
import math
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stereosr
from stereosr import model as md
from stereosr import tensor as tz
from stereosr.blocks import LskaBranch
from stereosr.model import ModelConfig, StereoPair, WeightFormatError, WeightStore
from stereosr.tensor import Tensor, bilinear_upsample
from stereosr.train import loss_total


def tiny_config(**kwargs):
    defaults = dict(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),))
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def random_pair(rng, shape=(1, 3, 6, 10)):
    return StereoPair(
        left=Tensor(rng.uniform(size=shape).astype(np.float32)),
        right=Tensor(rng.uniform(size=shape).astype(np.float32)),
    )


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.n_blocks == 32
        assert cfg.width == 48
        assert cfg.scale == 4
        assert cfg.sinkhorn_iters == 10
        assert cfg.share_view_weights

    @pytest.mark.parametrize("kwargs", [
        dict(n_blocks=0), dict(width=2), dict(width=7), dict(scale=3),
        dict(sinkhorn_iters=0), dict(lska_branches=()),
        dict(n_blocks=md.MAX_BLOCKS + 1), dict(width=md.MAX_WIDTH + 2),
        dict(lska_branches=(LskaBranch(3, 3, 1),) * (md.MAX_BRANCHES + 1)),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    def test_deam_stage_placement(self):
        assert tiny_config(n_blocks=3).deam_stages() == (0, 1, 2)
        assert tiny_config(n_blocks=3, single_interaction=True).deam_stages() == (2,)


class TestInitModel:
    def test_same_seed_is_bit_identical(self):
        cfg = tiny_config(n_blocks=2)
        a = md.init_model(cfg, seed=7)
        b = md.init_model(cfg, seed=7)
        assert a.names() == b.names()
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        cfg = tiny_config()
        a = md.init_model(cfg, seed=1)
        b = md.init_model(cfg, seed=2)
        assert any(not np.array_equal(x.data, y.data) for x, y in zip(a.tensors(), b.tensors()))

    def test_fusion_scales_start_at_zero(self):
        store = md.init_model(tiny_config(n_blocks=2), seed=0)
        scale_names = [n for n in store.names() if "fuse_scale" in n]
        assert scale_names
        for name in scale_names:
            np.testing.assert_array_equal(store[name].data, 0.0)

    def test_default_param_count_sanity_band(self):
        # full-size default model lands in the expected ~1-2M range
        store = md.init_model(ModelConfig(), seed=0)
        assert 0.5e6 < sum(t.numel for t in store.tensors()) < 4e6

    @pytest.mark.parametrize("change, match", [
        (lambda ts: ts[:-1], "expected"),
        (lambda ts: [Tensor(ts[0].data[..., :1]), *ts[1:]], "shape"),
    ], ids=["count", "shape"])
    def test_replace_values_rejects_another_layout(self, change, match):
        store = md.init_model(tiny_config(), seed=0)
        with pytest.raises(tz.ShapeError, match=match):
            store.replace_values(change(store.tensors()))

    def test_unshared_views_have_separate_weights(self):
        store = md.init_model(tiny_config(share_view_weights=False), seed=0)
        assert "left.intro.weight" in store
        assert "right.intro.weight" in store
        assert not np.array_equal(
            store["left.intro.weight"].data, store["right.intro.weight"].data
        )


class TestInitOracle:
    """The seeded init, redrawn without the layout tables: walking the store
    in order, ``.weight`` tensors are uniform(-k, k) with k =
    1/sqrt(prod(shape[1:])) from one generator, norm gains and residual
    scales are one, and everything else is zero."""

    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        ModelConfig(n_blocks=3, width=8, share_view_weights=False),
        ModelConfig(n_blocks=3, width=8, single_interaction=True),
    ], ids=["shared", "unshared", "single_interaction"])
    def test_store_matches_name_rule(self, cfg):
        store = md.init_model(cfg, seed=21)
        rng = np.random.default_rng(21)
        for name, t in store.items():
            if name.endswith(".weight"):
                k = 1.0 / np.sqrt(np.prod(t.shape[1:]))
                want = rng.uniform(-k, k, size=t.shape).astype(np.float32)
            elif name.endswith(".gain") or name.endswith(".res_scale"):
                want = np.ones(t.shape, np.float32)
            else:
                want = np.zeros(t.shape, np.float32)
            assert t.dtype == np.float32, name
            assert np.array_equal(t.data, want), name


class TestForward:
    def test_output_shape_law(self):
        cfg = tiny_config(scale=4)
        store = md.init_model(cfg, seed=0)
        pair = random_pair(np.random.default_rng(0), (1, 3, 5, 7))
        out = md.forward(pair, store)
        assert out.left.shape == (1, 3, 20, 28)
        assert out.right.shape == (1, 3, 20, 28)

    def test_zero_head_reduces_to_bilinear(self):
        cfg = tiny_config(scale=2)
        store = md.init_model(cfg, seed=1)
        zeroed = []
        for name, t in store.items():
            if name.startswith("head."):
                zeroed.append(tz.zeros(t.shape))
            else:
                zeroed.append(t)
        store = store.replace_values(zeroed)
        pair = random_pair(np.random.default_rng(1))
        out = md.forward(pair, store)
        np.testing.assert_array_equal(out.left.data, bilinear_upsample(pair.left, 2).data)
        np.testing.assert_array_equal(out.right.data, bilinear_upsample(pair.right, 2).data)

    def test_initialized_deam_contributes_nothing(self):
        # scrambling every cross-view projection must not change the output
        # while the fusion scales are still zero
        cfg = tiny_config(n_blocks=2)
        store = md.init_model(cfg, seed=2)
        rng = np.random.default_rng(3)
        scrambled = [
            Tensor(rng.normal(size=t.shape).astype(np.float32))
            if name.startswith("deam.") and "fuse_scale" not in name else t
            for name, t in store.items()
        ]
        pair = random_pair(np.random.default_rng(4))
        base = md.forward(pair, store)
        other = md.forward(pair, store.replace_values(scrambled))
        np.testing.assert_array_equal(base.left.data, other.left.data)
        np.testing.assert_array_equal(base.right.data, other.right.data)

    def test_cost_volume_over_bound_rejected_before_any_convolution(self, monkeypatch):
        # 1 * 5793^2 = 33,558,849 > 2^25; 1 * 5792^2 = 33,547,264 is within
        def apply_conv(*args):
            raise AssertionError("a convolution ran before the size check")

        monkeypatch.setattr(md, "apply_conv", apply_conv)
        store = md.init_model(tiny_config(), seed=0)
        wide = StereoPair(left=tz.zeros((1, 3, 1, 5793)), right=tz.zeros((1, 3, 1, 5793)))
        with pytest.raises(tz.ShapeError, match="1x5793"):
            md.forward(wide, store)
        md.check_cost_volume(1, 5792)

    def test_batch_counts_in_the_cost_volume_bound(self, monkeypatch):
        # 2 * 1 * 4097^2 = 33,570,818 > 2^25; one such pair is within
        def apply_conv(*args):
            raise AssertionError("a convolution ran")

        monkeypatch.setattr(md, "apply_conv", apply_conv)
        store = md.init_model(tiny_config(), seed=0)
        two = StereoPair(left=tz.zeros((2, 3, 1, 4097)), right=tz.zeros((2, 3, 1, 4097)))
        with pytest.raises(tz.ShapeError, match="33570818 for 2 pairs"):
            md.forward(two, store)
        one = StereoPair(left=tz.zeros((1, 3, 1, 4097)), right=tz.zeros((1, 3, 1, 4097)))
        with pytest.raises(AssertionError, match="a convolution ran"):
            md.forward(one, store)

    def test_views_of_different_sizes_rejected(self):
        with pytest.raises(tz.ShapeError, match="left view is 8x12 but right view is 8x16"):
            StereoPair(left=tz.zeros((1, 3, 8, 12)), right=tz.zeros((1, 3, 8, 16)))

    def test_wrong_channel_count_rejected(self):
        cfg = tiny_config()
        store = md.init_model(cfg, seed=0)
        bad = StereoPair(left=tz.zeros((1, 4, 6, 6)), right=tz.zeros((1, 4, 6, 6)))
        with pytest.raises(tz.ShapeError, match="channel"):
            md.forward(bad, store)

    @pytest.mark.parametrize("other", [{"n_blocks": 1}, {"global_residual": False}],
                             ids=["one-block", "no-residual"])
    def test_config_other_than_the_stores_rejected(self, other):
        # either would run another network on the store's weights: one
        # block of its two, or no global residual
        cfg = ModelConfig(n_blocks=2, width=16)
        store = md.init_model(cfg, seed=13)
        pair = random_pair(np.random.default_rng(14))
        with pytest.raises(ValueError, match="is not the weight store's"):
            md.forward(pair, store, replace(cfg, **other))

    def test_stores_own_config_runs(self):
        cfg = ModelConfig(n_blocks=2, width=16)
        store = md.init_model(cfg, seed=13)
        pair = random_pair(np.random.default_rng(14))
        given, default = md.forward(pair, store, cfg), md.forward(pair, store)
        np.testing.assert_array_equal(given.left.data, default.left.data)
        np.testing.assert_array_equal(given.right.data, default.right.data)

    def test_view_swap_symmetry_with_symmetric_stages(self):
        # symmetric cross-view parameters + converged transport -> swapping
        # the input views swaps the outputs
        cfg = tiny_config(n_blocks=1, sinkhorn_iters=200)
        store = md.init_model(cfg, seed=5)
        symmetric = []
        for name, t in store.items():
            if "fuse_scale" in name:
                symmetric.append(tz.full(t.shape, 0.5))
            elif name.startswith("deam.") and ("norm_r" in name or "match_r" in name or "value_r" in name):
                symmetric.append(store[name.replace("_r", "_l")])
            else:
                symmetric.append(t)
        store = store.replace_values(symmetric)
        pair = random_pair(np.random.default_rng(6))
        out = md.forward(pair, store)
        swapped = md.forward(StereoPair(left=pair.right, right=pair.left), store)
        np.testing.assert_allclose(swapped.left.data, out.right.data, atol=2e-5)
        np.testing.assert_allclose(swapped.right.data, out.left.data, atol=2e-5)

    def test_unshared_views_forward(self):
        cfg = tiny_config(share_view_weights=False)
        store = md.init_model(cfg, seed=9)
        pair = random_pair(np.random.default_rng(10))
        out = md.forward(pair, store)
        assert out.left.shape == (1, 3, 12, 20)
        # identical views now diverge because the per-view weights differ
        same = StereoPair(left=pair.left, right=pair.left)
        out_same = md.forward(same, store)
        assert not np.array_equal(out_same.left.data, out_same.right.data)

    def test_single_interaction_forward(self):
        cfg = tiny_config(n_blocks=3, single_interaction=True)
        store = md.init_model(cfg, seed=11)
        assert [n for n in store.names() if n.startswith("deam.")] == [
            n for n in store.names() if n.startswith("deam.2.")
        ]
        pair = random_pair(np.random.default_rng(12))
        assert md.forward(pair, store).left.shape == (1, 3, 12, 20)

    def test_repeat_run_is_bit_identical(self):
        cfg = tiny_config(n_blocks=2)
        store = md.init_model(cfg, seed=7)
        pair = random_pair(np.random.default_rng(8))
        a = md.forward(pair, store)
        b = md.forward(pair, store)
        np.testing.assert_array_equal(a.left.data, b.left.data)
        np.testing.assert_array_equal(a.right.data, b.right.data)

    def test_bit_identical_across_blas_thread_counts(self):
        script = (
            "import numpy as np, hashlib\n"
            "from stereosr import metrics as mt, model as md, tensor as tz, transport as ot\n"
            "from stereosr.model import ModelConfig, StereoPair\n"
            "from stereosr.blocks import LskaBranch\n"
            "from stereosr.tensor import Tensor\n"
            "cfg = ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3,3,1),))\n"
            "store = md.init_model(cfg, seed=3)\n"
            "rng = np.random.default_rng(9)\n"
            "pair = StereoPair(left=Tensor(rng.uniform(size=(1,3,6,10)).astype(np.float32)),"
            " right=Tensor(rng.uniform(size=(1,3,6,10)).astype(np.float32)))\n"
            "out = md.forward(pair, store)\n"
            "scores = Tensor((rng.normal(size=(1,8,96,96))*3).astype(np.float32))\n"
            "cot = rng.normal(size=(1,8,96,96)).astype(np.float32)\n"
            "with tz.GradTape() as tape:\n"
            "    plan = ot.sinkhorn(ot.CostVolume(values=scores)).values\n"
            "(grad,) = tape.gradients(plan, [scores], cot)\n"
            "digest = hashlib.sha256(out.left.data.tobytes()+out.right.data.tobytes()"
            "+plan.data.tobytes()+grad.tobytes())\n"
            # a 256x256 map holds about 66k elements, long enough for BLAS
            # to split a dot product across threads; the 1x11 kernel's
            # forward is one batched matrix-matrix product
            "x = Tensor(rng.normal(size=(1,8,256,256)).astype(np.float32))\n"
            "for shape, dilation in (((8,1,3,3),(1,1)), ((8,1,1,11),(1,3)), ((8,8,3,3),(1,1))):\n"
            "    w = Tensor(rng.normal(size=shape).astype(np.float32))\n"
            "    g = rng.normal(size=x.shape).astype(np.float32)\n"
            "    with tz.GradTape() as tape:\n"
            "        out = tz.conv2d(x, w, tz.zeros((1,8,1,1)), dilation)\n"
            "    digest.update(out.data.tobytes())\n"
            "    for d in tape.gradients(out, [x, w], g):\n"
            "        digest.update(d.tobytes())\n"
            # float64 weight gradients at 128x128: depthwise taps take dot
            # products of 16.3k-16.4k entries per channel, which BLAS would
            # split, and the full kernel one product of that length per tap
            "x = Tensor(rng.normal(size=(1,8,128,128)))\n"
            "for shape, dilation in (((8,1,3,3),(1,1)), ((8,1,1,11),(1,3)), ((8,8,3,3),(1,1))):\n"
            "    w = Tensor(rng.normal(size=shape))\n"
            "    g = rng.normal(size=x.shape)\n"
            "    with tz.GradTape() as tape:\n"
            "        out = tz.conv2d(x, w, tz.zeros((1,8,1,1), np.float64), dilation)\n"
            "    digest.update(out.data.tobytes())\n"
            "    for d in tape.gradients(out, [x, w], g):\n"
            "        digest.update(d.tobytes())\n"
            # 48 channels at 64x64 take 10 blocks of copied taps, and the
            # 11x1 kernel at dilation 3 reads padding on 15 rows each side
            "x = Tensor(rng.normal(size=(1,48,64,64)).astype(np.float32))\n"
            "w = Tensor(rng.normal(size=(48,1,11,1)).astype(np.float32))\n"
            "g = rng.normal(size=x.shape).astype(np.float32)\n"
            "with tz.GradTape() as tape:\n"
            "    out = tz.conv2d(x, w, tz.zeros((1,48,1,1)), (3,1))\n"
            "digest.update(out.data.tobytes())\n"
            "for d in tape.gradients(out, [x, w], g):\n"
            "    digest.update(d.tobytes())\n"
            # the fused 1x1 convolution in float64 with a norm and a scale:
            # its products contract 48 channels or 4,096 sites, and the norm
            # and the weights' folds are plain reductions
            "ops = [Tensor(rng.normal(size=s)) for s in ((1,48,64,64), (48,48,1,1), (1,48,1,1),"
            " (1,48,1,1), (1,48,1,1), (1,48,1,1))]\n"
            "g = rng.normal(size=(1,48,64,64))\n"
            "with tz.GradTape() as tape:\n"
            "    out = tz.conv1x1(*ops[:3], ops[3:5], ops[5])\n"
            "digest.update(out.data.tobytes())\n"
            "for d in tape.gradients(out, ops, g):\n"
            "    digest.update(d.tobytes())\n"
            # float64 SSIM of a 200x900 RGB pair: its window means are
            # products of banded matrices with tiles of both images
            "pair = [Tensor(rng.uniform(size=(1,3,200,900))) for _ in range(2)]\n"
            "digest.update(repr(mt.ssim(*pair)).encode())\n"
            "print(digest.hexdigest())\n"
        )
        # the child sees only PATH, the thread count and the directory that
        # holds the stereosr package this process imported (a source tree or
        # an install); inheriting the rest of the environment could carry
        # e.g. OMP_NUM_THREADS and defeat the thread-count setting.  It
        # writes no bytecode, so the test leaves the source tree as it was
        package_root = str(Path(stereosr.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={
                    "PATH": "/usr/bin:/bin",
                    "OPENBLAS_NUM_THREADS": threads,
                    "PYTHONPATH": package_root,
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
            )
            assert proc.returncode == 0, (
                f"child with OPENBLAS_NUM_THREADS={threads} exited "
                f"{proc.returncode}:\n{proc.stderr}"
            )
            digest = proc.stdout.strip()
            assert re.fullmatch(r"[0-9a-f]{64}", digest), (
                f"child with OPENBLAS_NUM_THREADS={threads} printed {proc.stdout!r}, "
                "not one SHA-256 hex digest"
            )
            digests.add(digest)
        assert len(digests) == 1


class TestBlockReplay:
    """One block replayed alone on a fresh tape, from a leaf copy of its
    input and seeded with its output's cotangent from the whole step, gives
    the whole tape's gradients bit for bit.  Every reader of a block's
    input lies inside the block, so its cotangent accumulates in the same
    order either way: the condition a checkpointed block rests on."""

    @pytest.mark.parametrize("share", [True, False], ids=["shared", "separate"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_seeded_replay_matches_the_full_tape(self, monkeypatch, dtype, share):
        cfg = ModelConfig(n_blocks=2, width=16, share_view_weights=share)
        rng = np.random.default_rng(16)
        # perturbed so that the cross-view stages, zero at init, are live
        store = WeightStore(cfg, [
            (name, Tensor((t.data + rng.normal(0.0, 0.05, t.shape)).astype(dtype)))
            for name, t in md.init_model(cfg, seed=0).items()])
        lr, hr = (StereoPair(*(Tensor(rng.uniform(size=(1, 3, h, w)).astype(dtype))
                               for _ in range(2))) for h, w in ((24, 72), (96, 288)))
        calls = []   # (input, params, output) per MSCAB: block 0 left, right, block 1 ...
        mscab_forward = md._blocks.mscab_forward

        def capture(x, params, branches):
            out = mscab_forward(x, params, branches)
            calls.append((x, params, out))
            return out

        monkeypatch.setattr(md._blocks, "mscab_forward", capture)
        with tz.GradTape() as tape:
            loss = loss_total(md.forward(lr, store), hr)
        block = calls[2:4]
        ends = [t for x, _, out in block for t in (x, out)]
        *grads, g_in_l, g_out_l, g_in_r, g_out_r = tape.gradients(loss, store.tensors() + ends)
        full = dict(zip(store.names(), grads))

        replayed = {}
        for (x, params, _), g_in, g_out, prefix in zip(
                block, (g_in_l, g_in_r), (g_out_l, g_out_r), md._views(cfg)):
            leaf = Tensor(x.data.copy())
            with tz.GradTape() as replay:
                out = mscab_forward(leaf, params, cfg.lska_branches)
            g_leaf, *g_params = replay.gradients(out, [leaf, *params.values()], g_out)
            assert np.array_equal(g_leaf, g_in)
            for name, g in zip(params, g_params):
                key = f"{prefix}block.1.{name}"
                replayed[key] = replayed[key] + g if key in replayed else g
        assert len(replayed) == len(params) * (1 if share else 2)
        for key, g in replayed.items():
            assert np.array_equal(g, full[key]), key


class TestSerialization:
    def _store(self):
        return md.init_model(tiny_config(n_blocks=2, single_interaction=True), seed=11)

    def test_round_trip_is_bit_exact(self, tmp_path):
        store = self._store()
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        loaded = md.load_weights(path)
        assert loaded.config == store.config
        assert loaded.names() == store.names()
        for a, b in zip(store.tensors(), loaded.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_branch_count_at_cap_round_trips(self, tmp_path):
        cfg = tiny_config(lska_branches=(LskaBranch(3, 3, 1),) * md.MAX_BRANCHES)
        path = tmp_path / "weights.msin"
        md.save_weights(md.init_model(cfg, seed=12), path)
        assert md.load_weights(path).config == cfg

    def test_file_size_arithmetic(self, tmp_path):
        store = self._store()
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        cfg = store.config
        header = 4 + 4 + 4 * 4 + 12 * len(cfg.lska_branches) + 4 * 2 + 4
        body = sum(2 + len(n.encode()) + 1 + 4 * 4 + 4 * math.prod(shape)
                   for n, shape, _ in md.layout(cfg))
        assert path.stat().st_size == header + body

    def test_tensor_past_the_config_size_rejected(self, tmp_path):
        # an extra tensor makes the count one more than the config's layout
        store = self._store()
        extra = WeightStore(store.config, [*store.items(), ("extra", tz.zeros((1, 1, 1, 1)))])
        path = tmp_path / "weights.msin"
        md.save_weights(extra, path)
        count = f"holds {len(store) + 1} tensors, but its config's layout has {len(store)}"
        with pytest.raises(WeightFormatError, match=count):
            md.load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="magic"):
            md.load_weights(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="version"):
            md.load_weights(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(WeightFormatError, match="truncated"):
            md.load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(WeightFormatError, match="trailing"):
            md.load_weights(path)

    def test_duplicate_names_rejected(self, tmp_path):
        # a layout name twice, so the count and every shape are right
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        blob = path.read_bytes().replace(b"block.1.mscam.norm.gain", b"block.0.mscam.norm.gain")
        path.write_bytes(blob)
        with pytest.raises(WeightFormatError, match="duplicate"):
            md.load_weights(path)

    @pytest.mark.parametrize("share, single, residual",
                             list(itertools.product([False, True], repeat=3)))
    def test_flag_word_for_every_combination(self, tmp_path, share, single, residual):
        cfg = tiny_config(share_view_weights=share, single_interaction=single,
                          global_residual=residual)
        path = tmp_path / "weights.msin"
        md.save_weights(md.init_model(cfg, seed=13), path)
        flags_offset = 4 + 4 + 16 + 12 * len(cfg.lska_branches) + 4
        (flags,) = struct.unpack_from("<I", path.read_bytes(), flags_offset)
        assert flags == share * 1 + single * 2 + residual * 4
        assert md.load_weights(path).config == cfg

    def test_golden_file_digest(self, tmp_path):
        # pins the MSIN v1 byte layout and the seeded init together
        path = tmp_path / "weights.msin"
        md.save_weights(md.init_model(ModelConfig(n_blocks=1, width=8), 5), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fb39f328446d500e46c1f11a1b71af6e1dd0a11cee1805398705d7268d6853ca"

    def test_default_config_is_written_without_a_copy_of_the_file(self, tmp_path):
        # records go straight to the file, so saving the 4.27 MiB default
        # store holds about one record's bytes, not the whole file
        store = md.init_model(ModelConfig(), 5)
        path = tmp_path / "weights.msin"
        tracemalloc.start()
        try:
            md.save_weights(store, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blob = path.read_bytes()
        assert len(blob) == 4_477_658
        assert hashlib.sha256(blob).hexdigest().startswith("84a455cecdb70eac")
        assert peak < 1 << 20

    @pytest.mark.parametrize("flags", [0xF0, 0x08], ids=["high_bits", "lowest_unknown_bit"])
    def test_unknown_flags_rejected(self, tmp_path, flags):
        store = self._store()
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        blob = bytearray(path.read_bytes())
        flags_offset = 4 + 4 + 16 + 12 * len(store.config.lska_branches) + 4
        blob[flags_offset:flags_offset + 4] = struct.pack("<I", flags)
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="flag"):
            md.load_weights(path)

    def test_block_count_beyond_file_fails_at_first_missing_tensor(self, tmp_path):
        # a header claiming more blocks than the file holds, but no more
        # than the cap, is rejected at its tensor count, before any record
        store = self._store()
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", md.MAX_BLOCKS)
        path.write_bytes(bytes(blob))
        cfg = replace(store.config, n_blocks=md.MAX_BLOCKS)
        count = f"holds {len(store)} tensors, but its config's layout has {len(list(md.layout(cfg)))}"
        with pytest.raises(WeightFormatError, match=count):
            md.load_weights(path)

    def test_records_in_any_order_load_in_layout_order(self, tmp_path):
        store = self._store()
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        blob = path.read_bytes()
        header = pos = 4 + 4 + 4 * 4 + 12 * len(store.config.lska_branches) + 4 * 3
        records = []
        for t in store.tensors():
            (name_len,) = struct.unpack_from("<H", blob, pos)
            end = pos + 2 + name_len + 1 + 4 * 4 + 4 * t.numel
            records.append(blob[pos:end])
            pos = end
        assert pos == len(blob)
        path.write_bytes(blob[:header] + b"".join(reversed(records)))
        loaded = md.load_weights(path)
        assert loaded.names() == [name for name, _, _ in md.layout(store.config)] == store.names()
        for a, b in zip(store.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("claim", [False, True], ids=["default_config", "claim"])
    def test_no_read_asks_for_more_than_a_name_or_a_layout_tensor(self, tmp_path, monkeypatch,
                                                                    claim):
        # a read reserves the bytes it asks for before they arrive
        path = tmp_path / "weights.msin"
        if claim:
            # test_cli's capped-child claim: the config whose files take
            # 2.45 GB, and a first record that claims 5e8 values
            cfg = ModelConfig(md.MAX_BLOCKS, md.MAX_WIDTH, 4,
                              (LskaBranch(127, 1, 1),) * md.MAX_BRANCHES,
                              share_view_weights=False, global_residual=False)
            rows = list(md.layout(cfg))
            header = struct.pack("<4s5I", b"MSIN", 1, md.MAX_BLOCKS, md.MAX_WIDTH, 4,
                                 md.MAX_BRANCHES)
            header += struct.pack("<3I", 127, 1, 1) * md.MAX_BRANCHES
            header += struct.pack("<3I", 10, 0, len(rows))
            name = rows[0][0].encode()
            first = struct.pack("<H", len(name)) + name + struct.pack("<B4I", 4, 1, 1, 1, 5 * 10**8)
            path.write_bytes(header + first + bytes(64))
        else:
            cfg = ModelConfig()
            md.save_weights(md.init_model(cfg, seed=0), path)
        requests = []

        class LoggedReads(io.BufferedReader):
            def read(self, size=-1):
                requests.append(size)
                return super().read(size)

        monkeypatch.setattr(md, "open", lambda file, mode: LoggedReads(io.FileIO(file, mode)),
                            raising=False)
        if claim:
            with pytest.raises(WeightFormatError, match=r"shape \(1, 1, 1, 500000000\)"):
                md.load_weights(path)
        else:
            assert md.load_weights(path).config == cfg
        bound = max(2**16 - 1, 4 * max(math.prod(shape) for _, shape, _ in md.layout(cfg)))
        assert requests and all(0 <= size <= bound for size in requests), max(requests)

    def test_store_rejects_duplicate_add(self):
        store = WeightStore(tiny_config())
        store.add("x", tz.zeros((1, 1, 1, 1)))
        with pytest.raises(WeightFormatError, match="duplicate"):
            store.add("x", tz.zeros((1, 1, 1, 1)))
