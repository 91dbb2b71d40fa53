"""Network assembly: configuration, initialization, forward laws, and the
weight file format."""

import hashlib
import itertools
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stereosr
from stereosr import model as md
from stereosr import tensor as tz
from stereosr.blocks import LskaBranch
from stereosr.model import ModelConfig, StereoPair, WeightFormatError, WeightStore
from stereosr.tensor import Tensor, bilinear_upsample


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
        assert 0.5e6 < store.param_count < 4e6

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

    def test_wrong_channel_count_rejected(self):
        cfg = tiny_config()
        store = md.init_model(cfg, seed=0)
        bad = StereoPair(left=tz.zeros((1, 4, 6, 6)), right=tz.zeros((1, 4, 6, 6)))
        with pytest.raises(tz.ShapeError, match="channel"):
            md.forward(bad, store)

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
            "from stereosr import model as md, tensor as tz, transport as ot\n"
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
            "cot = Tensor(rng.normal(size=(1,8,96,96)).astype(np.float32))\n"
            "with tz.GradTape() as tape:\n"
            "    plan = ot.sinkhorn(ot.CostVolume(values=scores)).values\n"
            "    loss = tz.sum_all(tz.mul(plan, cot))\n"
            "(grad,) = tape.gradients(loss, [scores])\n"
            "print(hashlib.sha256(out.left.data.tobytes()+out.right.data.tobytes()"
            "+plan.data.tobytes()+grad.tobytes()).hexdigest())\n"
        )
        # the child sees only PATH, the thread count and the directory that
        # holds the stereosr package this process imported (a source tree or
        # an install); inheriting the rest of the environment could carry
        # e.g. OMP_NUM_THREADS and defeat the thread-count setting
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
        body = sum(2 + len(n.encode()) + 1 + 4 * 4 + 4 * t.numel for n, t in store.items())
        assert path.stat().st_size == header + body

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
        cfg = tiny_config()
        store = WeightStore(cfg)
        store.add("aaaa", tz.zeros((1, 1, 1, 1)))
        store.add("bbbb", tz.zeros((1, 1, 1, 1)))
        path = tmp_path / "weights.msin"
        md.save_weights(store, path)
        blob = path.read_bytes().replace(b"bbbb", b"aaaa")
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
        # than the cap, is rejected at the first tensor the file lacks
        path = tmp_path / "weights.msin"
        md.save_weights(self._store(), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", md.MAX_BLOCKS)
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="missing tensor 'block.2.mscam.norm.gain'"):
            md.load_weights(path)

    def test_store_rejects_duplicate_add(self):
        store = WeightStore(tiny_config())
        store.add("x", tz.zeros((1, 1, 1, 1)))
        with pytest.raises(WeightFormatError, match="duplicate"):
            store.add("x", tz.zeros((1, 1, 1, 1)))
