"""Block behavior: attention wiring, identity paths, receptive fields, and
gradients of every block parameter."""

from collections import Counter

import numpy as np
import pytest

from stereosr import blocks as bk
from stereosr import tensor as tz
from stereosr.blocks import LskaBranch
from stereosr.model import init_params
from stereosr.tensor import GradTape, Tensor

ONE_BRANCH = (LskaBranch(3, 3, 1),)


def small_params(c=4, branches=ONE_BRANCH, seed=0):
    return init_params(bk.mscab_layout(c, branches), np.random.default_rng(seed))


class TestSca:
    def test_identity_mixing_on_unit_channels(self):
        c = 3
        y = tz.full((1, c, 4, 4), 1.0)
        eye = Tensor(np.eye(c, dtype=np.float32).reshape(c, c, 1, 1))
        out = bk.sca(y, eye, tz.zeros((1, c, 1, 1)))
        np.testing.assert_allclose(out.data, y.data, atol=1e-7)

    def test_zero_weights_annihilate(self):
        y = tz.tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 4)))
        out = bk.sca(y, tz.zeros((3, 3, 1, 1)), tz.zeros((1, 3, 1, 1)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_scales_by_channel_means(self):
        # identity mixing: each channel is multiplied by its own spatial mean
        c = 2
        data = np.zeros((1, c, 2, 2), np.float32)
        data[0, 0] = 2.0
        data[0, 1] = 3.0
        y = Tensor(data)
        eye = Tensor(np.eye(c, dtype=np.float32).reshape(c, c, 1, 1))
        out = bk.sca(y, eye, tz.zeros((1, c, 1, 1)))
        np.testing.assert_allclose(out.data[0, 0], 4.0, atol=1e-6)
        np.testing.assert_allclose(out.data[0, 1], 9.0, atol=1e-6)


class TestMslska:
    def test_delta_kernels_square_the_input(self):
        c = 3
        branches = (LskaBranch(3, 3, 2),)
        p = {}
        for name, shape, _ in bk.mscab_layout(c, branches):
            if name.startswith("mscam.lska.0.") and name.endswith(".weight"):
                k = np.zeros(shape, np.float32)
                k[:, 0, shape[2] // 2, shape[3] // 2] = 1.0
                p[name] = Tensor(k)
            else:
                p[name] = tz.zeros(shape)
        p["mscam.lska.fuse.weight"] = Tensor(np.eye(c, dtype=np.float32).reshape(c, c, 1, 1))
        y = tz.tensor(np.random.default_rng(1).normal(size=(1, c, 6, 6)))
        out = bk.mslska(y, p, branches)
        np.testing.assert_allclose(out.data, y.data * y.data, atol=1e-6)

    def test_zero_fuse_annihilates(self):
        c = 4
        p = small_params(c)
        p["mscam.lska.fuse.weight"] = tz.zeros((c, c, 1, 1))
        y = tz.tensor(np.random.default_rng(2).normal(size=(1, c, 5, 5)))
        out = bk.mslska(y, p, ONE_BRANCH)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_branch_support_is_effective_field(self):
        # impulse response of one branch stays inside the effective-field box
        c = 1
        branch = LskaBranch(base_k=3, dilated_k=3, dilation=2)
        assert branch.effective_field == 7
        params = small_params(c, (branch,), seed=3)
        impulse = np.zeros((1, c, 9, 9), np.float32)
        impulse[0, 0, 4, 4] = 1.0
        out = bk._lska_branch(Tensor(impulse), params, 0, branch)
        support = np.argwhere(np.abs(out.data[0, 0]) > 0)
        assert support.size > 0
        half = branch.effective_field // 2
        assert support[:, 0].min() >= 4 - half and support[:, 0].max() <= 4 + half
        assert support[:, 1].min() >= 4 - half and support[:, 1].max() <= 4 + half

    def test_no_branches_rejected(self):
        y = tz.tensor(np.random.default_rng(6).normal(size=(1, 4, 5, 5)))
        with pytest.raises(ValueError, match="at least one branch"):
            bk.mslska(y, small_params(4), ())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("branch", bk.default_branches(),
                             ids=lambda b: f"{b.base_k}-{b.dilated_k}-{b.dilation}")
    def test_branch_chain_equals_its_four_convolutions(self, branch, dtype):
        # one conv2d record of the branch against four: the output, the
        # input's cotangent and all eight kernel and bias cotangents
        c = 6
        rng = np.random.default_rng(17)
        convs = bk._lska_convs(c, branch)
        x = Tensor(rng.normal(size=(2, c, 16, 40)).astype(dtype))
        weights = [Tensor(rng.normal(size=shape).astype(dtype)) for _, shape, _ in convs]
        biases = [Tensor(rng.normal(size=(1, c, 1, 1)).astype(dtype)) for _ in convs]
        dilations = [dilation for _, _, dilation in convs]
        g = rng.normal(size=x.shape).astype(dtype)
        inputs = [x, *(t for pair in zip(weights, biases) for t in pair)]
        with GradTape() as tape:
            chain = tz.conv2d(x, weights, biases, dilations)
        with GradTape() as parts:
            out = x
            for w, b, dilation in zip(weights, biases, dilations):
                out = tz.conv2d(out, w, b, dilation)
        assert (len(tape), len(parts)) == (1, 4)
        assert np.array_equal(chain.data, out.data)
        for got, want in zip(tape.gradients(chain, inputs, g), parts.gradients(out, inputs, g),
                             strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_chain_checks_each_kernel_against_the_map_it_reads(self):
        # a full 4 -> 2 kernel, then a depthwise one for 4 channels: the
        # second reads 2 channels, so it fits neither reading
        x = tz.zeros((1, 4, 5, 5))
        with GradTape() as tape, pytest.raises(tz.ShapeError, match="2 channels"):
            tz.conv2d(x, [tz.zeros((2, 4, 1, 1)), tz.zeros((4, 1, 3, 1))],
                      [tz.zeros((1, 2, 1, 1)), tz.zeros((1, 4, 1, 1))], [(1, 1), (1, 1)])
        assert len(tape) == 0

    def test_default_branches_preserve_shape(self):
        c = 4
        p = small_params(c, bk.default_branches(), seed=4)
        y = tz.tensor(np.random.default_rng(5).normal(size=(2, c, 7, 9)))
        out = bk.mslska(y, p, bk.default_branches())
        assert out.shape == y.shape


class TestMscabBlocks:
    def test_zero_residual_scale_is_identity(self):
        p = small_params()
        zero = tz.zeros((1, 4, 1, 1))
        pz = {**p, "mscam.res_scale": zero, "sffn.res_scale": zero}
        x = tz.tensor(np.random.default_rng(6).normal(size=(1, 4, 5, 5)))
        np.testing.assert_array_equal(bk.mscam(x, pz, ONE_BRANCH).data, x.data)
        np.testing.assert_array_equal(bk.sffn(x, pz).data, x.data)
        np.testing.assert_array_equal(bk.mscab_forward(x, pz, ONE_BRANCH).data, x.data)

    def test_shape_preserved(self):
        p = small_params(6, bk.default_branches(), seed=7)
        x = tz.tensor(np.random.default_rng(8).normal(size=(2, 6, 8, 11)))
        assert bk.mscab_forward(x, p, bk.default_branches()).shape == x.shape

    def test_sffn_zeros_propagate(self):
        p = small_params()
        x = tz.zeros((1, 4, 5, 5))
        np.testing.assert_array_equal(bk.sffn(x, p).data, 0.0)

    def test_block_equals_composition(self):
        p = small_params(seed=9)
        x = tz.tensor(np.random.default_rng(10).normal(size=(1, 4, 6, 6)))
        np.testing.assert_array_equal(
            bk.mscab_forward(x, p, ONE_BRANCH).data,
            bk.sffn(bk.mscam(x, p, ONE_BRANCH), p).data
        )

    def test_activation_free_op_audit(self):
        # the recorded graph holds only convolution, normalization, pooling,
        # the gate, products and additions.  Every 1x1 kernel (expand, fuse,
        # SCA and project in MSCAM, expand and project in SFFN) is a conv1x1;
        # conv2d applies the dwconv, and each of the 3 branches' 4 kernels as
        # one chain.  The adds are 2 branch sums and 2 residuals
        branches = bk.default_branches()
        p = small_params(branches=branches, seed=11)
        x = tz.tensor(np.random.default_rng(12).normal(size=(1, 4, 5, 5)))
        with GradTape() as tape:
            bk.mscab_forward(x, p, branches)
        assert Counter(rec.name for rec in tape._records) == {
            "conv1x1": 6, "conv2d": 4, "simple_gate": 2, "add": 4, "mul": 2,
            "global_avg_pool": 1}

    def test_mscam_gradcheck_all_params(self):
        c = 4
        p = small_params(c, ONE_BRANCH, seed=13)
        x = tz.tensor(np.random.default_rng(14).normal(size=(1, c, 5, 5)))

        def f(params):
            out = bk.mscam(x, dict(zip(p, params)), ONE_BRANCH)
            return tz.mean_all(tz.mul(out, out))

        assert tz.grad_check(f, list(p.values())) < 1e-4

    def test_sffn_gradcheck_all_params(self):
        c = 4
        p = small_params(c, ONE_BRANCH, seed=15)
        x = tz.tensor(np.random.default_rng(16).normal(size=(1, c, 4, 4)))

        def f(params):
            out = bk.sffn(x, dict(zip(p, params)))
            return tz.mean_all(tz.mul(out, out))

        assert tz.grad_check(f, list(p.values())) < 1e-4


class TestLskaBranchType:
    def test_even_kernels_rejected(self):
        with pytest.raises(ValueError):
            LskaBranch(4, 3, 1)
        with pytest.raises(ValueError):
            LskaBranch(3, 4, 1)

    def test_default_fields(self):
        fields = [b.effective_field for b in bk.default_branches()]
        assert fields == [7, 23, 35]
        assert all(f % 2 == 1 for f in fields)
