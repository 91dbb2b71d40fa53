"""Tensor primitives: forward values against independent oracles, backward
rules against finite differences, plus structural invariants."""

import tracemalloc

import numpy as np
import pytest

from stereosr import tensor as tz
from stereosr.tensor import ConvSpec, GradTape, ShapeError, Tensor


def conv2d_oracle(x, w, b, spec):
    """Direct summation over the receptive field, no vectorization."""
    n, cin, h, wd = x.shape
    out = np.zeros((n, spec.out_ch, h, wd))
    ph, pw = spec.padding
    dh, dw = spec.dilation
    cpg = spec.in_ch // spec.groups
    opg = spec.out_ch // spec.groups
    for nn in range(n):
        for o in range(spec.out_ch):
            group = o // opg
            for yy in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(spec.kh):
                            for kx in range(spec.kw):
                                sy = yy + ky * dh - ph
                                sx = xx + kx * dw - pw
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc += x[nn, group * cpg + ci, sy, sx] * w[o, ci, ky, kx]
                    out[nn, o, yy, xx] = acc + b[0, o, 0, 0]
    return out


def conv2d_adjoint_oracle(x, w, g, spec):
    """Input, weight and bias cotangents of conv2d_oracle for the output
    cotangent g: the same direct summation, each product sent back to both
    of its factors."""
    n, cin, h, wd = x.shape
    dx, dw = np.zeros(x.shape), np.zeros(w.shape)
    ph, pw = spec.padding
    dh, dwl = spec.dilation
    cpg = spec.in_ch // spec.groups
    opg = spec.out_ch // spec.groups
    for nn in range(n):
        for o in range(spec.out_ch):
            group = o // opg
            for yy in range(h):
                for xx in range(wd):
                    for ci in range(cpg):
                        for ky in range(spec.kh):
                            for kx in range(spec.kw):
                                sy = yy + ky * dh - ph
                                sx = xx + kx * dwl - pw
                                if 0 <= sy < h and 0 <= sx < wd:
                                    c = group * cpg + ci
                                    dx[nn, c, sy, sx] += g[nn, o, yy, xx] * w[o, ci, ky, kx]
                                    dw[o, ci, ky, kx] += g[nn, o, yy, xx] * x[nn, c, sy, sx]
    return dx, dw, g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)


# one spec per convolution path: full 3x3, 1x1, depthwise 3x3, dilated
# depthwise 1x5 and 5x1
ORACLE_SPECS = [
    ConvSpec(out_ch=6, in_ch=4, kh=3, kw=3),
    ConvSpec(out_ch=5, in_ch=4, kh=1, kw=1),
    ConvSpec(out_ch=4, in_ch=4, kh=3, kw=3, groups=4),
    ConvSpec(out_ch=4, in_ch=4, kh=1, kw=5, groups=4, dilation=(1, 2)),
    ConvSpec(out_ch=4, in_ch=4, kh=5, kw=1, groups=4, dilation=(3, 1)),
]


class TestTensorType:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3, 4)))

    def test_defaults_to_float32(self):
        t = Tensor(np.arange(16).reshape(1, 1, 4, 4))
        assert t.dtype == np.float32

    def test_item_requires_scalar(self):
        assert tz.full((1, 1, 1, 1), 2.5).item() == pytest.approx(2.5)
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 2))).item()


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 3, 3)).astype(np.float32))
        kernel = np.zeros((1, 1, 3, 3), np.float32)
        kernel[0, 0, 1, 1] = 1.0
        out = tz.conv2d(x, ConvSpec(1, 1, 3, 3), Tensor(kernel), tz.zeros((1, 1, 1, 1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_pointwise_affine(self):
        # 1x1 kernel [2] with bias [1] is the map x -> 2x + 1
        x = tz.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = tz.conv2d(
            x, ConvSpec(1, 1, 1, 1), tz.tensor([[[[2.0]]]]), tz.tensor([[[[1.0]]]])
        )
        np.testing.assert_allclose(out.data, [[[[3.0, 5.0], [7.0, 9.0]]]])

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        b = rng.normal(size=(1, 1, 1, 1)).astype(np.float32)
        spec = ConvSpec(1, 1, 3, 3)
        got = tz.conv2d(Tensor(x), spec, Tensor(w), Tensor(b)).data
        want = conv2d_oracle(x, w, b, spec)
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("spec, n", [
        pytest.param(spec, n, id=f"spec{i}" if n == 2 else f"spec{i}-batch1")
        for n in (2, 1) for i, spec in enumerate(ORACLE_SPECS)
    ])
    def test_all_paths_match_oracle(self, spec, n):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(n, spec.in_ch, 6, 7)).astype(np.float32)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        b = rng.normal(size=(1, spec.out_ch, 1, 1)).astype(np.float32)
        g = rng.normal(size=(n, spec.out_ch, 6, 7)).astype(np.float32)
        inputs = [Tensor(x), Tensor(w), Tensor(b)]
        with GradTape() as tape:
            out = tz.conv2d(inputs[0], spec, inputs[1], inputs[2])
            loss = tz.sum_all(tz.mul(out, Tensor(g)))
        got = tape.gradients(loss, inputs)
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        want = conv2d_oracle(x64, w64, b.astype(np.float64), spec)
        np.testing.assert_allclose(out.data, want, atol=1e-5)
        for name, grad, oracle in zip(("dx", "dW", "db"), got,
                                      conv2d_adjoint_oracle(x64, w64, g.astype(np.float64), spec)):
            np.testing.assert_allclose(grad, oracle, atol=1e-4, err_msg=name)

    def test_channel_mismatch_names_dimension(self):
        x = tz.zeros((1, 3, 4, 4))
        spec = ConvSpec(2, 4, 1, 1)
        with pytest.raises(ShapeError, match="channels"):
            tz.conv2d(x, spec, tz.zeros(spec.weight_shape), tz.zeros((1, 2, 1, 1)))

    def test_spec_rejects_even_effective_extent(self):
        with pytest.raises(ShapeError):
            ConvSpec(out_ch=1, in_ch=1, kh=2, kw=1)
        with pytest.raises(ShapeError):
            ConvSpec(out_ch=1, in_ch=1, kh=3, kw=3, dilation=(1, 0))

    def test_spec_rejects_bad_groups(self):
        # only full (groups=1) and depthwise (groups = in_ch = out_ch) remain
        with pytest.raises(ShapeError):
            ConvSpec(out_ch=4, in_ch=3, kh=1, kw=1, groups=2)
        with pytest.raises(ShapeError, match="depthwise"):
            ConvSpec(out_ch=6, in_ch=4, kh=3, kw=3, groups=2)
        with pytest.raises(ShapeError, match="depthwise"):
            ConvSpec(out_ch=8, in_ch=4, kh=3, kw=3, groups=4)

    def test_separable_equals_outer_product_kernel(self):
        # depthwise 1xk then kx1 == depthwise kxk with the outer-product kernel
        rng = np.random.default_rng(3)
        c, k = 3, 5
        x = Tensor(rng.normal(size=(1, c, 8, 9)).astype(np.float32))
        row = rng.normal(size=(c, k)).astype(np.float32)
        col = rng.normal(size=(c, k)).astype(np.float32)
        zero = tz.zeros((1, c, 1, 1))
        sep = tz.conv2d(x, ConvSpec(c, c, 1, k, groups=c),
                        Tensor(row[:, None, None, :]), zero)
        sep = tz.conv2d(sep, ConvSpec(c, c, k, 1, groups=c),
                        Tensor(col[:, None, :, None]), zero)
        full_kernel = np.einsum("ci,cj->cij", col, row)[:, None]
        full = tz.conv2d(x, ConvSpec(c, c, k, k, groups=c), Tensor(full_kernel), zero)
        np.testing.assert_allclose(sep.data, full.data, atol=1e-5)


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = tz.full((2, 3, 4, 4), 7.0)
        out = tz.layer_norm(x, tz.full((1, 3, 1, 1), 1.0), tz.zeros((1, 3, 1, 1)))
        np.testing.assert_array_equal(out.data, np.zeros_like(x.data))

    def test_two_channel_site(self):
        # channel vector (1, 3) normalizes to (-1, 1)
        x = tz.tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        out = tz.layer_norm(x, tz.full((1, 2, 1, 1), 1.0), tz.zeros((1, 2, 1, 1)), eps=1e-12)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_zero_gain_gives_shift(self):
        x = tz.tensor(np.random.default_rng(0).normal(size=(1, 4, 3, 3)))
        out = tz.layer_norm(x, tz.zeros((1, 4, 1, 1)), tz.full((1, 4, 1, 1), 5.0))
        np.testing.assert_array_equal(out.data, np.full_like(x.data, 5.0))

    def test_normalization_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor((rng.normal(size=(2, 16, 5, 5)) * 3.0).astype(np.float32))
        out = tz.layer_norm(x, tz.full((1, 16, 1, 1), 1.0), tz.zeros((1, 16, 1, 1)))
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mu).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3


class TestSimpleGate:
    def test_ones(self):
        out = tz.simple_gate(tz.full((1, 4, 2, 2), 1.0))
        assert out.shape == (1, 2, 2, 2)
        np.testing.assert_array_equal(out.data, np.ones((1, 2, 2, 2), np.float32))

    def test_two_channels(self):
        x = tz.tensor(np.array([2.0, 3.0]).reshape(1, 2, 1, 1))
        np.testing.assert_allclose(tz.simple_gate(x).data.ravel(), [6.0])

    def test_absorbing_zero(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(1, 6, 3, 3)).astype(np.float32)
        data[:, 3:] = 0.0
        np.testing.assert_array_equal(tz.simple_gate(Tensor(data)).data, 0.0)

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            tz.simple_gate(tz.zeros((1, 3, 2, 2)))


class TestGlobalAvgPool:
    def test_constant(self):
        out = tz.global_avg_pool(tz.full((2, 3, 4, 5), 3.0))
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_array_equal(out.data, np.full((2, 3, 1, 1), 3.0, np.float32))

    def test_mean(self):
        x = tz.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert tz.global_avg_pool(x).item() == pytest.approx(2.5)

    def test_zeros(self):
        np.testing.assert_array_equal(tz.global_avg_pool(tz.zeros((1, 2, 3, 3))).data, 0.0)


class TestPixelShuffle:
    def test_r1_identity(self):
        x = tz.tensor(np.random.default_rng(6).normal(size=(1, 4, 3, 3)))
        np.testing.assert_array_equal(tz.pixel_shuffle(x, 1).data, x.data)

    def test_index_formula(self):
        x = tz.tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = tz.pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data, [[[[1.0, 2.0], [3.0, 4.0]]]])

    def test_index_formula_on_larger_shapes(self):
        # out[n, c, h*r + i, w*r + j] = in[n, c*r*r + i*r + j, h, w]
        rng = np.random.default_rng(7)
        for shape, r in (((2, 8, 3, 5), 2), ((1, 9, 4, 4), 3)):
            x = rng.normal(size=shape).astype(np.float32)
            out = tz.pixel_shuffle(Tensor(x), r).data
            n, c, h, w = shape
            assert out.shape == (n, c // (r * r), h * r, w * r)
            for nn, cc, hh, ww, i, j in np.ndindex(n, c // (r * r), h, w, r, r):
                assert out[nn, cc, hh * r + i, ww * r + j] == x[nn, cc * r * r + i * r + j, hh, ww]

    def test_value_bijection(self):
        x = tz.tensor(np.random.default_rng(8).normal(size=(1, 9, 4, 4)))
        out = tz.pixel_shuffle(x, 3)
        assert sorted(out.data.ravel().tolist()) == sorted(x.data.ravel().tolist())

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ShapeError):
            tz.pixel_shuffle(tz.zeros((1, 6, 2, 2)), 2)


def dft2_parts(x):
    """The real and the imaginary half of ``tz.dft2(x)``'s channels."""
    spec = tz.dft2(x)
    assert spec.shape == (x.n, 2 * x.c, x.h, x.w)
    return Tensor(spec.data[:, :x.c]), Tensor(spec.data[:, x.c:])


class TestDft2:
    def test_constant_is_dc_only(self):
        k, h, w = 2.5, 3, 5
        re, im = dft2_parts(tz.full((1, 1, h, w), k))
        assert re.data[0, 0, 0, 0] == pytest.approx(k * h * w, rel=1e-6)
        rest = re.data.copy()
        rest[0, 0, 0, 0] = 0.0
        np.testing.assert_allclose(rest, 0.0, atol=1e-4)
        np.testing.assert_allclose(im.data, 0.0, atol=1e-4)

    def test_impulse_is_flat(self):
        x = tz.tensor([[[[1.0, 0.0], [0.0, 0.0]]]])
        re, im = dft2_parts(x)
        np.testing.assert_allclose(re.data, 1.0, atol=1e-6)
        np.testing.assert_allclose(im.data, 0.0, atol=1e-6)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 4, 5))
        hh, ww = 4, 5
        want = np.zeros((1, 2, hh, ww), complex)
        for u in range(hh):
            for v in range(ww):
                for a in range(hh):
                    for b in range(ww):
                        want[:, :, u, v] += x[:, :, a, b] * np.exp(
                            -2j * np.pi * (u * a / hh + v * b / ww)
                        )
        re, im = dft2_parts(Tensor(x.astype(np.float64)))
        np.testing.assert_allclose(re.data, want.real, atol=1e-9)
        np.testing.assert_allclose(im.data, want.imag, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 1, 6, 7)).astype(np.float32)
        re, im = dft2_parts(Tensor(x))
        spec_energy = float((re.data ** 2 + im.data ** 2).sum())
        sig_energy = float((x ** 2).sum()) * 6 * 7
        assert abs(spec_energy - sig_energy) / sig_energy < 1e-3

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
        y = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
        a, b = 1.7, -0.6
        combo = Tensor(a * x.data + b * y.data)
        re_c, im_c = dft2_parts(combo)
        re_x, im_x = dft2_parts(x)
        re_y, im_y = dft2_parts(y)
        np.testing.assert_allclose(re_c.data, a * re_x.data + b * re_y.data, atol=1e-4)
        np.testing.assert_allclose(im_c.data, a * im_x.data + b * im_y.data, atol=1e-4)


class TestBatchedMatmul:
    def test_identity_factor(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        eye = Tensor(np.broadcast_to(np.eye(3, dtype=np.float32), (1, 2, 3, 3)).copy())
        np.testing.assert_allclose(tz.batched_matmul(a, eye).data, a.data, atol=1e-6)

    def test_outer_product_case(self):
        a = tz.tensor(np.array([[2.0], [3.0]]).reshape(1, 1, 2, 1))
        b = tz.tensor(np.array([[4.0, 5.0]]).reshape(1, 1, 1, 2))
        out = tz.batched_matmul(a, b)
        np.testing.assert_allclose(out.data[0, 0], [[8.0, 10.0], [12.0, 15.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(1, 4, 4, 3)).astype(np.float32)
        b = rng.normal(size=(1, 4, 3, 4)).astype(np.float32)
        want = np.zeros((1, 4, 4, 4))
        for r in range(4):
            for i in range(4):
                for j in range(4):
                    for k in range(3):
                        want[0, r, i, j] += a[0, r, i, k] * b[0, r, k, j]
        got = tz.batched_matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            tz.batched_matmul(tz.zeros((1, 1, 2, 3)), tz.zeros((1, 1, 2, 3)))


class TestBilinearUpsample:
    def test_r1_identity(self):
        x = tz.tensor(np.random.default_rng(14).normal(size=(1, 2, 3, 4)))
        np.testing.assert_allclose(tz.bilinear_upsample(x, 1).data, x.data)

    def test_constant(self):
        out = tz.bilinear_upsample(tz.full((1, 1, 2, 2), 0.7), 3)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-7)

    def test_half_pixel_positions(self):
        x = tz.tensor(np.array([0.0, 1.0]).reshape(1, 1, 2, 1))
        out = tz.bilinear_upsample(x, 2)
        np.testing.assert_allclose(out.data[0, 0, :, 0], [0.0, 0.25, 0.75, 1.0])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tz.tensor(np.random.default_rng(15).normal(size=(1, 2, 3, 3)))
        with GradTape() as tape:
            loss = tz.sum_all(x)
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_array_equal(g, np.ones_like(x.data))

    def test_quadratic_gradient(self):
        x = tz.tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        with GradTape() as tape:
            loss = tz.sum_all(tz.mul(x, x))
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_allclose(g.ravel(), [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            y = tz.mul(x, 2.0)
        with pytest.raises(ShapeError):
            tape.gradients(y, [x])

    def test_unused_parameter_gets_zeros(self):
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        other = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            loss = tz.sum_all(x)
        g_x, g_other = tape.gradients(loss, [x, other])
        np.testing.assert_array_equal(g_other, 0.0)

    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(RuntimeError):
                with GradTape():
                    pass

    def test_shared_input_accumulates(self):
        x = tz.tensor(np.array([3.0]).reshape(1, 1, 1, 1))
        with GradTape() as tape:
            loss = tz.sum_all(tz.add(tz.mul(x, x), x))  # x^2 + x
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_allclose(g.ravel(), [7.0])

    def test_shared_cotangent_array_is_not_mutated(self):
        # add hands one array to both of its inputs, and both inputs then
        # receive more: accumulating in place into that array would leak
        # x's second summand into y's gradient and the other way round
        x = tz.tensor(np.array([1.0]).reshape(1, 1, 1, 1))
        y = tz.tensor(np.array([2.0]).reshape(1, 1, 1, 1))
        with GradTape() as tape:
            m = tz.mul(x, y)
            s = tz.add(x, y)
            loss = tz.sum_all(tz.add(tz.mul(s, s), m))   # (x + y)^2 + x*y
        g_x, g_y = tape.gradients(loss, [x, y])
        np.testing.assert_array_equal(g_x.ravel(), [8.0])   # 2(x + y) + y
        np.testing.assert_array_equal(g_y.ravel(), [7.0])   # 2(x + y) + x

    def test_requested_intermediate_gets_its_gradient(self):
        # y is a record's output and is read twice, so its cotangent is
        # accumulated before its own record runs
        x = tz.tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
        with GradTape() as tape:
            y = tz.mul(x, 3.0)
            loss = tz.sum_all(tz.add(tz.mul(y, y), y))   # y^2 + y
        g_y, g_x = tape.gradients(loss, [y, x])
        np.testing.assert_allclose(g_y.ravel(), [7.0, -11.0])
        np.testing.assert_allclose(g_x.ravel(), [21.0, -33.0])

    def test_spent_cotangents_are_freed(self):
        # a 40-record chain over 1 MiB: holding every cotangent until the
        # end would need about 40 MiB
        x = tz.tensor(np.ones((1, 1, 512, 512)))
        with GradTape() as tape:
            y = x
            for _ in range(40):
                y = tz.mul(y, 1.5)
            loss = tz.sum_all(y)
        tracemalloc.start()
        try:
            (g,) = tape.gradients(loss, [x])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"gradients peaked at {peak / 2**20:.1f} MiB"
        np.testing.assert_allclose(g, 1.5 ** 40, rtol=1e-5)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = tz.tensor(np.random.default_rng(16).normal(size=(1, 1, 3, 3)))
        err = tz.grad_check(lambda p: tz.sum_all(tz.mul(p[0], p[0])), [x])
        assert err < 1e-8

    def test_conv_norm_gate_chain(self):
        rng = np.random.default_rng(17)
        spec = ConvSpec(out_ch=8, in_ch=4, kh=3, kw=3)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        w = Tensor((rng.normal(size=spec.weight_shape) * 0.3).astype(np.float32))
        b = Tensor((rng.normal(size=(1, 8, 1, 1)) * 0.1).astype(np.float32))
        gain = Tensor(np.ones((1, 4, 1, 1), np.float32))
        shift = Tensor(np.zeros((1, 4, 1, 1), np.float32))

        def f(p):
            y = tz.conv2d(p[0], spec, p[1], p[2])
            y = tz.simple_gate(y)
            y = tz.layer_norm(y, p[3], p[4])
            return tz.mean_all(tz.mul(y, y))

        assert tz.grad_check(f, [x, w, b, gain, shift]) < 1e-4

    def test_dft_loss(self):
        x = tz.tensor(np.random.default_rng(18).normal(size=(1, 2, 4, 6)))
        real_half = Tensor(np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 4, 1, 1))

        def f(p):
            spec = tz.dft2(p[0])
            re = tz.mul(spec, real_half)   # imaginary channels zeroed
            im = tz.sub(spec, re)          # real channels zeroed
            return tz.add(tz.mean_all(tz.mul(re, re)), tz.mean_all(tz.absolute(im)))

        assert tz.grad_check(f, [x]) < 1e-4


class TestDeterminism:
    def test_repeated_ops_are_bit_identical(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))
        spec = ConvSpec(out_ch=8, in_ch=8, kh=3, kw=3)
        w = Tensor(rng.normal(size=spec.weight_shape).astype(np.float32))
        b = Tensor(rng.normal(size=(1, 8, 1, 1)).astype(np.float32))
        a = tz.conv2d(x, spec, w, b)
        c = tz.conv2d(x, spec, w, b)
        np.testing.assert_array_equal(a.data, c.data)

    def test_finite_outputs(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))
        out = tz.logsumexp(tz.mul(x, 10.0), axis=3)
        assert np.isfinite(out.data).all()
