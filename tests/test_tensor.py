"""Tensor primitives: forward values against independent oracles, backward
rules against finite differences, plus structural invariants."""

import tracemalloc
import weakref

import numpy as np
import pytest

from stereosr import tensor as tz
from stereosr.tensor import GradTape, ShapeError, Tensor


def conv2d_oracle(x, w, b, dilation=(1, 1)):
    """Direct summation over the receptive field, no vectorization.  The
    groups come from the shapes: 1 when the kernel's in_ch is the input's
    channel count (full), the channel count when it is 1 (depthwise)."""
    n, cin, h, wd = x.shape
    cout, cpg, kh, kw = w.shape
    dh, dw = dilation
    ph, pw = (kh - 1) * dh // 2, (kw - 1) * dw // 2
    opg = cout // (cin // cpg)
    out = np.zeros((n, cout, h, wd))
    for nn in range(n):
        for o in range(cout):
            group = o // opg
            for yy in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                sy = yy + ky * dh - ph
                                sx = xx + kx * dw - pw
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc += x[nn, group * cpg + ci, sy, sx] * w[o, ci, ky, kx]
                    out[nn, o, yy, xx] = acc + b[0, o, 0, 0]
    return out


def conv2d_adjoint_oracle(x, w, g, dilation=(1, 1)):
    """Input, weight and bias cotangents of conv2d_oracle for the output
    cotangent g: the same direct summation, each product sent back to both
    of its factors."""
    n, cin, h, wd = x.shape
    cout, cpg, kh, kw = w.shape
    dh, dwl = dilation
    ph, pw = (kh - 1) * dh // 2, (kw - 1) * dwl // 2
    opg = cout // (cin // cpg)
    dx, dw = np.zeros(x.shape), np.zeros(w.shape)
    for nn in range(n):
        for o in range(cout):
            group = o // opg
            for yy in range(h):
                for xx in range(wd):
                    for ci in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                sy = yy + ky * dh - ph
                                sx = xx + kx * dwl - pw
                                if 0 <= sy < h and 0 <= sx < wd:
                                    c = group * cpg + ci
                                    dx[nn, c, sy, sx] += g[nn, o, yy, xx] * w[o, ci, ky, kx]
                                    dw[o, ci, ky, kx] += g[nn, o, yy, xx] * x[nn, c, sy, sx]
    return dx, dw, g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)


# one (weight shape, dilation) per convolution path on a 4-channel input:
# full 3x3, 1x1, depthwise 3x3, dilated depthwise 1x5 and 5x1; then kernel
# fields wider than the 6x7 input (a padding of 15 on both sides) and a
# dilated full 3x3
ORACLE_CHANNELS = 4
ORACLE_SPECS = [
    ((6, 4, 3, 3), (1, 1)),
    ((5, 4, 1, 1), (1, 1)),
    ((4, 1, 3, 3), (1, 1)),
    ((4, 1, 1, 5), (1, 2)),
    ((4, 1, 5, 1), (3, 1)),
    ((4, 1, 1, 11), (1, 3)),
    ((4, 1, 11, 1), (3, 1)),
    ((6, 4, 3, 3), (2, 2)),
]

# edge cases of the tap layout, each run on every spec: a 1x1 input,
# float64, and a channels-last layout as ImageBuffer.to_tensor returns it
ORACLE_INPUTS = {"1x1": ((1, 1), np.float32, False),
                 "float64": ((6, 7), np.float64, False),
                 "hwc": ((6, 7), np.float32, True)}


def frame_taps(x, kh, kw, dilation):
    """Taps as earlier versions read them: the input zero-padded into one
    flat frame per channel of h + 2 ph rows of W = w + pw entries, each led
    by pw zeros that also pad the row before; tap (i, j) the run of h * W
    entries from i * dh * W + j * dw, whose last pw columns per row are
    spill.  Returns the taps and W."""
    n, c, h, wd = x.shape
    dh, dw = dilation
    ph, pw = (kh - 1) * dh // 2, (kw - 1) * dw // 2
    width, height = wd + pw, h + 2 * ph
    frame = np.zeros((n, c, height * width + 2 * pw), dtype=x.dtype)
    frame[..., :height * width].reshape(n, c, height, width)[..., ph:ph + h, pw:] = x
    return [frame[..., s:s + h * width]
            for s in (i * dh * width + j * dw for i in range(kh) for j in range(kw))], width


def frame_depthwise_oracle(x, w, dilation):
    """The depthwise forward as it was before taps were copied straight
    from the input: the frame's taps, channels in blocks of 1 MiB of
    stacked taps, each one batched product, the spill columns cropped off."""
    n, c, h, wd = x.shape
    taps, width = frame_taps(x, *w.shape[2:], dilation)
    out = np.empty((n, c, 1, h * width), dtype=np.result_type(x, w))
    step = max(1, (1 << 20) // (n * len(taps) * h * width * x.itemsize))
    for lo in range(0, c, step):
        block = np.stack([tap[:, lo:lo + step] for tap in taps], axis=2)
        np.matmul(w.reshape(c, 1, -1)[lo:lo + step], block, out=out[:, lo:lo + step])
    return out.reshape(n, c, h, width)[..., :wd]


def frame_grad_w_oracle(x, g, shape, dilation):
    """The weight gradient as it was before it read the unpadded maps: the
    frame's taps against the cotangent padded with zero spill columns.  A
    depthwise tap takes one dot product per (n, c), in pieces of 8,192
    entries summed in order; a full kernel one product with the stacked
    taps."""
    n, c, h, wd = g.shape
    taps, width = frame_taps(x, *shape[2:], dilation)
    g = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, width - wd))).reshape(n, c, h * width)
    if shape[1] != x.shape[1]:
        per_tap = []
        for tap in taps:
            dots = [np.matmul(tap[:, :, None, lo:lo + 8192], g[:, :, lo:lo + 8192, None])
                    for lo in range(0, h * width, 8192)]
            per_tap.append(sum(dots[1:], dots[0]).sum(axis=(0, 2, 3)))
        return np.stack(per_tap, axis=1).reshape(shape)
    stack = np.stack(taps, axis=2).reshape(n, -1, h * width)
    return np.tensordot(g, stack, axes=([0, 2], [0, 2])).reshape(shape)


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
        out = tz.conv2d(x, Tensor(kernel), tz.zeros((1, 1, 1, 1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_pointwise_affine(self):
        # 1x1 kernel [2] with bias [1] is the map x -> 2x + 1
        x = tz.tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = tz.conv2d(x, tz.tensor([[[[2.0]]]]), tz.tensor([[[[1.0]]]]))
        np.testing.assert_allclose(out.data, [[[[3.0, 5.0], [7.0, 9.0]]]])

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        b = rng.normal(size=(1, 1, 1, 1)).astype(np.float32)
        got = tz.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        want = conv2d_oracle(x, w, b)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_one_channel_input_is_full_convolution(self):
        # a (3, 1, 3, 3) kernel on 1 channel: in_ch 1 is the input's count,
        # so the full reading, three output maps, not a depthwise one
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 1, 5, 6))
        w = rng.normal(size=(3, 1, 3, 3))
        b = rng.normal(size=(1, 3, 1, 1))
        g = rng.normal(size=(2, 3, 5, 6))
        inputs = [Tensor(x), Tensor(w), Tensor(b)]
        with GradTape() as tape:
            out = tz.conv2d(*inputs)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, w, b), atol=1e-12)
        for name, grad, oracle in zip(("dx", "dW", "db"), tape.gradients(out, inputs, g),
                                      conv2d_adjoint_oracle(x, w, g)):
            np.testing.assert_allclose(grad, oracle, atol=1e-11, err_msg=name)

    @pytest.mark.parametrize("shape, dilation, n, size, dtype, hwc, blocks", [
        pytest.param(shape, dilation, n, (6, 7), np.float32, False, None,
                     id=f"spec{i}" if n == 2 else f"spec{i}-batch1")
        for n in (2, 1) for i, (shape, dilation) in enumerate(ORACLE_SPECS)
    ] + [
        pytest.param(shape, dilation, 1, *case, None, id=f"spec{i}-{name}")
        for name, case in ORACLE_INPUTS.items()
        for i, (shape, dilation) in enumerate(ORACLE_SPECS)
    ] + [
        # depthwise channels stacked in uneven and one-channel blocks
        pytest.param(shape, dilation, 2, (6, 7), dtype, False, blocks,
                     id=f"spec{i}-blocks{split}-{np.dtype(dtype).name}")
        for blocks, split in ((3, "3+1"), (1, "1+1+1+1"))
        for dtype in (np.float32, np.float64)
        for i, (shape, dilation) in enumerate(ORACLE_SPECS) if shape[1] == 1
    ])
    def test_all_paths_match_oracle(self, monkeypatch, shape, dilation, n, size, dtype, hwc,
                                    blocks):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(n, ORACLE_CHANNELS, *size)).astype(dtype)
        if hwc:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        if blocks:
            # a budget that holds the n * T * h * w stacked taps of `blocks` channels
            budget = blocks * np.prod(shape[2:]) * x[:, :1].nbytes
            monkeypatch.setattr(tz, "TAP_STACK_BYTES", budget)
        w = rng.normal(size=shape).astype(dtype)
        b = rng.normal(size=(1, shape[0], 1, 1)).astype(dtype)
        g = rng.normal(size=(n, shape[0], *size)).astype(dtype)
        inputs = [Tensor(x), Tensor(w), Tensor(b)]
        products = []
        matmul = np.matmul

        def counted(*a, **k):
            products.append(1)
            return matmul(*a, **k)

        with GradTape() as tape:
            with monkeypatch.context() as m:
                m.setattr(np, "matmul", counted)
                out = tz.conv2d(*inputs, dilation)
        forward = len(products)
        with monkeypatch.context() as m:
            m.setattr(np, "matmul", counted)
            got = tape.gradients(out, inputs, g)
        # one product per block of channels: 3+1 is two, 1+1+1+1 four; a 1-D
        # depthwise kernel's forward is one banded product at any budget; the
        # backward takes dx and dW from each block of the cotangent's taps
        n_blocks = -(-ORACLE_CHANNELS // blocks) if blocks else 1
        banded = shape[1] == 1 and 1 in shape[2:]
        assert (forward, len(products) - forward) == (1 if banded else n_blocks, 2 * n_blocks)
        assert out.data.flags.c_contiguous and got[0].flags.c_contiguous
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        want = conv2d_oracle(x64, w64, b.astype(np.float64), dilation)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(out.data, want, atol=tol)
        for name, grad, oracle in zip(("dx", "dW", "db"), got,
                                      conv2d_adjoint_oracle(x64, w64, g.astype(np.float64),
                                                            dilation)):
            assert grad.dtype == dtype, name
            np.testing.assert_allclose(grad, oracle, atol=10 * tol, err_msg=name)

    def test_band_segments_cover_the_axis(self):
        # equal segments of at most BAND_SEGMENT outputs, which overrun the
        # axis by less than one output per segment, and not at all when a
        # count from the fewest to twice that divides the axis
        for length in range(1, 400):
            count, seg = tz._band_segments(length)
            fewest = -(-length // tz.BAND_SEGMENT)
            assert seg <= tz.BAND_SEGMENT and 0 <= count * seg - length < count, length
            exact = any(length % k == 0 for k in range(fewest, 2 * fewest))
            assert exact == (count * seg == length) and count < 2 * fewest, length
        assert [tz._band_segments(k) for k in (96, 72, 37, 1)] == [(6, 16), (6, 12), (3, 13), (1, 1)]

    @pytest.mark.parametrize("shape, dilation, n, length, dtypes, hwc", [
        # each 1-D depthwise spec with its kernel's axis 96 long (6 segments
        # of 16), 72 (6 of 12), 37 (3 of 13, which overrun it by 2), and 1
        # long at batch 2; specs 5 and 6 at 6x7 in test_all_paths_match_oracle
        # read more padding than their axis is long
        pytest.param(shape, dilation, n, length, (np.float32, np.float32), False,
                     id=f"spec{i}-axis{length}" + ("-batch2" if n == 2 else ""))
        for i, (shape, dilation) in enumerate(ORACLE_SPECS) if shape[1] == 1 and 1 in shape[2:]
        for n, length in ((1, 96), (1, 72), (1, 37), (2, 1))
    ] + [
        pytest.param(shape, dilation, 1, 37, dtypes, hwc, id=f"spec{i}-axis37-{name}")
        for name, dtypes, hwc in (("float64", (np.float64, np.float64), False),
                                  ("hwc", (np.float32, np.float32), True),
                                  ("float32-map-float64-kernel", (np.float32, np.float64), False))
        for i, (shape, dilation) in enumerate(ORACLE_SPECS) if shape[1] == 1 and 1 in shape[2:]
    ])
    def test_banded_forward_matches_oracle(self, monkeypatch, shape, dilation, n, length, dtypes,
                                           hwc):
        rng = np.random.default_rng(8)
        # the kernel's axis, and 5 across it
        size = (length, 5) if shape[3] == 1 else (5, length)
        x = rng.normal(size=(n, ORACLE_CHANNELS, *size)).astype(dtypes[0])
        if hwc:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w = rng.normal(size=shape).astype(dtypes[1])
        b = np.zeros((1, shape[0], 1, 1), dtypes[1])
        products = []
        matmul = np.matmul

        def counted(*a, **k):
            products.append(1)
            return matmul(*a, **k)

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", counted)
            out = tz.conv2d(Tensor(x), Tensor(w), Tensor(b), dilation).data
        assert len(products) == 1
        assert out.dtype == np.result_type(*dtypes) and out.flags.c_contiguous
        want = conv2d_oracle(x.astype(np.float64), w.astype(np.float64), b.astype(np.float64),
                             dilation)
        np.testing.assert_allclose(out, want, atol=1e-12 if out.dtype == np.float64 else 1e-5)

    @pytest.mark.parametrize("shape, dilation, channels, size, dtype, hwc", [
        pytest.param(shape, dilation, ORACLE_CHANNELS, *case, id=f"spec{i}-{name}")
        for name, case in ORACLE_INPUTS.items()
        for i, (shape, dilation) in enumerate(ORACLE_SPECS) if shape[1] == 1
    ] + [
        # 48 channels at the benchmark's sizes take several 1 MiB blocks
        pytest.param((48, 1, *shape[2:]), dilation, 48, size, dtype, False,
                     id=f"spec{i}-48x{size[0]}x{size[1]}-{np.dtype(dtype).name}")
        for size in ((16, 96), (32, 96))
        for dtype in (np.float32, np.float64)
        for i, (shape, dilation) in enumerate(ORACLE_SPECS) if shape[1] == 1
    ])
    def test_depthwise_matches_frame_oracle(self, shape, dilation, channels, size, dtype, hwc):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, channels, *size)).astype(dtype)
        if hwc:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w = rng.normal(size=shape).astype(dtype)
        b = rng.normal(size=(1, channels, 1, 1)).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        inputs = [Tensor(x), Tensor(w), Tensor(b)]
        with GradTape() as tape:
            out = tz.conv2d(*inputs, dilation)
        dx = tape.gradients(out, inputs, g)[0]
        flipped = np.ascontiguousarray(w[..., ::-1, ::-1])
        # OpenBLAS's float64 matrix-vector product rounds the last (length
        # mod 4) entries of each product in its remainder code.  A map has
        # h * w entries and a frame row h * (w + pw), so unless both are
        # multiples of 4, the last 3 entries of a map may round differently
        h, wd = size
        pw = (shape[3] - 1) * dilation[1] // 2
        exact = dtype == np.float32 or (h * wd) % 4 == (h * (wd + pw)) % 4 == 0
        checks = [("dx", dx, frame_depthwise_oracle(g, flipped, dilation))]
        if 1 in shape[2:] and not (dtype == np.float32 and channels == 48):
            # a 1-D kernel's forward is a banded matrix-matrix product, which
            # sums its taps as the frame's matrix-vector products do only on
            # the float32 maps of the benchmark's shapes; elsewhere it may
            # round differently, so it meets the float64 direct sum
            want = conv2d_oracle(*(a.astype(np.float64) for a in (x, w, b)), dilation)
            np.testing.assert_allclose(out.data, want, atol=1e-12 if dtype == np.float64 else 1e-5)
        else:
            checks.append(("out", out.data, frame_depthwise_oracle(x, w, dilation) + b))
        for name, got, want in checks:
            got, want = got.reshape(channels, -1), want.reshape(channels, -1)
            if exact:
                np.testing.assert_array_equal(got, want, err_msg=name)
                continue
            np.testing.assert_array_equal(got[:, :-3], want[:, :-3], err_msg=name)
            np.testing.assert_allclose(got[:, -3:], want[:, -3:], rtol=0, atol=1e-13,
                                       err_msg=name)

    @pytest.mark.parametrize("shape, dilation, channels, size, dtype, hwc", [
        pytest.param(shape, dilation, ORACLE_CHANNELS, *case, id=f"spec{i}-{name}")
        for name, case in ORACLE_INPUTS.items()
        for i, (shape, dilation) in enumerate(ORACLE_SPECS)
    ] + [
        pytest.param((48, 1 if shape[1] == 1 else 48, *shape[2:]), dilation, 48, size, dtype,
                     False, id=f"spec{i}-48x{size[0]}x{size[1]}-{np.dtype(dtype).name}")
        for size in ((16, 96), (32, 96))
        for dtype in (np.float32, np.float64)
        for i, (shape, dilation) in enumerate(ORACLE_SPECS)
    ] + [
        # a full kernel field of 15x17 on a 6x7 map: the outer taps' shifts
        # (7 rows, 8 columns) leave them no site inside the map
        pytest.param((6, 4, 3, 3), (7, 8), ORACLE_CHANNELS, (6, 7), dtype, False,
                     id=f"full-wider-than-map-{np.dtype(dtype).name}")
        for dtype in (np.float32, np.float64)
    ])
    def test_grad_w_matches_frame_oracle(self, shape, dilation, channels, size, dtype, hwc):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, channels, *size)).astype(dtype)
        if hwc:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        w = rng.normal(size=shape).astype(dtype)
        g = rng.normal(size=(1, shape[0], *size)).astype(dtype)
        inputs = [Tensor(x), Tensor(w), tz.zeros((1, shape[0], 1, 1), dtype)]
        with GradTape() as tape:
            out = tz.conv2d(*inputs, dilation)
        got = tape.gradients(out, inputs, g)[1]
        want = frame_grad_w_oracle(x, g, shape, dilation)
        assert got.dtype == want.dtype == dtype and got.shape == shape
        bound = 1e-13 if dtype == np.float64 else 1e-5
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(4, 1, 3, 3), (6, 4, 3, 3), (6, 4, 1, 1)],
                             ids=["depthwise", "full", "pointwise"])
    def test_float64_bias_promotes_the_sum(self, shape):
        # the bias goes into the product's own output only where that keeps
        # the sum's dtype: a float64 bias on a float32 product promotes it
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 4, 5, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=shape).astype(np.float32))
        b = rng.normal(size=(1, shape[0], 1, 1))
        out = tz.conv2d(x, w, Tensor(b)).data
        product = tz.conv2d(x, w, tz.zeros((1, shape[0], 1, 1))).data
        assert out.dtype == np.float64 and product.dtype == np.float32
        np.testing.assert_array_equal(out, product + b)

    def test_channel_mismatch_names_dimension(self):
        x = tz.zeros((1, 3, 4, 4))
        with pytest.raises(ShapeError, match="channels"):
            tz.conv2d(x, tz.zeros((2, 4, 1, 1)), tz.zeros((1, 2, 1, 1)))

    def test_rejects_even_effective_extent(self):
        x = tz.zeros((1, 1, 4, 4))
        with pytest.raises(ShapeError, match="odd"):
            tz.conv2d(x, tz.zeros((1, 1, 2, 1)), tz.zeros((1, 1, 1, 1)))
        with pytest.raises(ShapeError, match="dilation"):
            tz.conv2d(x, tz.zeros((1, 1, 3, 3)), tz.zeros((1, 1, 1, 1)), (1, 0))

    def test_rejects_kernel_neither_full_nor_depthwise(self):
        # grouped kernels other than depthwise, and a depthwise channel
        # multiplier (8, 1, 3, 3) on 4 channels, fit neither reading
        for c, shape in ((3, (4, 1, 1, 1)), (4, (6, 2, 3, 3)), (4, (8, 1, 3, 3))):
            with pytest.raises(ShapeError, match="depthwise"):
                tz.conv2d(tz.zeros((1, c, 4, 4)), tz.zeros(shape), tz.zeros((1, shape[0], 1, 1)))

    def test_rejects_wrong_bias_shape(self):
        x = tz.zeros((1, 4, 4, 4))
        for bias in ((1, 4, 1, 1), (6, 1, 1, 1), (1, 6, 4, 4)):
            with pytest.raises(ShapeError, match="bias"):
                tz.conv2d(x, tz.zeros((6, 4, 3, 3)), tz.zeros(bias))

    def test_separable_equals_outer_product_kernel(self):
        # depthwise 1xk then kx1 == depthwise kxk with the outer-product kernel
        rng = np.random.default_rng(3)
        c, k = 3, 5
        x = Tensor(rng.normal(size=(1, c, 8, 9)).astype(np.float32))
        row = rng.normal(size=(c, k)).astype(np.float32)
        col = rng.normal(size=(c, k)).astype(np.float32)
        zero = tz.zeros((1, c, 1, 1))
        sep = tz.conv2d(x, Tensor(row[:, None, None, :]), zero)
        sep = tz.conv2d(sep, Tensor(col[:, None, :, None]), zero)
        full_kernel = np.einsum("ci,cj->cij", col, row)[:, None]
        full = tz.conv2d(x, Tensor(full_kernel), zero)
        np.testing.assert_allclose(sep.data, full.data, atol=1e-5)


def layer_norm(x, gain=None, shift=None):
    """conv1x1 with an identity kernel and a zero bias: the float32 x's layer
    norm, exactly, with unit gain and zero shift unless given."""
    c = x.c
    gain = tz.full((1, c, 1, 1), 1.0) if gain is None else gain
    shift = tz.zeros((1, c, 1, 1)) if shift is None else shift
    eye = tz.tensor(np.eye(c).reshape(c, c, 1, 1))
    return tz.conv1x1(x, eye, tz.zeros((1, c, 1, 1)), (gain, shift))


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = tz.full((2, 3, 4, 4), 7.0)
        np.testing.assert_array_equal(layer_norm(x).data, np.zeros_like(x.data))

    def test_two_channel_site(self):
        # channel vector (1, 3) normalizes to (-1, 1), up to LN_EPS
        x = tz.tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        np.testing.assert_allclose(layer_norm(x).data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_zero_gain_gives_shift(self):
        # through an identity kernel, the folded bias W s + b is the shift
        x = tz.tensor(np.random.default_rng(0).normal(size=(1, 4, 3, 3)))
        out = layer_norm(x, tz.zeros((1, 4, 1, 1)), tz.full((1, 4, 1, 1), 5.0))
        np.testing.assert_array_equal(out.data, np.full_like(x.data, 5.0))

    def test_normalization_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor((rng.normal(size=(2, 16, 5, 5)) * 3.0).astype(np.float32))
        out = layer_norm(x)
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mu).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3


def unfolded_oracle(x, w, b, g, s, r, cot, eps=1e-6):
    """The composition conv1x1 replaces, in numpy at the operands' dtype:
    layer norm with gain g and shift s (when g is given), a 1x1 convolution,
    and a product by r (when given).  Returns the output and the cotangents
    of (x, w, b, g, s, r) for the output cotangent ``cot``, by hand."""
    kernel = w[:, :, 0, 0]
    y = x
    if g is not None:
        centered = x - x.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(centered).mean(axis=1, keepdims=True) + x.dtype.type(eps))
        xhat = centered * inv
        y = g * xhat + s
    z = np.einsum("oi,nihw->nohw", kernel, y) + b
    out, dz = z, cot
    grads = {}
    if r is not None:
        out, dz = r * z, cot * r
        grads["r"] = (cot * z).sum(axis=(0, 2, 3), keepdims=True)
    grads["b"] = dz.sum(axis=(0, 2, 3), keepdims=True)
    grads["w"] = np.einsum("nohw,nihw->oi", dz, y)[:, :, None, None]
    dy = np.einsum("oi,nohw->nihw", kernel, dz)
    grads["x"] = dy
    if g is not None:
        grads["g"] = (dy * xhat).sum(axis=(0, 2, 3), keepdims=True)
        grads["s"] = dy.sum(axis=(0, 2, 3), keepdims=True)
        dxh = dy * g
        dx = dxh - dxh.mean(axis=1, keepdims=True) - xhat * (dxh * xhat).mean(axis=1, keepdims=True)
        grads["x"] = dx * inv
    return out, grads


class TestConv1x1:
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-13)],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("factors", ["gsr", "gs", "r", ""], ids=["gsr", "gs", "r", "plain"])
    def test_matches_the_unfolded_composition(self, dtype, tol, factors):
        # output and every input cotangent, relative to the largest entry
        rng = np.random.default_rng(42)
        n, cin, cout, h, w = 2, 8, 6, 5, 7
        ops = {"x": rng.normal(size=(n, cin, h, w)), "w": rng.normal(size=(cout, cin, 1, 1)),
               "b": rng.normal(size=(1, cout, 1, 1)), "g": rng.uniform(0.5, 1.5, (1, cin, 1, 1)),
               "s": rng.normal(size=(1, cin, 1, 1)), "r": rng.normal(size=(1, cout, 1, 1))}
        ops = {k: v.astype(dtype) for k, v in ops.items()
               if k in "xwb" or k in factors}
        cot = rng.normal(size=(n, cout, h, w)).astype(dtype)
        want, want_grads = unfolded_oracle(*(ops.get(k) for k in "xwbgsr"), cot)
        t = {k: Tensor(v) for k, v in ops.items()}
        with GradTape() as tape:
            norm = (t["g"], t["s"]) if "g" in t else None
            out = tz.conv1x1(t["x"], t["w"], t["b"], norm, t.get("r"))
        assert out.dtype == dtype
        np.testing.assert_array_less(np.abs(out.data - want).max(), tol * np.abs(want).max())
        for k, got in zip(t, tape.gradients(out, list(t.values()), cot)):
            assert got.shape == ops[k].shape and got.dtype == dtype, k
            err = np.abs(got - want_grads[k]).max() / np.abs(want_grads[k]).max()
            assert err < tol, f"d{k}: {err:.2e}"

    def test_zero_scale_gives_exact_zeros(self):
        # a fresh cross-view stage's fusion scale: nothing reaches the output
        # and the kernel gets no gradient, exactly
        rng = np.random.default_rng(43)
        x, w, b = (Tensor(rng.normal(size=shape).astype(np.float32))
                   for shape in ((1, 4, 3, 5), (4, 4, 1, 1), (1, 4, 1, 1)))
        scale = tz.zeros((1, 4, 1, 1))
        with GradTape() as tape:
            out = tz.conv1x1(x, w, b, scale=scale)
        np.testing.assert_array_equal(out.data, 0.0)
        dw, dr = tape.gradients(out, [w, scale], rng.normal(size=out.shape).astype(np.float32))
        np.testing.assert_array_equal(dw, 0.0)
        assert np.abs(dr).min() > 0

    @pytest.mark.parametrize("weights, bias, operands", [
        ((2, 4, 1, 1), (1, 2, 1, 1), {}),
        ((2, 3, 3, 3), (1, 2, 1, 1), {}),
        ((2, 3, 1, 1), (1, 3, 1, 1), {}),
        ((2, 3, 1, 1), (1, 2, 1, 1), {"scale": tz.zeros((1, 3, 1, 1))}),
        ((2, 3, 1, 1), (1, 2, 1, 1), {"norm": (tz.zeros((1, 2, 1, 1)), tz.zeros((1, 3, 1, 1)))}),
    ], ids=["in-channels", "not-1x1", "bias", "scale", "gain"])
    def test_shape_mismatch_rejected(self, weights, bias, operands):
        with pytest.raises(ShapeError):
            tz.conv1x1(tz.zeros((1, 3, 4, 5)), tz.zeros(weights), tz.zeros(bias), **operands)


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

    def test_factor_zero_rejected(self):
        with pytest.raises(ShapeError, match="factor must be >= 1"):
            tz.pixel_shuffle(tz.zeros((1, 4, 2, 2)), 0)


def full_spectrum_l1(x):
    """The frequency term from its definition: the mean of |Re| and |Im|
    over every coefficient of a float64 fft2, the two parts counted as
    separate elements."""
    f = np.fft.fft2(np.asarray(x, np.float64))
    return (np.abs(f.real).sum() + np.abs(f.imag).sum()) / (2 * f.size)


SPECTRUM_SHAPES = [(4, 6), (4, 7), (5, 6), (5, 7)]  # even and odd h and w


class TestSpectralL1:
    @pytest.mark.parametrize("h, w", SPECTRUM_SHAPES)
    def test_matches_full_spectrum_sum(self, h, w):
        x = np.random.default_rng(9).normal(size=(2, 3, h, w))
        out = tz.spectral_l1(Tensor(x))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(full_spectrum_l1(x), rel=1e-13)

    @pytest.mark.parametrize("h, w", SPECTRUM_SHAPES)
    def test_backward_is_inverse_transform_of_signs(self, h, w):
        x = Tensor(np.random.default_rng(10).normal(size=(2, 3, h, w)))
        with GradTape() as tape:
            loss = tz.spectral_l1(x)
        (g,) = tape.gradients(loss, [x])
        f = np.fft.fft2(x.data)
        signs = np.sign(f.real) + 1j * np.sign(f.imag)
        want = np.real(np.fft.ifft2(signs)) * (h * w) / (2 * x.numel)
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

    def test_float32_value_tracks_float64(self):
        x = np.random.default_rng(11).uniform(-0.5, 0.5, size=(2, 3, 96, 288))
        single = tz.spectral_l1(Tensor(x.astype(np.float32)))
        assert single.dtype == np.float32
        assert single.item() == pytest.approx(full_spectrum_l1(x.astype(np.float32)), rel=1e-6)

    def test_constant_is_dc_only(self):
        # each channel's DC coefficient is k*h*w and every other one is zero
        assert tz.spectral_l1(tz.full((2, 3, 3, 5), -2.5)).item() == pytest.approx(1.25, rel=1e-6)

    def test_impulse_is_flat(self):
        # every coefficient of a unit impulse is 1 + 0i
        x = np.zeros((1, 1, 4, 5))
        x[0, 0, 0, 0] = 1.0
        assert tz.spectral_l1(Tensor(x)).item() == pytest.approx(0.5, rel=1e-15)

    def test_zero_residual_has_zero_gradient(self):
        # sign(0) = 0: no coefficient pulls when the residual vanishes
        x = tz.zeros((1, 2, 4, 6))
        with GradTape() as tape:
            loss = tz.spectral_l1(x)
        (g,) = tape.gradients(loss, [x])
        assert loss.item() == 0.0
        np.testing.assert_array_equal(g, 0.0)


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

    def test_factor_zero_rejected(self):
        with pytest.raises(ShapeError, match="factor must be >= 1"):
            tz.bilinear_upsample(tz.zeros((1, 1, 2, 2)), 0)


class TestBackward:
    def test_quadratic_gradient(self):
        x = tz.tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        with GradTape() as tape:
            y = tz.mul(x, x)
        (g,) = tape.gradients(y, [x], np.ones_like(y.data))
        np.testing.assert_allclose(g.ravel(), [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            y = tz.mul(x, tz.full((1, 1, 1, 1), 2.0))
        with pytest.raises(ShapeError):
            tape.gradients(y, [x])

    @pytest.mark.parametrize("shape", [(1, 1, 2, 1), (1, 1, 4, 1), (1, 1, 1, 1), (2, 2)],
                             ids=["fewer", "more", "scalar", "rank-2"])
    def test_cotangent_of_another_shape_rejected(self, shape):
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            y = tz.mul(x, tz.full((1, 1, 1, 1), 2.0))
        with pytest.raises(ShapeError, match="cotangent shaped"):
            tape.gradients(y, [x], np.ones(shape, y.dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64])
    def test_cotangent_of_another_dtype_rejected(self, dtype):
        # a float64 seed would promote every float32 cotangent behind it
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            y = tz.mul(x, tz.full((1, 1, 1, 1), 2.0))
        with pytest.raises(TypeError, match="cotangent is"):
            tape.gradients(y, [x], np.ones(y.shape, dtype))

    def test_seeded_output_requested_gets_its_cotangent(self):
        x = tz.tensor(np.array([1.0, -2.0, 0.5]).reshape(1, 3, 1, 1))
        with GradTape() as tape:
            y = tz.mul(x, tz.full((1, 1, 1, 1), 3.0))
            z = tz.mul(y, y)
        cot = np.array([0.25, -4.0, 7.0], np.float32).reshape(z.shape)
        g_z, g_x, g_y = tape.gradients(z, [z, x, y], cot)
        assert g_z.dtype == cot.dtype
        np.testing.assert_array_equal(g_z, cot)
        np.testing.assert_array_equal(g_y, 2 * cot * y.data)
        np.testing.assert_array_equal(g_x, 3 * g_y)

    def test_unused_parameter_gets_zeros(self):
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        other = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            loss = tz.mean_all(x)
        g_x, g_other = tape.gradients(loss, [x, other])
        np.testing.assert_array_equal(g_other, 0.0)

    def test_record_whose_output_is_not_read_is_skipped(self):
        # a record whose output gets no cotangent has no backward to run
        calls = []
        x = tz.tensor(np.ones((1, 1, 2, 2)))
        with GradTape() as tape:
            tz._record("unread", (x,), tz.zeros(x.shape), lambda g: calls.append(g) or (g,))
            loss = tz.mean_all(x)
        (g_x,) = tape.gradients(loss, [x])
        assert calls == []
        np.testing.assert_array_equal(g_x, 0.25)

    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(RuntimeError):
                with GradTape():
                    pass

    def test_shared_input_accumulates(self):
        x = tz.tensor(np.array([3.0]).reshape(1, 1, 1, 1))
        with GradTape() as tape:
            loss = tz.add(tz.mul(x, x), x)  # x^2 + x
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
            loss = tz.add(tz.mul(s, s), m)   # (x + y)^2 + x*y
        g_x, g_y = tape.gradients(loss, [x, y])
        np.testing.assert_array_equal(g_x.ravel(), [8.0])   # 2(x + y) + y
        np.testing.assert_array_equal(g_y.ravel(), [7.0])   # 2(x + y) + x

    def test_requested_intermediate_gets_its_gradient(self):
        # y is a record's output and is read twice, so its cotangent is
        # accumulated before its own record runs
        x = tz.tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
        with GradTape() as tape:
            y = tz.mul(x, tz.full((1, 1, 1, 1), 3.0))
            out = tz.add(tz.mul(y, y), y)   # y^2 + y
        g_y, g_x = tape.gradients(out, [y, x], np.ones_like(out.data))
        np.testing.assert_allclose(g_y.ravel(), [7.0, -11.0])
        np.testing.assert_allclose(g_x.ravel(), [21.0, -33.0])

    def test_spent_cotangents_are_freed(self):
        # a 40-record chain over 1 MiB: holding every cotangent until the
        # end would need about 40 MiB
        x = tz.tensor(np.ones((1, 1, 512, 512)))
        k = tz.full((1, 1, 1, 1), 1.5)
        with GradTape() as tape:
            y = x
            for _ in range(40):
                y = tz.mul(y, k)
        tracemalloc.start()
        try:
            (g,) = tape.gradients(y, [x], np.ones_like(y.data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"gradients peaked at {peak / 2**20:.1f} MiB"
        np.testing.assert_allclose(g, 1.5 ** 40, rtol=1e-5)


    @staticmethod
    def _upsampled_residual(keep_leaves):
        """The network's head in miniature: a sub-pixel shuffle of a doubled
        parameter plus the bilinear upsample of four low-resolution images,
        squared and seeded with ones.  The parameter's gradient, the sum
        before squaring and the ids of the upsampled leaves, which the tape
        does not record."""
        rng = np.random.default_rng(40)
        p = tz.tensor(rng.normal(size=(1, 8, 2, 3)), np.float64)
        lows = [tz.tensor(rng.normal(size=(1, 2, 2, 3)), np.float64) for _ in range(4)]
        kept, leaf_ids = [], []
        with GradTape() as tape:
            y = tz.pixel_shuffle(tz.mul(p, tz.full((1, 1, 1, 1), 2.0, np.float64)), 2)
            for low in lows:
                leaf = tz.bilinear_upsample(low, 2)
                leaf_ids.append(id(leaf))
                y = tz.add(y, leaf)
                if keep_leaves:
                    kept.append(leaf)
                del leaf
            out = tz.mul(y, y)
        (g,) = tape.gradients(out, [p], np.ones_like(out.data))
        return g, y.data, leaf_ids

    def test_dropped_leaf_does_not_merge_cotangents(self):
        # no record pops an unrecorded leaf's cotangent, and neither the tape
        # nor add keeps the leaf, so its memory goes to the next tensor.  An
        # id()-routed tape would then merge the two tensors' cotangents, or
        # fail on their shapes; keys are never reused
        g_kept, y, kept_ids = self._upsampled_residual(keep_leaves=True)
        g_dropped, _, dropped_ids = self._upsampled_residual(keep_leaves=False)
        assert len(set(kept_ids)) == 4
        assert len(set(dropped_ids)) < 4, "no dropped leaf's memory was reused"
        np.testing.assert_array_equal(g_dropped, g_kept)
        # the gradient of sum(y^2) through y = shuffle(2 p) + leaves is
        # 4 * unshuffle(y), exact in float64
        unshuffled = y.reshape(1, 2, 2, 2, 3, 2).transpose(0, 1, 3, 5, 2, 4).reshape(1, 8, 2, 3)
        np.testing.assert_array_equal(g_dropped, 4 * unshuffled)


class TestTapeKeepsOperandsOnly:
    @pytest.mark.parametrize("op, shapes", [
        (tz.add, [(2, 3, 4, 6), (1, 3, 1, 1)]),
        (tz.sub, [(2, 3, 4, 6), (2, 1, 4, 6)]),
        (tz.mean_all, [(2, 3, 4, 6)]),
        (tz.global_avg_pool, [(2, 3, 4, 6)]),
        (tz.spectral_l1, [(2, 3, 4, 6)]),
    ], ids=["add", "sub", "mean_all", "global_avg_pool", "spectral_l1"])
    def test_backward_keeps_no_input(self, op, shapes):
        # these backward rules read only their inputs' shapes and dtypes, so
        # the tape must not keep the inputs' arrays alive
        rng = np.random.default_rng(41)
        inputs = [tz.tensor(rng.normal(size=shape)) for shape in shapes]
        with GradTape() as tape:
            out = op(*inputs)
        (rec,) = tape._records
        cells = [cell.cell_contents for cell in rec.backward.__closure__ or ()]
        assert not any(isinstance(obj, Tensor) for obj in cells)
        arrays = [weakref.ref(t.data) for t in inputs]
        del inputs
        assert [ref() for ref in arrays] == [None] * len(shapes)
        grads = rec.backward(np.ones(out.shape, out.dtype))
        assert [g.shape for g in grads] == shapes


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = tz.tensor(np.random.default_rng(16).normal(size=(1, 1, 3, 3)))
        err = tz.grad_check(lambda p: tz.mul(p[0], p[0]), [x])
        assert err < 1e-8

    def test_conv_norm_gate_chain(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        w = Tensor((rng.normal(size=(8, 4, 3, 3)) * 0.3).astype(np.float32))
        b = Tensor((rng.normal(size=(1, 8, 1, 1)) * 0.1).astype(np.float32))
        gain = Tensor(np.ones((1, 4, 1, 1), np.float32))
        shift = Tensor(np.zeros((1, 4, 1, 1), np.float32))
        project = Tensor((rng.normal(size=(4, 4, 1, 1)) * 0.5).astype(np.float32))
        project_b = Tensor(np.zeros((1, 4, 1, 1), np.float32))

        def f(p):
            y = tz.conv2d(p[0], p[1], p[2])
            y = tz.simple_gate(y)
            y = tz.conv1x1(y, p[5], p[6], (p[3], p[4]))
            return tz.mean_all(tz.mul(y, y))

        assert tz.grad_check(f, [x, w, b, gain, shift, project, project_b]) < 1e-4


class TestDeterminism:
    def test_repeated_ops_are_bit_identical(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=(1, 8, 1, 1)).astype(np.float32))
        a = tz.conv2d(x, w, b)
        c = tz.conv2d(x, w, b)
        np.testing.assert_array_equal(a.data, c.data)

    def test_finite_outputs(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))
        out = tz.logsumexp(tz.mul(x, tz.full((1, 1, 1, 1), 10.0)), axis=3)
        assert np.isfinite(out.data).all()
