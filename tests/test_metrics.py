"""PSNR/SSIM closed-form cases and a direct-formula SSIM oracle."""

import numpy as np
import pytest

from stereosr import metrics as mt
from stereosr.tensor import ShapeError, Tensor


def ssim_direct(a: Tensor, b: Tensor) -> float:
    """Window-by-window reimplementation straight from the formula."""
    window = mt.gaussian_window()
    k = window.shape[0]
    x = a.data.astype(np.float64)
    y = b.data.astype(np.float64)
    n, c, h, w = x.shape
    c1 = mt.SSIM_K1 ** 2
    c2 = mt.SSIM_K2 ** 2
    scores = []
    for nn in range(n):
        for cc in range(c):
            for i in range(h - k + 1):
                for j in range(w - k + 1):
                    pa = x[nn, cc, i:i + k, j:j + k]
                    pb = y[nn, cc, i:i + k, j:j + k]
                    mu_a = (window * pa).sum()
                    mu_b = (window * pb).sum()
                    var_a = (window * pa * pa).sum() - mu_a ** 2
                    var_b = (window * pb * pb).sum() - mu_b ** 2
                    cov = (window * pa * pb).sum() - mu_a * mu_b
                    scores.append(
                        ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
                    )
    return float(np.mean(scores))


def image(seed, shape=(1, 3, 14, 16)):
    return Tensor(np.random.default_rng(seed).uniform(size=shape).astype(np.float32))


class TestPsnr:
    def test_identical_inputs_report_cap(self):
        a = image(0)
        assert mt.psnr(a, a) == 100.0

    def test_uniform_tenth_is_twenty_db(self):
        a = Tensor(np.full((1, 3, 8, 8), 0.4, np.float32))
        b = Tensor(np.full((1, 3, 8, 8), 0.5, np.float32))
        assert mt.psnr(a, b) == pytest.approx(20.0, abs=1e-4)

    def test_uniform_half_error(self):
        a = Tensor(np.zeros((1, 3, 8, 8), np.float32))
        b = Tensor(np.full((1, 3, 8, 8), 0.5, np.float32))
        assert mt.psnr(a, b) == pytest.approx(10 * np.log10(4.0), abs=1e-4)

    def test_ordering_sanity(self):
        rng = np.random.default_rng(1)
        ref = Tensor(rng.uniform(size=(1, 3, 10, 10)).astype(np.float32))
        noise = rng.normal(size=ref.shape)
        mild = Tensor(np.clip(ref.data + 0.02 * noise, 0, 1).astype(np.float32))
        harsh = Tensor(np.clip(ref.data + 0.2 * noise, 0, 1).astype(np.float32))
        assert mt.psnr(ref, harsh) <= mt.psnr(ref, mild)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mt.psnr(image(0), image(0, (1, 3, 14, 18)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("sides", [[0], [1], [0, 1]], ids=["first", "second", "both"])
    def test_non_finite_input_rejected(self, bad, sides):
        # a NaN once scored the 100 dB cap, and inf raised a math domain error
        pair = [image(0), image(0)]
        for side in sides:
            data = pair[side].data.copy()
            data[0, 2, 3, 4] = bad
            pair[side] = Tensor(data)
        with pytest.raises(ValueError, match="NaN or infinite"):
            mt.psnr(*pair)


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        a = image(2)
        assert mt.ssim(a, a) == 1.0

    def test_constant_pair_is_one(self):
        a = Tensor(np.full((1, 3, 12, 12), 0.5, np.float32))
        b = Tensor(np.full((1, 3, 12, 12), 0.5, np.float32))
        assert mt.ssim(a, b) == 1.0

    def test_inverted_image_matches_direct_formula(self):
        a = image(3, (1, 1, 13, 15))
        b = Tensor(1.0 - a.data)
        got = mt.ssim(a, b)
        assert got < 1.0
        assert got == pytest.approx(ssim_direct(a, b), abs=1e-6)

    def test_random_pair_matches_direct_formula(self):
        a = image(4, (1, 2, 12, 13))
        b = image(5, (1, 2, 12, 13))
        assert mt.ssim(a, b) == pytest.approx(ssim_direct(a, b), abs=1e-6)

    def test_symmetry(self):
        a = image(6)
        b = image(7)
        assert abs(mt.ssim(a, b) - mt.ssim(b, a)) < 1e-9

    def test_too_small_image_rejected(self):
        small = image(8, (1, 3, 8, 8))
        with pytest.raises(ShapeError):
            mt.ssim(small, small)

    @pytest.mark.parametrize("band_rows, bands", [(1, 30), (7, 5), (29, 2)])
    def test_row_bands_give_the_unbanded_value(self, monkeypatch, band_rows, bands):
        # 40 rows give 30 output rows; bands of 7 leave a partial last band
        # of 2 rows, bands of 29 a last band of one row
        a, b = image(9, (1, 3, 40, 33)), image(10, (1, 3, 40, 33))
        monkeypatch.setattr(mt, "SSIM_BAND_BYTES", 1 << 40)
        whole = mt.ssim(a, b)
        calls = []
        windowed_mean = mt._windowed_mean
        monkeypatch.setattr(mt, "_windowed_mean", lambda *args: calls.append(1) or windowed_mean(*args))
        # one float64 row of the three channels is 3 * 33 * 8 bytes
        monkeypatch.setattr(mt, "SSIM_BAND_BYTES", band_rows * 3 * 33 * 8 + 7)
        assert mt.ssim(a, b) == whole
        assert len(calls) == 5 * bands

    def test_window_normalized(self):
        win = mt.gaussian_window()
        assert win.shape == (11, 11)
        assert win.sum() == pytest.approx(1.0, abs=1e-12)
