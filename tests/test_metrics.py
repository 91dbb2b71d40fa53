"""PSNR/SSIM closed-form cases, a direct-formula SSIM oracle, and PSNR
and whole-image tap-sum SSIM oracles for the faster forms."""

import math
import tracemalloc

import numpy as np
import pytest

from stereosr import metrics as mt
from stereosr.tensor import ShapeError, Tensor


def ssim_direct(a: Tensor, b: Tensor) -> float:
    """Window-by-window reimplementation straight from the formula."""
    g = mt._gaussian_taps(mt.SSIM_WINDOW, mt.SSIM_SIGMA)
    window = np.outer(g, g)
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


def psnr_two_copies(a: Tensor, b: Tensor) -> float:
    """PSNR from two float64 copies, their difference and its square."""
    mse = float(np.mean(np.square(a.data.astype(np.float64) - b.data.astype(np.float64))))
    if mse <= 0.0:
        return mt.PSNR_CAP_DB
    return min(mt.PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))


def windowed_mean_taps(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode windowed mean under outer(g, g) over the whole image, as
    k row taps and then k column taps."""
    k = g.size
    h, w = x.shape[2] - k + 1, x.shape[3] - k + 1
    rows = sum(g[i] * x[:, :, i:i + h, :] for i in range(k))
    return sum(g[j] * rows[:, :, :, j:j + w] for j in range(k))


def ssim_taps(a: Tensor, b: Tensor) -> float:
    """SSIM from whole-image tap-sum windowed means and one score map."""
    g = mt._gaussian_taps(mt.SSIM_WINDOW, mt.SSIM_SIGMA)
    c1 = mt.SSIM_K1 * mt.SSIM_K1
    c2 = mt.SSIM_K2 * mt.SSIM_K2
    x = a.data.astype(np.float64)
    y = b.data.astype(np.float64)
    mu_x = windowed_mean_taps(x, g)
    mu_y = windowed_mean_taps(y, g)
    sigma_x = windowed_mean_taps(x * x, g) - mu_x * mu_x
    sigma_y = windowed_mean_taps(y * y, g) - mu_y * mu_y
    sigma_xy = windowed_mean_taps(x * y, g) - mu_x * mu_y
    scores = ((2.0 * mu_x * mu_y + c1) * (2.0 * sigma_xy + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (sigma_x + sigma_y + c2)
    )
    return float(scores.mean())


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

    @pytest.mark.parametrize("shape", [(1, 3, 14, 16), (2, 3, 7, 9), (1, 1, 1, 1), (1, 3, 372, 500)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_float64_copies_exactly(self, shape, dtype):
        a = Tensor(image(11, shape).data.astype(dtype))
        b = Tensor(image(12, shape).data.astype(dtype))
        assert mt.psnr(a, b) == psnr_two_copies(a, b)


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

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError, match="shape mismatch"):
            mt.ssim(image(0), image(1, (1, 3, 14, 17)))

    def test_too_small_image_rejected(self):
        small = image(8, (1, 3, 8, 8))
        with pytest.raises(ShapeError):
            mt.ssim(small, small)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("sides", [[0], [1], [0, 1]], ids=["first", "second", "both"])
    @pytest.mark.parametrize("where", [(3, 4), (-1, -1)], ids=["inner", "corner"])
    def test_non_finite_input_rejected(self, bad, sides, where):
        # a NaN once scored nan, and inf nan with a RuntimeWarning; the
        # corner lies in the last tile, next to the zero columns that make
        # its column windows whole
        pair = [image(0), image(1)]
        for side in sides:
            data = pair[side].data.copy()
            data[(0, 2) + where] = bad
            pair[side] = Tensor(data)
        with pytest.raises(ValueError, match="NaN or infinite"):
            mt.ssim(*pair)

    # sides of the tile edges: the window alone, one more row or column,
    # one whole tile and one tile plus one, two tiles plus one
    SIDES = (11, 12, mt.SSIM_TILE + 10, mt.SSIM_TILE + 11, 2 * mt.SSIM_TILE + 11)
    # a tile spans 32 column windows of SSIM_TILE output columns each
    PIECE = 32 * mt.SSIM_TILE

    @pytest.mark.parametrize("h", SIDES)
    @pytest.mark.parametrize("w", SIDES)
    def test_tile_edges_match_tap_sums(self, h, w):
        a, b = image(13, (1, 3, h, w)), image(14, (1, 3, h, w))
        assert mt.ssim(a, b) == pytest.approx(ssim_taps(a, b), rel=0, abs=1e-13)

    @pytest.mark.parametrize("w", [PIECE + 9, PIECE + 10, PIECE + 11], ids=["under", "at", "over"])
    @pytest.mark.parametrize("n, c", [(1, 3), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_column_pieces_match_tap_sums(self, w, n, c, dtype):
        shape = (n, c, mt.SSIM_TILE + 11, w)
        a = Tensor(image(15, shape).data.astype(dtype))
        b = Tensor(image(16, shape).data.astype(dtype))
        assert mt.ssim(a, b) == pytest.approx(ssim_taps(a, b), rel=0, abs=1e-13)

    @pytest.mark.parametrize("tile", [1, 7, 75], ids=["1", "7", "whole"])
    def test_tile_size_gives_the_tap_sum_value(self, monkeypatch, tile):
        # 40x75 gives 30x65 scores: tiles of one row span 32 columns, so the
        # last piece is one column wide; tiles of 7 rows leave a last tile of
        # 2 rows and a last window of 2 columns; 75 rows hold the image
        a, b = image(9, (1, 3, 40, 75)), image(10, (1, 3, 40, 75))
        monkeypatch.setattr(mt, "SSIM_TILE", tile)
        assert mt.ssim(a, b) == pytest.approx(ssim_taps(a, b), rel=0, abs=1e-13)

    def test_working_memory_is_bounded(self):
        # 16x65,536 RGB: whole-image float64 maps, or row bands the width of
        # the image, take tens of MiB
        a, b = image(17, (1, 3, 16, 65536)), image(18, (1, 3, 16, 65536))
        tracemalloc.start()
        try:
            mt.ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_window_normalized(self):
        g = mt._gaussian_taps(mt.SSIM_WINDOW, mt.SSIM_SIGMA)
        win = np.outer(g, g)
        assert win.shape == (11, 11)
        assert win.sum() == pytest.approx(1.0, abs=1e-12)
