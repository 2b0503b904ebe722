import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpalloc.imageio import RasterImage
from qpalloc.metrics import _ssim_means, metric_report, ms_ssim, psnr, ssim

from conftest import textured_pixels
from _oracles import _ref_maps, noisy_variant, reference_ms_ssim, reference_ssim

# gray and RGB, odd and even sides, all large enough for five MS-SSIM scales
ORACLE_SHAPES = [(181, 247, 1), (248, 360, 1), (181, 247, 3), (248, 360, 3)]


def oracle_pairs():
    for seed, (h, w, c) in enumerate(ORACLE_SHAPES):
        a = RasterImage(pixels=textured_pixels(h, w, seed=seed)[:, :, :c].copy())
        yield a, noisy_variant(a, sigma=6.0 + 10.0 * seed, seed=seed + 40)


def constant_image(value, shape=(16, 16, 3)):
    return RasterImage(pixels=np.full(shape, value, np.uint8))


def _traced_peak(score, a, b):
    tracemalloc.start()
    try:
        score(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# valid heights of 1, 31, 32, 33 and 65 rows end the last 32-row strip
# on both sides of a strip edge; widths of 11..80 give 1..70 valid
# columns, so 16-column tiles of 1, 15, 16 and 17 outputs
@settings(max_examples=80, deadline=None)
@given(out_h=st.sampled_from([1, 31, 32, 33, 65]), w=st.integers(11, 80),
       pixels=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(out_h=1, w=11, pixels=True, seed=0)
@example(out_h=33, w=27, pixels=False, seed=1)
@example(out_h=65, w=42, pixels=True, seed=2)
def test_ssim_means_match_direct_correlation(out_h, w, pixels, seed):
    # uint8 pixels as at scale 0, or float64 planes as the pooled scales
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 255.0, (out_h + 10, w))
    y = np.clip(x + rng.normal(0.0, 20.0, x.shape), 0.0, 255.0)
    if pixels:
        x, y = np.round(x).astype(np.uint8), np.round(y).astype(np.uint8)
    lum, cs = _ref_maps(x.astype(np.float64), y.astype(np.float64))
    means = _ssim_means(x, y, lum=True)
    np.testing.assert_allclose(means, [cs.mean(), (lum * cs).mean(), lum.mean()],
                               rtol=1e-12, atol=0.0)
    # the luminance terms leave the contrast-structure sum as it was, and
    # exact SSIM symmetry needs the same bits whichever slot a plane takes
    assert _ssim_means(x, y) == means[:1]
    assert _ssim_means(y, x, lum=True) == means


class TestPsnr:
    def test_identical_is_infinite(self, textured_image):
        assert psnr(textured_image, textured_image) == math.inf

    def test_uniform_offset_of_16(self):
        a = constant_image(100)
        b = constant_image(116)
        # MSE 256 -> 10*log10(255^2/256)
        assert psnr(a, b) == pytest.approx(24.048403955560614, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(constant_image(0, (2, 2, 3)), constant_image(0, (3, 3, 3)))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (33, 65, 1),
                                       (97, 40, 3), (248, 360, 1)])
    def test_bits_equal_float64_mean(self, shape):
        # the exact int64 error sum gives the float64 formula's bits,
        # strip edges included (33 and 97 rows end strips part-way)
        def float64_psnr(a, b):
            diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
            mse = float(np.mean(diff * diff))
            return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)

        rng = np.random.default_rng(sum(shape))
        a = RasterImage(pixels=rng.integers(0, 256, shape).astype(np.uint8))
        assert psnr(a, a) == math.inf
        for spread in (1, 8, 255):
            noise = rng.integers(-spread, spread + 1, shape)
            b = RasterImage(pixels=np.clip(a.pixels + noise, 0, 255).astype(np.uint8))
            assert psnr(a, b) == float64_psnr(a, b)


class TestSsim:
    def test_self_similarity(self, textured_image):
        assert ssim(textured_image, textured_image) == pytest.approx(1.0, abs=1e-9)

    def test_constant_images_match_closed_form(self):
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 120 + c1) / (100 ** 2 + 120 ** 2 + c1)
        value = ssim(constant_image(100), constant_image(120))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_window_precondition(self):
        with pytest.raises(ValueError, match="window"):
            ssim(constant_image(0, (8, 8, 3)), constant_image(0, (8, 8, 3)))

    def test_against_reference_implementation(self):
        for a, b in oracle_pairs():
            assert ssim(a, b) == pytest.approx(reference_ssim(a, b), abs=1e-10)
            assert ssim(a, b) == ssim(b, a)

    def test_exact_symmetry_and_bound(self):
        for seed in range(4):
            a = RasterImage(pixels=textured_pixels(32, 48, seed=seed))
            b = noisy_variant(a, sigma=12.0, seed=seed + 100)
            forward = ssim(a, b)
            assert forward == ssim(b, a)
            assert abs(forward) <= 1.0


class TestMsSsim:
    def test_self_similarity(self):
        img = RasterImage(pixels=textured_pixels(176, 176, seed=9))
        assert ms_ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_minimum_size_precondition(self):
        small = constant_image(0, (128, 128, 3))
        with pytest.raises(ValueError, match="scale|small"):
            ms_ssim(small, small)

    def test_against_reference_implementation(self):
        for seed, sigma in [(0, 4.0), (1, 10.0), (2, 20.0), (3, 35.0), (4, 60.0)]:
            a = RasterImage(pixels=textured_pixels(176, 176, seed=seed))
            b = noisy_variant(a, sigma=sigma, seed=seed + 50)
            assert ms_ssim(a, b) == pytest.approx(reference_ms_ssim(a, b), abs=1e-10)
        for a, b in oracle_pairs():
            assert ms_ssim(a, b) == pytest.approx(reference_ms_ssim(a, b), abs=1e-10)
            assert ms_ssim(a, b) == ms_ssim(b, a)

    def test_exact_symmetry(self):
        a = RasterImage(pixels=textured_pixels(176, 176, seed=5))
        b = noisy_variant(a, sigma=15.0, seed=77)
        assert ms_ssim(a, b) == ms_ssim(b, a)

    def test_exact_symmetry_on_wide_rows(self):
        # 2432 px rows make the filter's vertical 16-row tile products
        # (16 x 26 x 2432 multiply-adds per plane) large enough for OpenBLAS
        # to split across threads; the horizontal ones (128 x 26 x 16) are not
        a = RasterImage(pixels=textured_pixels(176, 2432, seed=5))
        b = noisy_variant(a, sigma=15.0, seed=77)
        assert ms_ssim(a, b) == ms_ssim(b, a)
        assert ssim(a, b) == ssim(b, a)

    def test_peak_memory_is_bounded(self):
        # SSIM holds one strip workspace of 424 floats per column, whatever
        # the height. MS-SSIM's peak is either its scale-1 call (the pooled
        # x and y, 4 B per frame pixel, plus that scale's workspace of
        # 212 floats per frame column) or the pooling of scale 2 (1 B per
        # pixel more). Measured: 2.87 MB at 512x768, 8.00 MB at 2048x768;
        # the bounds allow 256 KiB over that model
        w, margin = 768, 256 * 1024
        peaks = {}
        for h in (512, 2048):
            a = RasterImage(pixels=textured_pixels(h, w, seed=8))
            b = noisy_variant(a, sigma=10.0, seed=80)
            peaks[h] = [_traced_peak(ssim, a, b), _traced_peak(ms_ssim, a, b)]
            assert peaks[h][0] < 424 * w * 8 + margin
            assert peaks[h][1] < max(4 * h * w + 212 * w * 8, 5 * h * w) + margin
        # four times the height: the same SSIM peak (to within interpreter
        # objects), and MS-SSIM grows by no more than its pooled copies
        assert abs(peaks[2048][0] - peaks[512][0]) < 4096
        assert peaks[2048][1] - peaks[512][1] < 5 * (2048 - 512) * w

    def test_monotone_degradation(self):
        base = RasterImage(pixels=textured_pixels(176, 176, seed=6))
        prev_psnr = math.inf
        prev_ms = 1.0
        noise = np.zeros(base.pixels.shape)
        rng = np.random.default_rng(123)
        for step in range(5):
            noise = noise + rng.normal(0.0, 6.0, base.pixels.shape)
            degraded = RasterImage(pixels=np.clip(
                np.round(base.pixels + noise), 0, 255).astype(np.uint8))
            cur_psnr = psnr(base, degraded)
            cur_ms = ms_ssim(base, degraded)
            assert cur_psnr < prev_psnr
            assert cur_ms <= prev_ms + 1e-12
            assert 0.0 <= cur_ms <= 1.0
            prev_psnr, prev_ms = cur_psnr, cur_ms

    def test_inverted_image_scores_in_unit_range(self):
        # the negated plane has a negative contrast-structure mean at
        # every scale, which must clamp to 0, not go complex
        a = RasterImage(pixels=np.random.default_rng(0)
                        .integers(0, 256, (200, 200, 1)).astype(np.uint8))
        b = RasterImage(pixels=255 - a.pixels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ms_ssim(a, b)
        assert 0.0 <= value <= 1.0


class TestReport:
    def test_bundles_all_metrics(self):
        img = RasterImage(pixels=textured_pixels(176, 176, seed=7))
        report = metric_report(img, img)
        assert report.psnr == math.inf
        assert report.ssim == pytest.approx(1.0, abs=1e-12)
        assert report.ms_ssim == pytest.approx(1.0, abs=1e-12)

    def test_matches_separate_calls(self):
        # bit for bit on gray and RGB pairs: SSIM and scale 0 of MS-SSIM
        # come from one shared pass of the maps
        for a, b in oracle_pairs():
            report = metric_report(a, b)
            assert report.psnr == psnr(a, b)
            assert report.ssim == ssim(a, b)
            assert report.ms_ssim == ms_ssim(a, b)

    def test_peak_memory_is_that_of_ms_ssim(self):
        # PSNR sums its errors per strip, so on a 1920x1080 RGB pair the
        # report peaks where MS-SSIM does (11.5 MB); a float64 error plane
        # in PSNR alone would take 99.5 MB
        a = RasterImage(pixels=textured_pixels(1080, 1920, seed=9))
        b = noisy_variant(a, sigma=10.0, seed=90)
        assert _traced_peak(metric_report, a, b) <= _traced_peak(ms_ssim, a, b) + 2 ** 20

    @pytest.mark.parametrize("shape", [(8, 8, 3), (128, 128, 1),
                                       (175, 300, 3), (300, 175, 1)])
    def test_size_precondition_matches_ms_ssim(self, shape):
        img = constant_image(0, shape)
        with pytest.raises(ValueError) as expected:
            ms_ssim(img, img)
        with pytest.raises(ValueError) as raised:
            metric_report(img, img)
        assert str(raised.value) == str(expected.value)
