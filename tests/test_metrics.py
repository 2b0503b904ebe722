import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import correlate2d

from qpalloc.imageio import RasterImage
from qpalloc.metrics import (_filter_valid, lpips_to_db, metric_report, ms_ssim,
                             psnr, ssim)

from conftest import textured_pixels
from _oracles import _ref_kernel, noisy_variant, reference_ms_ssim, reference_ssim

# gray and RGB, odd and even sides, all large enough for five MS-SSIM scales
ORACLE_SHAPES = [(181, 247, 1), (248, 360, 1), (181, 247, 3), (248, 360, 3)]


def oracle_pairs():
    for seed, (h, w, c) in enumerate(ORACLE_SHAPES):
        a = RasterImage(pixels=textured_pixels(h, w, seed=seed)[:, :, :c].copy())
        yield a, noisy_variant(a, sigma=6.0 + 10.0 * seed, seed=seed + 40)


def constant_image(value, shape=(16, 16, 3)):
    return RasterImage(pixels=np.full(shape, value, np.uint8))


# sides of 11..80 give valid outputs of 1..70, so tiles of 1, 15, 16, 17
# and 32 outputs on either axis: both sides of each 16-output boundary
@settings(max_examples=80, deadline=None)
@given(planes=st.integers(1, 5), h=st.integers(11, 80), w=st.integers(11, 80),
       seed=st.integers(0, 2 ** 32 - 1))
@example(planes=5, h=11, w=25, seed=0)
@example(planes=3, h=26, w=27, seed=1)
@example(planes=4, h=27, w=42, seed=2)
@example(planes=1, h=42, w=26, seed=3)
def test_filter_matches_direct_correlation(planes, h, w, seed):
    stack = np.random.default_rng(seed).uniform(0.0, 65025.0, (planes, h, w))
    filtered = _filter_valid(stack)
    kernel = _ref_kernel()
    for k, plane in enumerate(stack):
        np.testing.assert_allclose(filtered[k], correlate2d(plane, kernel, mode="valid"),
                                   rtol=1e-12, atol=0.0)
        # exact SSIM symmetry needs a plane's bits independent of the stack
        alone = _filter_valid(stack[k:k + 1])[0]
        assert alone.tobytes() == filtered[k].tobytes()
        assert alone.tobytes() == _filter_valid(stack[::-1].copy())[planes - 1 - k].tobytes()


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
        # 2432 px rows make the filter's 16-row tile products (16 x 26 x 2432
        # multiply-adds) large enough for OpenBLAS to split across threads
        a = RasterImage(pixels=textured_pixels(176, 2432, seed=5))
        b = noisy_variant(a, sigma=15.0, seed=77)
        assert ms_ssim(a, b) == ms_ssim(b, a)
        assert ssim(a, b) == ssim(b, a)

    def test_peak_memory_is_bounded(self):
        # the four-plane buffer, the buffer both filter passes share and
        # one map: about 12.8 float64 planes of the frame at the peak
        h, w = 512, 768
        a = RasterImage(pixels=textured_pixels(h, w, seed=8))
        b = noisy_variant(a, sigma=10.0, seed=80)
        tracemalloc.start()
        try:
            ms_ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * h * w * 8

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


class TestLpipsToDb:
    @pytest.mark.parametrize("value,expected", [(0.1, 10.0), (1.0, 0.0), (0.01, 20.0)])
    def test_powers_of_ten(self, value, expected):
        assert lpips_to_db(value) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lpips_to_db(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        # nan used to come back as nan and inf as -inf dB
        with pytest.raises(ValueError, match="finite and positive"):
            lpips_to_db(value)

    def test_round_trip_with_inverse(self):
        for x in np.linspace(-30.0, 30.0, 13):
            assert lpips_to_db(10.0 ** (-x / 10.0)) == pytest.approx(x, abs=1e-12)


class TestReport:
    def test_bundles_all_metrics(self):
        img = RasterImage(pixels=textured_pixels(176, 176, seed=7))
        report = metric_report(img, img, lpips=0.1)
        assert report.psnr == math.inf
        assert report.ssim == pytest.approx(1.0, abs=1e-12)
        assert report.ms_ssim == pytest.approx(1.0, abs=1e-12)
        assert report.lpips_db == pytest.approx(10.0, abs=1e-12)

    def test_lpips_checked_before_scoring(self):
        # a bad value used to be rejected only after the full scoring pass
        small = constant_image(0, (8, 8, 3))
        with pytest.raises(ValueError, match="LPIPS"):
            metric_report(small, small, lpips=math.nan)

    def test_matches_separate_calls(self):
        # bit for bit on gray and RGB pairs: SSIM and scale 0 of MS-SSIM
        # come from one shared pass of the maps
        for a, b in oracle_pairs():
            report = metric_report(a, b)
            assert report.psnr == psnr(a, b)
            assert report.ssim == ssim(a, b)
            assert report.ms_ssim == ms_ssim(a, b)

    @pytest.mark.parametrize("shape", [(8, 8, 3), (128, 128, 1),
                                       (175, 300, 3), (300, 175, 1)])
    def test_size_precondition_matches_ms_ssim(self, shape):
        img = constant_image(0, shape)
        with pytest.raises(ValueError) as expected:
            ms_ssim(img, img)
        with pytest.raises(ValueError) as raised:
            metric_report(img, img)
        assert str(raised.value) == str(expected.value)
