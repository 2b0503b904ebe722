import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dctn

from qpalloc.alloc import BlockAllocation, linearity_fit, block_mean_step
from qpalloc.errors import GridMismatchError
from qpalloc.imageio import BlockGrid, RasterImage
from qpalloc.metrics import psnr
from qpalloc.stepnet import StepMap
from qpalloc.toysim import DCT_BASIS, RdPoint, encode_image

from conftest import allocation_with_offsets, textured_pixels
from _oracles import (dct8_forward, dct8_inverse, dequantize, golomb_bits, qstep,
                      quantize, reference_encode)


class TestDct:
    def test_constant_block_concentrates_in_dc(self):
        block = np.full((8, 8), 3.5)
        coeffs = dct8_forward(block)
        assert coeffs[0, 0] == pytest.approx(8 * 3.5, abs=1e-12)
        coeffs[0, 0] = 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(-128, 128, (8, 8))
        np.testing.assert_allclose(dct8_inverse(dct8_forward(block)), block,
                                   atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        block = rng.uniform(-100, 100, (8, 8))
        coeffs = dct8_forward(block)
        assert np.sum(block * block) == pytest.approx(np.sum(coeffs * coeffs),
                                                      abs=1e-9)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            dct8_forward(np.zeros((4, 4)))

    def test_batched_matches_scipy_dctn(self):
        rng = np.random.default_rng(2)
        tus = rng.uniform(0, 255, (300, 8, 8))
        coeffs = DCT_BASIS @ tus @ DCT_BASIS.T
        np.testing.assert_allclose(coeffs, dctn(tus, axes=(1, 2), norm="ortho"),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(DCT_BASIS.T @ coeffs @ DCT_BASIS, tus,
                                   rtol=0, atol=1e-9)

    def test_single_block_matches_scipy_dctn(self):
        block = np.random.default_rng(3).uniform(-128, 128, (8, 8))
        np.testing.assert_allclose(dct8_forward(block), dctn(block, norm="ortho"),
                                   rtol=0, atol=1e-9)


class TestQuantizer:
    def test_qp4_is_plain_rounding(self):
        assert qstep(4) == pytest.approx(1.0, abs=1e-15)
        assert quantize(2.4, 4) == 2
        assert quantize(-2.6, 4) == -3
        assert quantize(2.5, 4) == 3  # half away from zero

    def test_qp10_doubles_the_step(self):
        assert qstep(10) == pytest.approx(2.0, abs=1e-15)
        assert quantize(3.0, 10) == 2  # 1.5 rounds away

    def test_six_qp_doubling_law(self):
        for qp in range(0, 58):
            assert qstep(qp + 6) == pytest.approx(2.0 * qstep(qp), rel=1e-12)

    def test_dequantize_inverts_the_scale(self):
        assert dequantize(quantize(40.0, 22), 22) == pytest.approx(40.0, abs=qstep(22) / 2)


class TestGolomb:
    @pytest.mark.parametrize("level,expected", [
        (0, 1), (1, 3), (-1, 3), (2, 5), (-2, 5), (3, 5), (-3, 5), (4, 7),
        (-4, 7), (7, 7), (8, 9)])
    def test_code_lengths(self, level, expected):
        assert golomb_bits(level) == expected

    def test_monotone_in_magnitude(self):
        for sign in (1, -1):
            lengths = [golomb_bits(sign * q) for q in range(0, 200)]
            assert all(b >= a for a, b in zip(lengths, lengths[1:]))


class TestEncode:
    def test_zero_plane_costs_one_bit_per_coefficient(self):
        plane = np.zeros((64, 64), np.uint8)
        for qp in (4, 22, 37, 51):
            point, recon = encode_image(plane, qp)
            n_tus = (64 // 8) * (64 // 8)
            assert point.per_block_bits.sum() == n_tus * 64
            assert point.quality == math.inf
            assert np.array_equal(recon, plane)

    def test_zero_offset_map_equals_scalar_qp(self, textured_luma):
        grid = BlockGrid(128, 128)
        allocation = allocation_with_offsets(grid, 32, np.zeros((2, 2), np.int64))
        point_map, recon_map = encode_image(textured_luma, allocation)
        point_qp, recon_qp = encode_image(textured_luma, 32)
        assert np.array_equal(point_map.per_block_bits, point_qp.per_block_bits)
        assert np.array_equal(recon_map, recon_qp)
        assert point_map.rate == point_qp.rate

    def test_rate_monotone_in_qp(self):
        for seed in range(5):
            luma = textured_pixels(128, 192, seed=seed)[:, :, 0].copy()
            bits = [encode_image(luma, qp)[0].per_block_bits.sum()
                    for qp in (22, 27, 32, 37)]
            assert all(b >= a for a, b in zip(bits[1:], bits[:-1]))

    def test_lowering_one_block_only_raises_its_own_bits(self, textured_luma):
        grid = BlockGrid(128, 128)
        base = allocation_with_offsets(grid, 32, np.zeros((2, 2), np.int64))
        point_base, _ = encode_image(textured_luma, base)
        for target in np.ndindex(2, 2):
            dqp = np.zeros((2, 2), np.int64)
            dqp[target] = -4
            point_mod, _ = encode_image(textured_luma,
                                        allocation_with_offsets(grid, 32, dqp))
            others = np.ones((2, 2), bool)
            others[target] = False
            assert point_mod.per_block_bits[target] >= point_base.per_block_bits[target]
            np.testing.assert_array_equal(point_mod.per_block_bits[others],
                                          point_base.per_block_bits[others])

    def test_rate_accounts_all_blocks(self, textured_luma):
        point, _ = encode_image(textured_luma, 27)
        assert point.rate == point.per_block_bits.sum() / textured_luma.size

    def test_partial_tu_padding(self):
        luma = textured_pixels(100, 84, seed=3)[:, :, 0].copy()
        point, recon = encode_image(luma, 30)
        assert recon.shape == luma.shape
        grid = BlockGrid(84, 100)
        assert point.per_block_bits.shape == (grid.blocks_y, grid.blocks_x)
        assert point.rate == point.per_block_bits.sum() / (84 * 100)

    def test_deterministic(self, textured_luma):
        a, recon_a = encode_image(textured_luma, 29)
        b, recon_b = encode_image(textured_luma, 29)
        assert np.array_equal(a.per_block_bits, b.per_block_bits)
        assert np.array_equal(recon_a, recon_b)
        assert (a.rate, a.quality) == (b.rate, b.quality)

    def test_record_holds_what_its_readers_use(self):
        # no MSE: quality is metrics.psnr of the reconstruction
        assert [f.name for f in dataclasses.fields(RdPoint)] == \
            ["rate", "quality", "per_block_bits"]

    def test_peak_memory_per_pixel(self):
        # one block strip's workspace (three float64 and one int32 plane of
        # 64 rows by 360 columns, 0.65 MB), the uint8 reconstruction and
        # psnr's int32 chunks: 13.1 B per pixel at 360x248. The bound allows
        # about 0.6 MB over that, and fails on whole-frame float64 planes
        # (40.4 B per pixel for the plane with its coefficients and levels)
        luma = textured_pixels(248, 360, seed=4)[:, :, 0].copy()
        tracemalloc.start()
        try:
            encode_image(luma, 27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * luma.size

    def test_peak_memory_independent_of_height(self):
        # the workspace is one block strip whatever the height, so eight
        # times the rows add the uint8 reconstruction's 1 B per pixel and
        # psnr's second live chunk (0.57 B per extra pixel here); whole-frame
        # planes grow the peak by about 40 B per pixel
        encode_image(textured_pixels(64, 64, seed=6)[:, :, 0].copy(), 27)  # warm up
        peaks = {}
        for h in (256, 2048):
            luma = textured_pixels(h, 256, seed=6)[:, :, 0].copy()
            tracemalloc.start()
            try:
                encode_image(luma, 27)
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] - peaks[256] <= 3 * 256 * (2048 - 256)

    def test_grid_mismatch(self, textured_luma):
        wrong = BlockGrid(256, 256)
        allocation = allocation_with_offsets(wrong, 32, np.zeros((4, 4), np.int64))
        with pytest.raises(GridMismatchError):
            encode_image(textured_luma, allocation)

    def test_float_plane_rejected(self, textured_luma):
        with pytest.raises(ValueError, match="2-D uint8 plane"):
            encode_image(textured_luma.astype(np.float64), 32)

    def test_too_small_plane(self):
        with pytest.raises(ValueError, match="smaller"):
            encode_image(np.zeros((4, 4), np.uint8), 32)

    @pytest.mark.parametrize("qp", [-1, 64])
    def test_scalar_qp_out_of_range(self, textured_luma, qp):
        with pytest.raises(ValueError, match=r"outside \[0, 63\]"):
            encode_image(textured_luma, qp)

    @pytest.mark.parametrize("qp", [32.9, 32.0, np.float64(32.0), "32"])
    def test_scalar_qp_must_be_an_integer(self, textured_luma, qp):
        # int() would encode 32.9 at QP 32 without a word
        with pytest.raises(ValueError, match="must be an integer"):
            encode_image(textured_luma, qp)

    def test_allocation_qps_must_be_integers(self, textured_luma):
        grid = BlockGrid(128, 128)
        allocation = allocation_with_offsets(grid, 32.5, [[0, 0], [0, 2]])
        with pytest.raises(ValueError, match="must be an integer"):
            encode_image(textured_luma, allocation)
        # a float offset would be truncated: 1.5 encoded as 1
        allocation = BlockAllocation(grid=grid, base_qp=32, ratio=np.ones((2, 2)),
                                     dqp=np.array([[0.0, 0.0], [0.0, 1.5]]))
        with pytest.raises(ValueError, match="must be integers"):
            encode_image(textured_luma, allocation)
        _, recon = encode_image(textured_luma, np.int64(32))  # numpy ints are integers
        np.testing.assert_array_equal(recon, encode_image(textured_luma, 32)[1])

    def test_block_qp_out_of_range(self, textured_luma):
        grid = BlockGrid(128, 128)
        allocation = allocation_with_offsets(grid, 62, [[0, 0], [0, 2]])
        with pytest.raises(ValueError, match=r"outside \[0, 63\]"):
            encode_image(textured_luma, allocation)

    @pytest.mark.parametrize("base_qp,dqp", [(-5, [[10, 10], [5, 5]]),
                                              (64, [[-1, -4], [-4, -1]])])
    def test_base_qp_out_of_range(self, textured_luma, base_qp, dqp):
        # every block QP is in range; the base used to pass unchecked
        allocation = allocation_with_offsets(BlockGrid(128, 128), base_qp, dqp)
        with pytest.raises(ValueError, match=rf"base QP {base_qp} outside \[0, 63\]"):
            encode_image(textured_luma, allocation)


class TestQualityMatchesMetrics:
    """The codec does not score its reconstruction: quality is
    metrics.psnr of the reconstruction against the encoded plane."""

    # ragged frames that end a block strip part-way; 248x360 also ends
    # psnr's second 2^16-sample chunk part-way
    @pytest.mark.parametrize("h,w", [(33, 65), (97, 40), (248, 360)])
    def test_flat_and_mapped_points(self, h, w):
        luma = textured_pixels(h, w, seed=h + w)[:, :, 0].copy()
        grid = BlockGrid(w, h)
        dqp = np.random.default_rng(w).integers(-8, 9, (grid.blocks_y, grid.blocks_x))
        for qp_map in (0, 22, 37, allocation_with_offsets(grid, 30, dqp)):
            point, recon = encode_image(luma, qp_map)
            assert point.quality == psnr(RasterImage(pixels=luma[:, :, None]),
                                         RasterImage(pixels=recon[:, :, None]))


class TestReferenceEncode:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_unit_by_unit_oracle(self, seed):
        # ragged frames, uniform noise or textured content, random block QPs
        # over the whole legal range: bits and reconstruction agree exactly
        rng = np.random.default_rng(900 + seed)
        h, w = (int(n) for n in rng.integers(8, 201, 2))
        if seed % 2:
            luma = rng.integers(0, 256, (h, w)).astype(np.uint8)
        else:
            luma = textured_pixels(h, w, seed=seed)[:, :, 0].copy()
        grid = BlockGrid(w, h)
        dqp = rng.integers(0, 64, (grid.blocks_y, grid.blocks_x))
        point, recon = encode_image(luma, allocation_with_offsets(grid, 0, dqp))
        bits, expected = reference_encode(luma, dqp)
        np.testing.assert_array_equal(point.per_block_bits.ravel(), bits)
        np.testing.assert_array_equal(recon, expected)


class TestBlockSeparability:
    """Each 8x8 unit is coded from its own (edge-padded) pixels and its own
    block's QP, so a mapped encode is a block-by-block pick from flat
    encodes. Strips, and any later change to the codec, must keep this."""

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(8, 200), height=st.integers(8, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_mapped_encode_picks_from_flat_encodes(self, width, height, seed):
        rng = np.random.default_rng(seed)
        luma = rng.integers(0, 256, (height, width)).astype(np.uint8)
        grid = BlockGrid(width, height)
        qps = rng.integers(0, 64, (grid.blocks_y, grid.blocks_x))
        point, recon = encode_image(luma, allocation_with_offsets(grid, 0, qps))
        flat = {qp: encode_image(luma, int(qp)) for qp in np.unique(qps)}
        for (by, bx), qp in np.ndenumerate(qps):
            flat_point, flat_recon = flat[qp]
            assert point.per_block_bits[by, bx] == flat_point.per_block_bits[by, bx]
            block = np.s_[64 * by:64 * (by + 1), 64 * bx:64 * (bx + 1)]
            assert np.array_equal(recon[block], flat_recon[block])


class TestLinearityEcho:
    def test_measured_bits_track_reciprocal_step(self):
        # varied offsets over a textured frame: normalized bits against
        # normalized reciprocal quantizer step should sit near slope 1
        luma = textured_pixels(192, 192, seed=5)[:, :, 0].copy()
        grid = BlockGrid(192, 192)
        rng = np.random.default_rng(5)
        dqp = rng.integers(-4, 5, (3, 3))
        allocation = allocation_with_offsets(grid, 32, dqp)
        point, _ = encode_image(luma, allocation)

        # each 64-px block covers 4x4 step cells of its quantizer step
        qsteps = np.vectorize(qstep)(allocation.base_qp + allocation.dqp)
        cells = np.repeat(np.repeat(qsteps, 4, axis=0), 4, axis=1)
        qs = block_mean_step(StepMap(values=cells), grid)

        report = linearity_fit(point.per_block_bits.astype(np.float64), qs)
        assert 0.5 <= report.slope_through_origin <= 1.5
