import numpy as np
import pytest
from scipy.fft import dctn

from qpalloc.alloc import BlockAllocation, lambda_adapt, linearity_fit, block_mean_step
from qpalloc.errors import GridMismatchError
from qpalloc.imageio import block_partition
from qpalloc.stepnet import StepMap
from qpalloc.toysim import (DCT_BASIS, dct8_forward, dct8_inverse,
                            dequantize, encode_image, golomb_bits, qstep,
                            quantize)

from conftest import textured_pixels


def allocation_with_offsets(grid, base_qp, dqp):
    dqp = np.asarray(dqp, np.int64)
    return BlockAllocation(
        grid=grid, base_qp=base_qp,
        qs=np.ones(grid.n_blocks), ratio=np.ones(grid.n_blocks),
        beta=np.full(grid.n_blocks, -1.367), dqp=dqp, qp=base_qp + dqp,
        lambda_scale=np.array([lambda_adapt(int(d)) for d in dqp]))


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
            assert point.distortion == 0.0
            assert np.array_equal(recon, plane)

    def test_zero_offset_map_equals_scalar_qp(self, textured_luma):
        grid = block_partition(128, 128, 64)
        allocation = allocation_with_offsets(grid, 32, np.zeros(4, np.int64))
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
        grid = block_partition(128, 128, 64)
        base = allocation_with_offsets(grid, 32, np.zeros(4, np.int64))
        point_base, _ = encode_image(textured_luma, base)
        for target in range(4):
            dqp = np.zeros(4, np.int64)
            dqp[target] = -4
            point_mod, _ = encode_image(textured_luma,
                                        allocation_with_offsets(grid, 32, dqp))
            others = [k for k in range(4) if k != target]
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
        grid = block_partition(84, 100, 64)
        assert point.per_block_bits.shape == (grid.n_blocks,)
        assert point.rate == point.per_block_bits.sum() / (84 * 100)

    def test_deterministic(self, textured_luma):
        a, recon_a = encode_image(textured_luma, 29)
        b, recon_b = encode_image(textured_luma, 29)
        assert np.array_equal(a.per_block_bits, b.per_block_bits)
        assert np.array_equal(recon_a, recon_b)
        assert (a.rate, a.distortion, a.quality) == (b.rate, b.distortion, b.quality)

    def test_grid_mismatch(self, textured_luma):
        wrong = block_partition(256, 256, 64)
        allocation = allocation_with_offsets(wrong, 32, np.zeros(16, np.int64))
        with pytest.raises(GridMismatchError):
            encode_image(textured_luma, allocation)

    def test_too_small_plane(self):
        with pytest.raises(ValueError, match="smaller"):
            encode_image(np.zeros((4, 4), np.uint8), 32)

    @pytest.mark.parametrize("qp", [-1, 64])
    def test_scalar_qp_out_of_range(self, textured_luma, qp):
        with pytest.raises(ValueError, match=r"outside \[0, 63\]"):
            encode_image(textured_luma, qp)

    def test_block_qp_out_of_range(self, textured_luma):
        grid = block_partition(128, 128, 64)
        allocation = allocation_with_offsets(grid, 62, [0, 0, 0, 2])
        with pytest.raises(ValueError, match=r"outside \[0, 63\]"):
            encode_image(textured_luma, allocation)


class TestLinearityEcho:
    def test_measured_bits_track_reciprocal_step(self):
        # varied offsets over a textured frame: normalized bits against
        # normalized reciprocal quantizer step should sit near slope 1
        luma = textured_pixels(192, 192, seed=5)[:, :, 0].copy()
        grid = block_partition(192, 192, 64)
        rng = np.random.default_rng(5)
        dqp = rng.integers(-4, 5, grid.n_blocks)
        allocation = allocation_with_offsets(grid, 32, dqp)
        point, _ = encode_image(luma, allocation)

        cells = np.zeros((12, 12))
        qsteps = np.array([qstep(int(q)) for q in allocation.qp])
        for k in range(grid.n_blocks):
            x0, y0, w, h = grid.block_extent(k)
            cells[y0 // 16:(y0 + h) // 16, x0 // 16:(x0 + w) // 16] = qsteps[k]
        qs = block_mean_step(StepMap(values=cells), grid)

        report = linearity_fit(point.per_block_bits.astype(np.float64), qs)
        assert 0.5 <= report.slope_through_origin <= 1.5
