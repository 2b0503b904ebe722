import dataclasses
import math

import numpy as np
import pytest

from qpalloc.alloc import (EPS, AllocConfig, BlockAllocation, bit_ratios,
                           block_mean_step, build_allocation, lambda_adapt,
                           linearity_fit, qp_offset)
from qpalloc.errors import GridMismatchError
from qpalloc.imageio import BlockGrid
from qpalloc.stepnet import StepMap

# (ratio, beta, clamp) -> expected offset, all with N = 3.
# raw = 3 * beta * log2(ratio), rounded half away from zero, then
# clamped. Ties (raw = +-1.5) are built from exact dyadic factors.
QP_OFFSET_FIXTURES = [
    (1.0, -1.367, 4, 0),        # log2(1) = 0
    (2.0, -1.367, 4, -4),       # raw -4.101
    (0.5, -1.367, 4, +4),       # raw +4.101
    (0.5, -1.0, 4, +3),         # raw exactly +3
    (2.0, -1.0, 4, -3),
    (4.0, -1.0, 4, -4),         # raw -6 saturates the clamp
    (0.25, -1.0, 4, +4),        # raw +6 saturates the clamp
    (0.25, -1.0, 2, +2),        # tighter clamp
    (4.0, -1.0, 0, 0),          # clamp 0 pins everything
    (2.0, -1.2, 4, -4),         # raw -3.6 rounds away from zero
    (0.5, -1.2, 4, +4),         # raw +3.6
    (2.0, -1.6404, 4, -4),      # raw -4.9212 -> -5 -> clamped
    (2.0, -0.5, 4, -2),         # raw exactly -1.5, tie rounds away
    (0.5, -0.5, 4, +2),         # raw exactly +1.5, tie rounds away
    (2.0, -0.5, 1, -1),         # tie, then clamp
    (8.0, -1.367, 4, -4),       # raw -12.303
    (0.125, -1.367, 4, +4),     # raw +12.303
    (1.0, -10.0, 4, 0),         # ratio 1 wins over any beta
    (2.0, 1.0, 4, +3),          # positive beta flips the direction
    (4.0, -0.25, 4, -2),        # raw exactly -1.5 via log2 4 = 2
]


def uniform_map(grid_h, grid_w, value=1.0):
    return StepMap(values=np.full((grid_h, grid_w), float(value)))


class TestBlockMeanStep:
    def test_uniform_map(self):
        grid = BlockGrid(128, 128)
        qs = block_mean_step(uniform_map(8, 8, 3.25), grid)
        np.testing.assert_array_equal(qs, np.full((2, 2), 3.25))

    def test_quadrant_means(self):
        values = np.ones((8, 8))
        values[:4, :4] = 2.0
        grid = BlockGrid(128, 128)
        qs = block_mean_step(StepMap(values=values), grid)
        np.testing.assert_array_equal(qs, [[2.0, 1.0], [1.0, 1.0]])

    def test_steps_near_the_float64_limit(self):
        # 16 cells of 1e308 used to overflow the block sum (and print a
        # RuntimeWarning); the left block's mean is 1e308 itself
        values = np.ones((4, 8))
        values[:, :4] = 1e308
        qs = block_mean_step(StepMap(values=values), BlockGrid(128, 64))
        np.testing.assert_array_equal(qs, [[1e308, 1.0]])
        largest = np.finfo(np.float64).max
        qs = block_mean_step(uniform_map(4, 4, largest), BlockGrid(64, 64))
        np.testing.assert_array_equal(qs, [[largest]])

    def test_partial_edge_blocks_average_covered_cells(self):
        # 100x80 frame: 7x5 step cells, 2x2 blocks with 36px-wide right
        # column and 16px-tall bottom row
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 4.0, (5, 7))
        grid = BlockGrid(100, 80)
        qs = block_mean_step(StepMap(values=values), grid)
        assert qs.shape == (2, 2)
        expected = [[values[0:4, 0:4].mean(), values[0:4, 4:7].mean()],
                    [values[4:5, 0:4].mean(), values[4:5, 4:7].mean()]]
        # one cell sum per block adds in another order than np.mean
        np.testing.assert_allclose(qs, expected, rtol=1e-15, atol=0)

    def test_dimension_consistency_enforced(self):
        grid = BlockGrid(128, 128)
        with pytest.raises(GridMismatchError):
            block_mean_step(uniform_map(4, 4), grid)

    def test_mismatch_reads_rows_then_columns(self):
        # 8 rows of 4 cells fit a 64x128 frame, not a 128x64 one
        with pytest.raises(GridMismatchError) as info:
            block_mean_step(uniform_map(8, 4), BlockGrid(128, 64))
        assert str(info.value) == \
            "step map 4x8 does not match a 128x64 frame (expected 8x4)"


class TestBitRatios:
    def test_uniform_steps_normalize_to_one(self):
        grid = BlockGrid(128, 128)
        np.testing.assert_allclose(bit_ratios(np.full((2, 2), 2.5), grid), 1.0,
                                   atol=1e-12)

    def test_two_equal_blocks(self):
        grid = BlockGrid(128, 64)
        r = bit_ratios(np.array([[1.0, 2.0]]), grid)
        np.testing.assert_allclose(r, [[4.0 / 3.0, 2.0 / 3.0]], rtol=1e-15)

    def test_weighted_mean_is_one_under_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = int(rng.integers(1, 400))
            h = int(rng.integers(1, 400))
            grid = BlockGrid(w, h)
            weights = grid.pixel_counts().astype(np.float64)
            qs = rng.uniform(1e-4, 50.0, weights.shape)
            r = bit_ratios(qs, grid)
            assert r.shape == weights.shape
            assert abs(np.dot(weights.ravel(), r.ravel()) / weights.sum() - 1.0) < 1e-9

    def test_eps_floors_degenerate_steps(self):
        grid = BlockGrid(128, 64)
        r = bit_ratios(np.array([[0.0, 1.0]]), grid)
        assert np.all(np.isfinite(r)) and r[0, 0] > r[0, 1]
        assert r[0, 0] / r[0, 1] == pytest.approx(1.0 / EPS)

    def test_empty_rejected(self):
        # a grid holds at least 1 block, so the shape check rejects it
        grid = BlockGrid(64, 64)
        with pytest.raises(GridMismatchError,
                           match=r"step means shaped \(0,\) for a grid of \(1, 1\) blocks"):
            bit_ratios(np.array([]), grid)

    @pytest.mark.parametrize("qs,error,match", [
        (np.ones(3), GridMismatchError, r"step means shaped \(3,\) for a grid of \(2, 2\) blocks"),
        (np.array([[1.0, np.nan], [1.0, 1.0]]), ValueError, "must be finite"),
        # the right number of blocks, laid out flat, is not the grid
        (np.ones(4), GridMismatchError, r"step means shaped \(4,\) for a grid of \(2, 2\) blocks"),
        (np.ones((4, 1)), GridMismatchError, r"shaped \(4, 1\) for a grid of \(2, 2\) blocks"),
    ], ids=["wrong-length", "nan", "flat", "transposed-layout"])
    def test_bad_step_means_rejected(self, qs, error, match):
        with pytest.raises(error, match=match):
            bit_ratios(qs, BlockGrid(128, 128))

    def test_normalization_is_idempotent(self):
        rng = np.random.default_rng(2)
        grid = BlockGrid(200, 137)
        qs = rng.uniform(0.1, 10.0, (grid.blocks_y, grid.blocks_x))
        first = bit_ratios(1.0 / qs, grid)
        second = bit_ratios(1.0 / first, grid)
        np.testing.assert_allclose(second, first, atol=1e-12)


class TestQpOffset:
    @pytest.mark.parametrize("ratio,beta,clamp,expected", QP_OFFSET_FIXTURES)
    def test_hand_computed_offsets(self, ratio, beta, clamp, expected):
        assert qp_offset(ratio, beta, clamp) == expected

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            qp_offset(0.0, -1.0, 4)

    @pytest.mark.parametrize("ratio,beta,clamp,match", [
        (math.nan, -1.367, 4, "bit ratios must be finite and positive"),
        (math.inf, 0.0, 4, "bit ratios must be finite and positive"),
        (np.array([1.0, math.nan]), -1.367, 4, "bit ratios must be finite and positive"),
        (2.0, math.nan, 4, "beta must be a finite scalar"),
        (2.0, -math.inf, 4, "beta must be a finite scalar"),
        (2.0, np.array([-1.0, -2.0]), 4, "beta must be a finite scalar"),
        (2.0, -1.367, -1, r"clamp -1 outside \[0, 63\]"),
        (2.0, -1.367, 64, r"clamp 64 outside \[0, 63\]"),
        (2.0, -1.367, 2.5, "clamp must be an integer"),
    ], ids=["nan-ratio", "inf-ratio", "nan-in-array", "nan-beta", "inf-beta",
            "array-beta", "negative-clamp", "clamp-64", "float-clamp"])
    def test_out_of_domain_input_rejected(self, ratio, beta, clamp, match):
        # AllocConfig's domain for beta and clamp, with its wording
        with pytest.raises(ValueError, match=match):
            qp_offset(ratio, beta, clamp)

    def test_offset_always_within_clamp(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            clamp = int(rng.integers(0, 9))
            d = qp_offset(float(rng.uniform(0.01, 100.0)),
                          float(rng.uniform(-9.0, 3.0)), clamp)
            assert -clamp <= d <= clamp

    def test_doubling_beta_equals_squaring_ratio(self):
        # away from rounding ties, beta 2b on r matches beta b on r^2;
        # |raw| < 3 * 2 * 3 * log2(10) < 60 never reaches the clamp
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 200:
            r = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(-3.0, -0.04))
            raw = 3 * 2 * beta * math.log2(r)
            if abs(abs(raw) % 1.0 - 0.5) < 1e-3:
                continue
            assert qp_offset(r, 2 * beta, 63) == qp_offset(r * r, beta, 63)
            checked += 1


class TestLambdaAdapt:
    @pytest.mark.parametrize("dqp,expected", [(0, 1.0), (3, 2.0), (-3, 0.5)])
    def test_exact_powers(self, dqp, expected):
        assert lambda_adapt(dqp) == expected

    def test_symmetric_scales_cancel(self):
        for d in range(-8, 9):
            assert lambda_adapt(d) * lambda_adapt(-d) == pytest.approx(1.0, abs=1e-12)


class TestBuildAllocation:
    def test_uniform_map_is_the_zero_offset_fixed_point(self):
        cfg = AllocConfig(base_qp=37)
        allocation = build_allocation(uniform_map(8, 8, 2.0), 128, 128, cfg)
        np.testing.assert_array_equal(allocation.dqp, 0)
        np.testing.assert_array_equal(allocation.lambda_scale, 1.0)
        np.testing.assert_array_equal(allocation.base_qp + allocation.dqp, 37)

    def test_two_block_chain(self):
        values = np.ones((4, 8))
        values[:, 4:] = 2.0
        cfg = AllocConfig(base_qp=32, beta=-1.0)
        allocation = build_allocation(StepMap(values=values), 128, 64, cfg)
        # ratios {4/3, 2/3} -> raw offsets {-1.245, +1.755} -> {-1, +2}
        np.testing.assert_array_equal(allocation.dqp, [[-1, 2]])
        np.testing.assert_array_equal(allocation.base_qp + allocation.dqp, [[31, 34]])
        np.testing.assert_allclose(allocation.lambda_scale,
                                   [[2.0 ** (-1 / 3), 2.0 ** (2 / 3)]], atol=1e-12)

    def test_negative_beta_gives_monotone_offsets_in_step(self):
        rng = np.random.default_rng(5)
        cfg = AllocConfig(base_qp=32)
        for _ in range(30):
            gw, gh = (int(v) for v in rng.integers(4, 20, 2))
            values = rng.uniform(0.2, 5.0, (gh, gw))
            step_map = StepMap(values=values)
            allocation = build_allocation(step_map, gw * 16, gh * 16, cfg)
            order = np.argsort(block_mean_step(step_map, allocation.grid).ravel())
            assert np.all(np.diff(allocation.dqp.ravel()[order]) >= 0)

    def test_record_holds_what_its_readers_use(self):
        # block mean steps are not kept: block_mean_step(step_map, grid)
        assert [f.name for f in dataclasses.fields(BlockAllocation)] == \
            ["grid", "base_qp", "ratio", "dqp"]

    @pytest.mark.parametrize("ratio,dqp,match", [
        (np.ones((2, 2)), np.zeros((2, 1), np.int64),
         r"QP offsets shaped \(2, 1\) for a grid of \(2, 2\) blocks"),
        (np.ones((2, 3)), np.zeros((2, 2), np.int64),
         r"bit ratios shaped \(2, 3\) for a grid of \(2, 2\) blocks"),
        # the right number of blocks, laid out flat: refused, not broadcast
        (np.ones((2, 2)), np.zeros(4, np.int64), r"QP offsets shaped \(4,\)"),
        (np.ones(4), np.zeros((2, 2), np.int64), r"bit ratios shaped \(4,\)"),
        (np.ones((2, 2)), np.zeros((1, 4), np.int64), r"QP offsets shaped \(1, 4\)"),
    ], ids=["short-dqp", "long-ratio", "flat-dqp", "flat-ratio", "wrong-layout-dqp"])
    def test_record_lengths_must_match_the_grid(self, ratio, dqp, match):
        # refused where it is built, not inside the codec
        with pytest.raises(GridMismatchError, match=match):
            BlockAllocation(grid=BlockGrid(128, 128), base_qp=32, ratio=ratio, dqp=dqp)


class TestAllocConfig:
    @pytest.mark.parametrize("kwargs", [
        {"beta": math.inf}, {"beta": -math.inf}, {"beta": math.nan},
        {"beta": np.array([[-1.0, math.nan]])}, {"beta": np.ones((2, 2))},
        {"clamp": -1}, {"clamp": 64}, {"base_qp": -1}, {"base_qp": 64},
        {"base_qp": 32.5}, {"base_qp": 32.0}, {"base_qp": np.float64(32.0)},
        {"base_qp": "32"}, {"clamp": 2.7}, {"clamp": 4.0}])
    def test_rejects_out_of_domain_knobs(self, kwargs):
        # beta is one scalar for the frame; a per-block array is refused.
        # QPs are integers: a float base_qp would give a float dqp and
        # block QPs (32.5 + 2 = 34.5) that the codec truncates (to 34).
        with pytest.raises(ValueError):
            AllocConfig(**{"base_qp": 32, **kwargs})

    def test_numpy_integers_are_read_as_ints(self):
        cfg = AllocConfig(base_qp=np.int64(32), beta=-1.0, clamp=np.uint8(2))
        assert type(cfg.base_qp) is int and type(cfg.clamp) is int
        values = np.ones((4, 8))
        values[:, 4:] = 2.0
        allocation = build_allocation(StepMap(values=values), 128, 64, cfg)
        assert allocation.dqp.dtype == np.int64
        np.testing.assert_array_equal(allocation.base_qp + allocation.dqp, [[31, 34]])

    def test_overflowing_raw_offset_saturates(self):
        # 3 * beta overflows to inf; ratio 1 still gives 0
        d = qp_offset(np.array([0.5, 1.0, 2.0]), 1e308, 4)
        np.testing.assert_array_equal(d, [-4, 0, 4])


class TestLinearityFit:
    def test_exact_reciprocal_bits(self):
        qs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        report = linearity_fit(640.0 / qs, qs)
        assert report.slope_through_origin == pytest.approx(1.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.n_blocks == 5

    def test_constant_bits_against_least_squares_oracle(self):
        # independent through-origin least squares on the three points
        qs = [1.0, 2.0, 4.0]
        inv = [1.0 / q for q in qs]
        xs = [v / (sum(inv) / 3.0) for v in inv]
        ys = [1.0, 1.0, 1.0]
        expected = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
        report = linearity_fit(np.array([7.0, 7.0, 7.0]), np.array(qs))
        assert report.slope_through_origin == pytest.approx(expected, abs=1e-12)
        assert report.r_squared == 0.0  # SS_tot vanishes for constant bits

    def test_mixed_data_against_oracle(self):
        rng = np.random.default_rng(6)
        qs = rng.uniform(0.5, 6.0, 40)
        bits = 300.0 / qs + rng.normal(0.0, 15.0, 40)
        bits = np.maximum(bits, 1.0)
        x = (1.0 / qs) / np.mean(1.0 / qs)
        y = bits / bits.mean()
        slope = float(sum(a * b for a, b in zip(x, y)) / sum(a * a for a in x))
        ss_res = float(sum((b - slope * a) ** 2 for a, b in zip(x, y)))
        ss_tot = float(sum((b - y.mean()) ** 2 for b in y))
        report = linearity_fit(bits, qs)
        assert report.slope_through_origin == pytest.approx(slope, abs=1e-9)
        assert report.r_squared == pytest.approx(1 - ss_res / ss_tot, abs=1e-9)
        assert 0.0 <= report.r_squared <= 1.0

    def test_block_grids_fit_as_their_row_major_values(self):
        # per-block arrays come as (blocks_y, blocks_x); the fit pairs them
        # element by element, not as matrices
        rng = np.random.default_rng(7)
        qs = rng.uniform(0.5, 6.0, (3, 3))
        bits = 300.0 / qs + rng.normal(0.0, 15.0, (3, 3))
        assert linearity_fit(bits, qs) == linearity_fit(bits.ravel(), qs.ravel())

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 2"):
            linearity_fit(np.array([4.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="length"):
            linearity_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="mean bits"):
            linearity_fit(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bits,qs,match", [
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], "bit counts must be finite"),
        ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0], "bit counts must be finite"),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], "step means must be finite"),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "step means must be finite"),
    ], ids=["nan-bits", "inf-bits", "inf-step", "nan-step"])
    def test_non_finite_input_rejected(self, bits, qs, match):
        with pytest.raises(ValueError, match=match):
            linearity_fit(np.array(bits), np.array(qs))
