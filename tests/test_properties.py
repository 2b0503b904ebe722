"""Property tests for the allocation invariants: the pixel-weighted
mean-1 ratio, the uniform-map zero fixed point, dQP monotone in the
ratio, agreement with the per-block oracles, and the ceil(dims/16)
step-map shape law."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qpalloc.alloc import AllocConfig, bit_ratios, build_allocation, qp_offset
from qpalloc.imageio import RasterImage
from qpalloc.stepnet import StepMap, infer_step_map, make_random_weights

from _oracles import reference_block_mean_step, reference_qp_offset

# warnings are errors under tier-1, and inference times vary with size
PROPERTY = settings(max_examples=60, deadline=None)

dims = st.integers(1, 1500)
steps = st.floats(1e-3, 1e3)
SHAPE_LAW_WEIGHTS = make_random_weights(seed=5, width=4)


def grid_shape(width, height):
    return -(-height // 16), -(-width // 16)


@PROPERTY
@given(width=dims, height=dims, seed=st.integers(0, 2 ** 32 - 1))
def test_ratio_has_pixel_weighted_mean_one(width, height, seed):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), grid_shape(width, height)))
    allocation = build_allocation(StepMap(values=values), width, height,
                                  AllocConfig(base_qp=32))
    weights = allocation.grid.pixel_counts().astype(np.float64)
    assert abs(np.dot(weights, allocation.ratio) / weights.sum() - 1.0) < 1e-9


@PROPERTY
@given(width=dims, height=dims, value=steps, base_qp=st.integers(0, 63),
       beta=st.floats(-64.0, 64.0))
def test_uniform_map_gives_zero_offsets(width, height, value, base_qp, beta):
    step_map = StepMap(values=np.full(grid_shape(width, height), value))
    cfg = AllocConfig(base_qp=base_qp, beta=beta)
    allocation = build_allocation(step_map, width, height, cfg)
    assert np.all(allocation.dqp == 0)
    assert np.all(allocation.qp == base_qp)
    assert np.all(allocation.lambda_scale == 1.0)


@PROPERTY
@given(r1=st.floats(1e-6, 1e6), r2=st.floats(1e-6, 1e6), beta=st.floats(-64.0, 64.0),
       clamp=st.integers(0, 12))
def test_offset_is_monotone_in_ratio(r1, r2, beta, clamp):
    low, high = sorted((r1, r2))
    d_low, d_high = qp_offset(low, beta, clamp), qp_offset(high, beta, clamp)
    # negative beta (the default) spends fewer bits where the ratio is high
    assert (d_high - d_low) * np.sign(beta) >= 0


@PROPERTY
@given(width=dims, height=dims, seed=st.integers(0, 2 ** 32 - 1),
       beta=st.floats(-64.0, 64.0), clamp=st.integers(0, 63))
def test_allocation_matches_per_block_oracles(width, height, seed, beta, clamp):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), grid_shape(width, height)))
    allocation = build_allocation(StepMap(values=values), width, height,
                                  AllocConfig(base_qp=32, beta=beta, clamp=clamp))
    qs = reference_block_mean_step(values, allocation.grid)
    np.testing.assert_allclose(allocation.qs, qs, rtol=1e-14, atol=0)
    # each block QP 32 + dqp is clipped to [0, 63]
    dqp = [min(max(reference_qp_offset(r, beta, clamp), -32), 31)
           for r in bit_ratios(qs, allocation.grid)]
    np.testing.assert_array_equal(allocation.dqp, dqp)


@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 200), height=st.integers(1, 200), seed=st.integers(0, 255))
def test_step_map_is_ceil_dims_over_16(width, height, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (height, width, 3)).astype(np.uint8)
    step_map = infer_step_map(RasterImage(pixels=pixels), SHAPE_LAW_WEIGHTS)
    assert step_map.values.shape == grid_shape(width, height)
    assert np.all(step_map.values > 0)
