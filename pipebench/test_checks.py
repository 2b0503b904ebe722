"""Each output check passes a correct input and fails one corrupted input.

    python3 -m pytest pipebench/test_checks.py -q

Needs only numpy: the checks and the independent references do not
import the program.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import checks
import reference

W, H = 744, 500  # not multiples of 64 or 16, so edge blocks and cells are partial


@pytest.fixture()
def step():
    rng = np.random.default_rng(5)
    return np.exp2(rng.uniform(-2.0, 2.0, (-(-H // 16), -(-W // 16))))


def _fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_step_map_shape_and_sign(step):
    checks.step_map(step, W, H)
    _fails(checks.step_map, step[:-1], W, H)
    bad = step.copy()
    bad[3, 4] = 0.0
    _fails(checks.step_map, bad, W, H)


def test_identical_catches_one_ulp(step):
    checks.identical(step, step.copy(), "step")
    bad = step.copy()
    bad[0, 0] = np.nextafter(bad[0, 0], np.inf)
    _fails(checks.identical, bad, step, "step")


def test_near_reference_catches_scaled_map(step):
    checks.near_reference(step.astype(np.float32).astype(np.float64), step)
    _fails(checks.near_reference, step * 2.0, step)


def test_ratio_mean(step):
    ratio, _ = reference.allocation(step, W, H)
    checks.ratio_mean(ratio, W, H)
    _fails(checks.ratio_mean, ratio * 1.001, W, H)


def test_offsets_catch_one_dqp_off_by_one(step):
    _, dqp = reference.allocation(step, W, H)
    checks.offsets(step, W, H, 4, dqp)
    bad = dqp.copy().ravel()
    k = int(np.flatnonzero(np.abs(bad) < 4)[0])
    bad[k] += 1
    _fails(checks.offsets, step, W, H, 4, bad)


def test_lambda_offsets():
    dqp = np.arange(-4, 5)
    checks.lambda_offsets(dqp, 2.0 ** (dqp / 3.0), 4)
    _fails(checks.lambda_offsets, dqp, 2.0 ** (dqp / 6.0), 4)
    _fails(checks.lambda_offsets, dqp * 2, 2.0 ** (dqp * 2 / 3.0), 4)


def test_zero_offsets():
    checks.zero_offsets(np.zeros(12, np.int64), np.ones(12))
    dqp = np.zeros(12, np.int64)
    dqp[7] = 1
    _fails(checks.zero_offsets, dqp, np.ones(12))


def test_rate_falls_catches_two_rates_swapped():
    qps, rates = (22, 27, 32, 37), [2.0, 1.2, 0.7, 0.4]
    checks.rate_falls(qps, rates)
    _fails(checks.rate_falls, qps, [2.0, 0.7, 1.2, 0.4])


def test_encode_bits_and_quality():
    rng = np.random.default_rng(1)
    luma = rng.integers(0, 256, (H, W), dtype=np.uint8)
    noise = rng.integers(-3, 4, luma.shape)
    recon = np.clip(luma.astype(np.int64) + noise, 0, 255).astype(np.uint8)
    bits = rng.integers(100, 5000, 96)
    rate, quality = bits.sum() / (W * H), reference.psnr(luma, recon)
    checks.encode(rate, bits, quality, luma, recon)
    bad_bits = bits.copy()
    bad_bits[5] += 1
    _fails(checks.encode, rate, bad_bits, quality, luma, recon)
    _fails(checks.encode, rate, bits, quality + 0.01, luma, recon)


def test_ms_ssim_against_reference():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, (200, 240), dtype=np.uint8)
    b = np.clip(a.astype(np.int64) + rng.integers(-20, 21, a.shape), 0, 255).astype(np.uint8)
    assert reference.ms_ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    value = reference.ms_ssim(a, b)
    assert 0.0 < value < 1.0
    checks.ms_ssim(value, value)
    _fails(checks.ms_ssim, value + 1e-5, value)


def test_bd_identities():
    checks.bd_identities(0.0, -10.0 + 1e-9, 0.9)
    _fails(checks.bd_identities, 1e-9, -10.0, 0.9)
    _fails(checks.bd_identities, 0.0, -9.0, 0.9)


def test_exit_code():
    checks.exit_code("qpmap", 0, "")
    _fails(checks.exit_code, "qpmap", 2, "error: bad input")


def test_grid_shape():
    grid = {"tag": "QPMAP", "blocks_x": 60, "blocks_y": 34}
    checks.grid_shape(grid, 3840, 2160)
    _fails(checks.grid_shape, dict(grid, blocks_y=33), 3840, 2160)


def test_simulate_outputs():
    rng = np.random.default_rng(3)
    luma = rng.integers(0, 256, (192, 256), dtype=np.uint8)
    noise = rng.integers(-4, 5, luma.shape)
    recon = np.clip(luma.astype(np.int64) + noise, 0, 255).astype(np.uint8)
    recon_rgb = np.repeat(recon[:, :, None], 3, axis=2)
    bits = {"values": rng.integers(50, 900, (3, 4)).astype(np.float64)}
    rate, quality = bits["values"].sum() / luma.size, reference.psnr(luma, recon)
    checks.simulate(bits, rate, quality, luma, recon_rgb)
    _fails(checks.simulate, bits, rate * 1.01, quality, luma, recon_rgb)
    _fails(checks.simulate, bits, rate, quality + 0.5, luma, recon_rgb)
    tinted = recon_rgb.copy()
    tinted[0, 0, 2] ^= 1
    _fails(checks.simulate, bits, rate, quality, luma, tinted)


def test_metrics_psnr():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    b = np.clip(a.astype(np.int64) + 3, 0, 255).astype(np.uint8)
    checks.metrics_psnr(reference.psnr(a, b), a, b)
    _fails(checks.metrics_psnr, reference.psnr(a, b) + 1e-6, a, b)


def test_bdrate_zero():
    checks.bdrate_zero({"bd_rate_percent": 0.0, "bd_quality": 0.0})
    _fails(checks.bdrate_zero, {"bd_rate_percent": 1e-12, "bd_quality": 0.0})


# ---------------------------------------------------------------------------
# The independent references agree with plain loops
# ---------------------------------------------------------------------------

def test_block_means_match_a_loop(step):
    means = reference.block_means(step, W, H)
    for by in range(means.shape[0]):
        for bx in range(means.shape[1]):
            x0, y0 = bx * 64, by * 64
            cx1, cy1 = -(-min(x0 + 64, W) // 16), -(-min(y0 + 64, H) // 16)
            assert means[by, bx] == pytest.approx(step[y0 // 16:cy1, x0 // 16:cx1].mean(),
                                                  rel=1e-14)


def test_conv2d_matches_a_loop():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 9, 7))
    w = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=2)
    out = reference.conv2d(x, w, b, 2)
    assert out.shape == (2, 5, 4)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")
    for o in range(2):
        for i in range(5):
            for j in range(4):
                expected = b[o] + np.sum(w[o] * xp[:, 2 * i:2 * i + 3, 2 * j:2 * j + 3])
                assert math.isclose(out[o, i, j], expected, rel_tol=1e-12, abs_tol=1e-12)


def test_formats_round_trip(tmp_path, step):
    reference.write_qsmap(tmp_path / "a.qsmap", step)
    assert np.array_equal(reference.read_qsmap(tmp_path / "a.qsmap"), step)
    pixels = np.random.default_rng(7).integers(0, 256, (5, 6, 3), dtype=np.uint8)
    reference.write_ppm(tmp_path / "a.ppm", pixels)
    assert np.array_equal(reference.read_ppm(tmp_path / "a.ppm"), pixels)
    reference.write_grid(tmp_path / "a.qpmap", "QPMAP", 64, 32, np.array([[1, -2], [0, 4]]))
    grid = reference.read_grid(tmp_path / "a.qpmap")
    assert (grid["blocks_x"], grid["blocks_y"], grid["base_qp"]) == (2, 2, 32)
    assert grid["values"].tolist() == [[1, -2], [0, 4]]


def test_benchmark_json_lists_every_reported_metric():
    import run
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [row[0] for row in run.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(row[1], row[2]) for row in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
