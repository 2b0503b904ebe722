"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured detail once its
assertions hold, so `pytest tests/test_acceptance.py -v -s` gives one
line per criterion. Timed criteria assert their wall-clock budget.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from qpalloc.alloc import (DEFAULT_BETA, AllocConfig, BlockAllocation, bit_ratios,
                           block_mean_step, build_allocation, lambda_adapt,
                           linearity_fit, qp_offset)
from qpalloc.bdrate import RdCurve, bd_quality, bd_rate
from qpalloc.cli import main
from qpalloc.gridfile import read_grid_file, write_grid_file
from qpalloc.imageio import BlockGrid, RasterImage, save_ppm
from qpalloc.metrics import ms_ssim, ssim
from qpalloc.stepnet import (StepMap, infer_step_map, make_random_weights,
                             read_step_map, save_weights, write_step_map)
from qpalloc.toysim import encode_image

from conftest import block_contrast_pixels, detail_tile_luma, textured_pixels
from _oracles import activity_step_map, noisy_variant, reference_ms_ssim
from test_alloc import QP_OFFSET_FIXTURES


def report(number, label, detail):
    print(f"PASS criterion {number:02d}: {label} ({detail})")


def test_c01_qp_offset_fixture_suite():
    start = time.perf_counter()
    assert len(QP_OFFSET_FIXTURES) == 20
    for ratio, beta, clamp, expected in QP_OFFSET_FIXTURES:
        assert qp_offset(ratio, beta, clamp) == expected, (ratio, beta, clamp)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "hand-computed QP offsets", f"20 tuples exact in {elapsed:.3f}s")


def test_c02_uniform_step_map_fixed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        width = int(rng.integers(1, 1000))
        height = int(rng.integers(1, 1000))
        value = float(rng.uniform(0.05, 20.0))
        grid_w = -(-width // 16)
        grid_h = -(-height // 16)
        step_map = StepMap(values=np.full((grid_h, grid_w), value))
        allocation = build_allocation(step_map, width, height,
                                      AllocConfig(base_qp=37))
        assert np.all(allocation.dqp == 0)
        assert np.all(allocation.lambda_scale == 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "uniform maps give the zero offset map",
           f"50 fuzzed sizes in {elapsed:.2f}s")


def test_c03_ratio_normalization_invariant():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        width = int(rng.integers(1, 700))
        height = int(rng.integers(1, 700))
        grid = BlockGrid(width, height)
        grid_w = -(-width // 16)
        grid_h = -(-height // 16)
        step_map = StepMap(values=rng.uniform(1e-3, 30.0, (grid_h, grid_w)))
        ratios = bit_ratios(block_mean_step(step_map, grid), grid)
        weights = grid.pixel_counts().astype(np.float64)
        worst = max(worst, abs(float(np.dot(weights, ratios) / weights.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(3, "pixel-weighted mean ratio is 1",
           f"1000 fuzzed maps, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_c04_lambda_scale_consistency():
    for d in range(-4, 5):
        scale = lambda_adapt(d)
        assert abs(scale - 2.0 ** (d / 3)) <= 1e-12
        assert abs(scale * lambda_adapt(-d) - 1.0) <= 1e-12
    report(4, "lambda scales are consistent powers of two",
           "offsets -4..4, tolerance 1e-12")


def test_c05_step_map_shape_law():
    start = time.perf_counter()
    weights = make_random_weights(seed=5, width=4)
    rng = np.random.default_rng(505)
    for size in range(1, 257):
        pixels = rng.integers(0, 256, (size, size, 3)).astype(np.uint8)
        step_map = infer_step_map(RasterImage(pixels=pixels), weights)
        assert step_map.values.shape == (-(-size // 16), -(-size // 16)), size
        assert np.all(step_map.values > 0)
    for width, height in ((1, 256), (256, 1), (17, 250), (100, 80)):
        pixels = rng.integers(0, 256, (height, width, 3)).astype(np.uint8)
        step_map = infer_step_map(RasterImage(pixels=pixels), weights)
        assert step_map.values.shape == (-(-height // 16), -(-width // 16))
        assert np.all(step_map.values > 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "inferred maps are ceil(dims/16) and positive",
           f"sizes 1..256 plus non-square in {elapsed:.1f}s")


def test_c06_structural_metric_oracles():
    for seed, sigma in [(0, 4.0), (1, 10.0), (2, 20.0), (3, 35.0), (4, 60.0)]:
        a = RasterImage(pixels=textured_pixels(176, 176, seed=seed))
        b = noisy_variant(a, sigma=sigma, seed=seed + 50)
        mine = ms_ssim(a, b)
        reference = reference_ms_ssim(a, b)
        assert abs(mine - reference) < 1e-4, (seed, sigma, mine, reference)

    c1 = (0.01 * 255.0) ** 2
    closed_form = (2 * 100 * 120 + c1) / (100 ** 2 + 120 ** 2 + c1)
    value = ssim(RasterImage(pixels=np.full((16, 16, 3), 100, np.uint8)),
                 RasterImage(pixels=np.full((16, 16, 3), 120, np.uint8)))
    assert abs(value - closed_form) < 1e-6
    report(6, "MS-SSIM matches the independent reference",
           f"5 pairs within 1e-4; constant-image SSIM {value:.6f}")


def test_c07_bd_rate_analytic_fixtures():
    rates = np.array([0.25, 0.55, 1.1, 2.3])
    quals = np.array([30.4, 33.1, 35.9, 38.6])
    anchor = RdCurve(rates=rates, qualities=quals)

    assert abs(bd_rate(anchor, RdCurve(rates=rates, qualities=quals))) < 1e-9
    shifted = RdCurve(rates=rates * 0.9, qualities=quals)
    assert abs(bd_rate(anchor, shifted) - (-10.0)) < 1e-6
    lifted = RdCurve(rates=rates, qualities=quals + 1.0)
    assert abs(bd_quality(anchor, lifted) - 1.0) < 1e-6

    other = RdCurve(rates=np.array([0.22, 0.5, 1.3, 2.1]),
                    qualities=np.array([30.9, 33.4, 36.4, 38.2]))
    a = bd_rate(anchor, other)
    b = bd_rate(other, anchor)
    assert abs((1 + a / 100.0) * (1 + b / 100.0) - 1.0) < 1e-6
    report(7, "BD statistics on analytic curves",
           "identity 0, rate x0.9 -> -10%, quality +1 -> +1, antisymmetric")


def _offsets_allocation(grid, base_qp, dqp):
    dqp = np.asarray(dqp, np.int64)
    return BlockAllocation(
        grid=grid, base_qp=base_qp, qs=np.ones(grid.n_blocks),
        ratio=np.ones(grid.n_blocks), dqp=dqp)


def test_c08_toy_codec_rate_behavior():
    for seed in range(5):
        luma = textured_pixels(128, 192, seed=seed)[:, :, 0].copy()
        totals = [encode_image(luma, qp)[0].per_block_bits.sum()
                  for qp in (22, 27, 32, 37)]
        assert all(later <= earlier for earlier, later in zip(totals, totals[1:])), \
            (seed, totals)

    luma = textured_pixels(128, 128, seed=9)[:, :, 0].copy()
    grid = BlockGrid(128, 128)
    base_point, _ = encode_image(luma, _offsets_allocation(grid, 32, [0, 0, 0, 0]))
    for target in range(4):
        dqp = np.zeros(4, np.int64)
        dqp[target] = -4
        point, _ = encode_image(luma, _offsets_allocation(grid, 32, dqp))
        assert point.per_block_bits[target] >= base_point.per_block_bits[target]
        for k in range(4):
            if k != target:
                assert point.per_block_bits[k] == base_point.per_block_bits[k]
    report(8, "toy codec rate behavior",
           "5 fixtures monotone over QP 22/27/32/37; offsets act locally")


def test_c09_linearity_fit_oracles():
    qs = np.array([0.4, 0.9, 1.7, 2.6, 4.2, 8.8])
    report_fit = linearity_fit(512.0 / qs, qs)
    assert abs(report_fit.slope_through_origin - 1.0) < 1e-6
    assert abs(report_fit.r_squared - 1.0) < 1e-9

    rng = np.random.default_rng(909)
    qs = rng.uniform(0.5, 6.0, 64)
    bits = np.maximum(400.0 / qs + rng.normal(0.0, 25.0, 64), 1.0)
    x = (1.0 / qs) / np.mean(1.0 / qs)
    y = bits / bits.mean()
    slope = float(sum(a * b for a, b in zip(x, y)) / sum(a * a for a in x))
    ss_res = float(sum((b - slope * a) ** 2 for a, b in zip(x, y)))
    ss_tot = float(sum((b - float(np.mean(y))) ** 2 for b in y))
    fitted = linearity_fit(bits, qs)
    assert abs(fitted.slope_through_origin - slope) < 1e-9
    assert abs(fitted.r_squared - (1.0 - ss_res / ss_tot)) < 1e-9
    report(9, "linearity fit matches least-squares oracle",
           f"reciprocal data slope {report_fit.slope_through_origin:.9f}")


def _run_pipeline(ppm, weights_file, outdir):
    """stepmap -> qpmap (beta -1.367 and -1.6404, four base QPs) ->
    simulate -> assembled RD CSVs -> bd_rate JSON. Returns {path: bytes}
    snapshots."""
    step_path = outdir / "map.qsmap"
    assert main(["stepmap", str(ppm), str(weights_file), str(step_path)]) == 0
    curves = {}
    for beta in ("-1.367", "-1.6404"):
        rows = []
        for qp in (22, 27, 32, 37):
            qpmap = outdir / f"b{beta}_q{qp}.qpmap"
            assert main(["qpmap", "--stepmap", str(step_path),
                         "--base-qp", str(qp), "--beta", beta,
                         str(qpmap)]) == 0
            prefix = outdir / f"b{beta}_q{qp}"
            assert main(["simulate", str(ppm), "--qpmap", str(qpmap),
                         str(prefix)]) == 0
            rd = (outdir / f"b{beta}_q{qp}.rd.csv").read_text().splitlines()
            rows.append(rd[1])
        curve_path = outdir / f"beta{beta}.csv"
        curve_path.write_text("rate_bpp,quality\n" + "\n".join(rows) + "\n")
        curves[beta] = curve_path

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["bdrate", str(curves["-1.367"]), str(curves["-1.6404"]),
                     "--metric", "psnr"]) == 0
    (outdir / "bdrate.json").write_text(buffer.getvalue())
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_c10_end_to_end_pipeline_smoke(tmp_path):
    ppm = tmp_path / "frame.ppm"
    save_ppm(RasterImage(pixels=block_contrast_pixels(512, seed=33)), ppm)
    weights_file = tmp_path / "net.qsnw"
    save_weights(make_random_weights(seed=11, width=8), weights_file)
    outdir = tmp_path / "run"
    outdir.mkdir()

    start = time.perf_counter()
    first = _run_pipeline(ppm, weights_file, outdir)
    second = _run_pipeline(ppm, weights_file, outdir)
    elapsed = time.perf_counter() - start

    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    result = json.loads(first["bdrate.json"])
    assert math.isfinite(result["bd_rate_percent"])
    # the two beta settings must actually produce different allocations
    assert first["b-1.367_q37.qpmap"] != first["b-1.6404_q37.qpmap"]
    assert elapsed < 10.0
    report(10, "end-to-end pipeline",
           f"two bit-identical runs in {elapsed:.2f}s, "
           f"bd_rate {result['bd_rate_percent']:+.3f}%")


def test_c11_grid_format_round_trips(tmp_path):
    rng = np.random.default_rng(111)
    for trial in range(100):
        bx = int(rng.integers(1, 15))
        by = int(rng.integers(1, 15))
        tag = ("QSMAP", "QPMAP", "LSCALE", "BITS")[trial % 4]
        if tag == "QSMAP":
            step_map = StepMap(values=rng.uniform(1e-6, 50.0, (by, bx)))
            first = tmp_path / f"{trial}_a.qsmap"
            second = tmp_path / f"{trial}_b.qsmap"
            write_step_map(step_map, first)
            write_step_map(read_step_map(first), second)
        else:
            if tag == "QPMAP":
                values = rng.integers(-4, 5, (by, bx))
            elif tag == "BITS":
                values = rng.integers(0, 10 ** 7, (by, bx))
            else:  # lambda scales 2^(dqp/3) for real-valued dqp
                values = 2.0 ** (rng.uniform(-4.0, 4.0, (by, bx)) / 3)
            first = tmp_path / f"{trial}_a.grid"
            second = tmp_path / f"{trial}_b.grid"
            write_grid_file(first, tag, 64, int(rng.integers(0, 64)), values)
            loaded = read_grid_file(first, expect_tag=tag)
            write_grid_file(second, loaded.tag, loaded.block_size,
                            loaded.base_qp, loaded.values)
        assert first.read_bytes() == second.read_bytes(), (trial, tag)
    report(11, "file formats round-trip byte-identically",
           "100 fuzzed QSMAP/QPMAP/LSCALE/BITS grids")


def _msssim_bd_rate(luma: np.ndarray, beta: float) -> float:
    """Cubic MS-SSIM BD-rate of encodes under the activity map's
    allocation against flat encodes, at base QP 22/27/32/37."""
    h, w = luma.shape
    step_map = StepMap(values=activity_step_map(luma))
    ref = RasterImage(pixels=luma[:, :, None])
    curves = []
    for mapped in (False, True):
        rates, qualities = [], []
        for qp in (22, 27, 32, 37):
            qp_map = (build_allocation(step_map, w, h, AllocConfig(base_qp=qp, beta=beta))
                      if mapped else qp)
            point, recon = encode_image(luma, qp_map)
            rates.append(point.rate)
            qualities.append(ms_ssim(ref, RasterImage(pixels=recon[:, :, None])))
        curves.append(RdCurve(rates, qualities, "msssim"))
    return bd_rate(*curves)


def test_c12_activity_map_lowers_ms_ssim_bd_rate():
    """The paper's effect, signed: spending bits where the step map is
    small lowers MS-SSIM BD-rate, and the opposite sign of beta raises it.

    The bounds belong to the toy codec and an activity step map on
    frames of flat to busy 64-px tiles, not to the paper's 11 %, which
    came from VVC with a trained model. Over seeds 0-9 the default beta
    gave -5.6 to -10.3 % and the flipped one +10.9 to +15.5 %.
    """
    start = time.perf_counter()
    results = []
    for seed in range(4):
        luma = detail_tile_luma(248, 360, seed)
        default, flipped = (_msssim_bd_rate(luma, beta) for beta in (DEFAULT_BETA, -DEFAULT_BETA))
        assert default <= -2.0, (seed, default)
        assert flipped >= 5.0, (seed, flipped)
        results.append((default, flipped))
    elapsed = time.perf_counter() - start
    defaults, flips = zip(*results)
    report(12, "activity map lowers MS-SSIM BD-rate",
           f"default beta {max(defaults):+.1f} to {min(defaults):+.1f}%, flipped "
           f"{min(flips):+.1f} to {max(flips):+.1f}% over 4 frames in {elapsed:.2f}s")
