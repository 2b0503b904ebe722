"""Output checks. Each raises CheckFailed when the program's output is wrong.

Every check compares against a computation from reference.py or against
a property the method must have, never against a stored copy of an
earlier output. test_checks.py feeds each one a corrupted input.
"""

from __future__ import annotations

import math

import numpy as np

import reference

# float32 network arithmetic against the float64 forward pass: both are
# exact to ~1e-7 per operation; 13 layers of up-to-576-term sums keep the
# relative error of the softplus output well under this.
FORWARD_RTOL = 1e-4
MS_SSIM_ATOL = 1e-7
BD_ATOL = 1e-6  # percent


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's expectation."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Step maps
# ---------------------------------------------------------------------------

def step_map(values: np.ndarray, width: int, height: int) -> None:
    """Shape ceil(h/16) x ceil(w/16), every value finite and positive."""
    expected = (-(-height // 16), -(-width // 16))
    _require(values.shape == expected,
             f"step map shape {values.shape}, expected {expected}")
    _require(np.all(np.isfinite(values)) and np.all(values > 0),
             "step map has a non-finite or non-positive value")


def identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(a.shape == b.shape and a.tobytes() == b.tobytes(),
             f"{what}: results are not byte-identical")


def near_reference(values: np.ndarray, ref: np.ndarray) -> None:
    """float32 step map within FORWARD_RTOL of the float64 forward pass."""
    _require(values.shape == ref.shape, f"shape {values.shape} vs reference {ref.shape}")
    worst = float(np.max(np.abs(values - ref) / ref))
    _require(worst <= FORWARD_RTOL,
             f"step map deviates from the float64 reference by {worst:.3g} (relative)")


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def ratio_mean(ratio: np.ndarray, width: int, height: int) -> None:
    """The bit ratios have pixel-weighted mean 1."""
    weights = reference.pixel_counts(width, height).ravel().astype(np.float64)
    mean = float(np.dot(weights, np.asarray(ratio, np.float64).ravel()) / weights.sum())
    _require(abs(mean - 1.0) <= 1e-12, f"pixel-weighted ratio mean is {mean!r}, not 1")


def offsets(step: np.ndarray, width: int, height: int, clamp: int, dqp: np.ndarray) -> None:
    """dqp equals the vectorised recomputation from the step map."""
    _, ref_dqp = reference.allocation(step, width, height, clamp=clamp)
    bad = np.flatnonzero(np.asarray(dqp).ravel() != ref_dqp.ravel())
    _require(bad.size == 0, f"dqp differs from the recomputation at {bad.size} blocks "
             f"(first block {bad[:1].tolist()})")


def lambda_offsets(dqp: np.ndarray, lambda_scale: np.ndarray, clamp: int) -> None:
    """|dqp| <= clamp and lambda_scale = 2^(dqp/3)."""
    dqp = np.asarray(dqp).ravel()
    _require(np.all(np.abs(dqp) <= clamp), f"an offset exceeds the clamp {clamp}")
    expected = np.power(2.0, dqp / 3.0)
    _require(np.allclose(np.asarray(lambda_scale).ravel(), expected, rtol=1e-12, atol=0),
             "lambda scale differs from 2^(dqp/3)")


def zero_offsets(dqp: np.ndarray, lambda_scale: np.ndarray) -> None:
    _require(not np.any(dqp), "a uniform step map gave a non-zero offset")
    _require(np.all(np.asarray(lambda_scale) == 1.0), "a uniform step map gave lambda scale != 1")


# ---------------------------------------------------------------------------
# Codec and metrics
# ---------------------------------------------------------------------------

def rate_falls(qps, rates) -> None:
    order = np.argsort(qps)
    r = np.asarray(rates, np.float64)[order]
    _require(np.all(np.diff(r) < 0), f"rate does not fall strictly as QP rises: {r.tolist()}")


def encode(rate: float, bits: np.ndarray, quality: float,
           luma: np.ndarray, recon: np.ndarray) -> None:
    """Per-block bits sum to rate x pixels; the quality is the PSNR of
    the reconstruction."""
    h, w = luma.shape
    total = int(np.asarray(bits).sum())
    _require(total / (w * h) == rate, f"bits/pixel {total / (w * h)!r} vs rate {rate!r}")
    psnr = reference.psnr(luma, recon)
    _require(math.isclose(psnr, quality, rel_tol=1e-9),
             f"recomputed PSNR {psnr!r} vs reported {quality!r}")


def ms_ssim(value: float, ref_value: float) -> None:
    _require(abs(value - ref_value) <= MS_SSIM_ATOL,
             f"ms_ssim {value!r} vs independent {ref_value!r}")


def bd_identities(self_bd: float, scaled_bd: float, k: float) -> None:
    """bd_rate(c, c) == 0 and bd_rate(c, c with rates x k) == (k-1)*100."""
    _require(self_bd == 0.0, f"bd_rate of a curve against itself is {self_bd!r}")
    _require(abs(scaled_bd - (k - 1.0) * 100.0) <= BD_ATOL,
             f"bd_rate of rates scaled by {k} is {scaled_bd!r}, expected {(k - 1) * 100!r}")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def exit_code(command: str, code: int, stderr: str) -> None:
    _require(code == 0, f"qpalloc {command} exited {code}: {stderr.strip()[-300:]}")


def grid_shape(grid: dict, width: int, height: int) -> None:
    expected = (-(-width // 64), -(-height // 64))
    _require((grid["blocks_x"], grid["blocks_y"]) == expected,
             f"{grid['tag']} grid {grid['blocks_x']}x{grid['blocks_y']}, expected "
             f"{expected[0]}x{expected[1]}")


def simulate(bits: dict, csv_rate: float, csv_quality: float,
             luma: np.ndarray, recon_pixels: np.ndarray) -> None:
    """BITS total / pixels equals the CSV rate; PSNR of the recon PPM
    equals the CSV quality."""
    h, w = luma.shape
    total = int(bits["values"].sum())
    _require(total / (w * h) == csv_rate,
             f"BITS total/pixels {total / (w * h)!r} vs CSV {csv_rate!r}")
    _require(np.array_equal(recon_pixels[..., 0], recon_pixels[..., 1])
             and np.array_equal(recon_pixels[..., 0], recon_pixels[..., 2]),
             "recon PPM is not a gray image")
    psnr = reference.psnr(luma, recon_pixels[..., 0])
    _require(math.isclose(psnr, csv_quality, rel_tol=1e-9),
             f"recon PSNR {psnr!r} vs CSV quality {csv_quality!r}")


def metrics_psnr(reported: float, ref_pixels: np.ndarray, test_pixels: np.ndarray) -> None:
    psnr = reference.psnr(ref_pixels, test_pixels)
    _require(math.isclose(psnr, reported, rel_tol=1e-9),
             f"metrics PSNR {reported!r} vs recomputed {psnr!r}")


def bdrate_zero(result: dict) -> None:
    _require(result["bd_rate_percent"] == 0.0 and result["bd_quality"] == 0.0,
             f"bdrate on identical curves gave {result}")
