"""Bjontegaard delta statistics between two rate-quality curves.

The default mode fits log10(rate) as a cubic polynomial in quality for
each curve (normal equations on centered and scaled quality values),
integrates both fits in closed form over the shared quality span, and
converts the mean log-rate gap into a percentage:

    bd_rate = (10^((I_test - I_anchor) / span) - 1) * 100

bd_quality is the dual: quality fitted as a cubic in log10(rate),
integrated over the shared log-rate span, returned as a mean difference.
This is Bjontegaard's cubic measure (VCEG-M33, 2001).
A monotone piecewise-cubic mode ("pchip") is available for comparison
with spreadsheet-style tooling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import lax_reals
from .errors import CurveError, FormatError, OverlapError

__all__ = ["RdCurve", "bd_rate", "bd_quality", "quality_overlap",
           "read_rd_csv", "read_rd_rows"]

METRIC_TAGS = ("psnr", "ssim", "msssim", "lpips_db")


@dataclass(frozen=True)
class RdCurve:
    """Operating points (rate in bits per pixel, quality), sorted by rate.

    At least 4 points; rates positive and strictly increasing, quality
    strictly increasing with rate (higher-better metrics only, so raw
    LPIPS must be converted to dB first).
    """

    rates: np.ndarray
    qualities: np.ndarray
    metric_tag: str = "psnr"

    def __post_init__(self):
        rates = np.asarray(self.rates, np.float64)
        qualities = np.asarray(self.qualities, np.float64)
        if rates.ndim != 1 or rates.shape != qualities.shape:
            raise CurveError("rates and qualities must be 1-D and equal length")
        if rates.size < 4:
            raise CurveError(f"need at least 4 points for a cubic fit, got {rates.size}")
        if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(qualities))):
            raise CurveError("curve values must be finite")
        if np.any(rates <= 0):
            raise CurveError("rates must be positive")
        order = np.argsort(rates, kind="stable")
        rates = rates[order]
        qualities = qualities[order]
        if np.any(np.diff(rates) <= 0):
            raise CurveError("rates must be strictly increasing")
        if np.any(np.diff(qualities) <= 0):
            raise CurveError("quality must increase strictly with rate")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "qualities", qualities)


def read_rd_rows(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Raw (rates, qualities) columns of a 'rate_bpp,quality' CSV.

    No curve validation; callers that ingest raw lower-is-better columns
    convert them before building an RdCurve.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "rate_bpp,quality":
        raise FormatError(f"{path}: expected header 'rate_bpp,quality'")
    rates, qualities = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}: bad row {ln!r}")
        if lax_reals(ln):
            raise FormatError(f"{path}: non-numeric row {ln!r}")
        try:
            rates.append(float(parts[0]))
            qualities.append(float(parts[1]))
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric row {ln!r}") from exc
    return np.array(rates), np.array(qualities)


def read_rd_csv(path: str | os.PathLike, metric_tag: str = "psnr") -> RdCurve:
    """Read a 'rate_bpp,quality' CSV into a validated curve."""
    rates, qualities = read_rd_rows(path)
    return RdCurve(rates=rates, qualities=qualities, metric_tag=metric_tag)


def _cubic_mean(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Mean of the least-squares cubic y(x) over [lo, hi], in closed form.

    The fit runs on x centered and scaled to [-1, 1]; the cubic's
    antiderivative is evaluated at both ends in the same scaled variable.
    """
    center = float((x.min() + x.max()) / 2.0)
    half_range = float((x.max() - x.min()) / 2.0)
    vander = np.vander((x - center) / half_range, 4, increasing=True)
    coeffs = np.linalg.solve(vander.T @ vander, vander.T @ y)
    anti = np.concatenate(([0.0], coeffs / np.arange(1, 5)))[::-1]
    at_lo, at_hi = np.polyval(anti, (np.array([lo, hi]) - center) / half_range)
    return float(at_hi - at_lo) * half_range / (hi - lo)


def quality_overlap(anchor: RdCurve, test: RdCurve) -> tuple[float, float]:
    """Shared quality span used by bd_rate; raises OverlapError if empty."""
    lo = max(anchor.qualities.min(), test.qualities.min())
    hi = min(anchor.qualities.max(), test.qualities.max())
    if hi <= lo:
        raise OverlapError(
            f"quality ranges do not overlap "
            f"([{anchor.qualities.min()}, {anchor.qualities.max()}] vs "
            f"[{test.qualities.min()}, {test.qualities.max()}])")
    return lo, hi


def _mean_curve_value(x: np.ndarray, y: np.ndarray, lo: float, hi: float,
                      mode: str) -> float:
    if mode == "cubic":
        return _cubic_mean(x, y, lo, hi)
    if mode == "pchip":
        from scipy.interpolate import PchipInterpolator
        return float(PchipInterpolator(x, y).integrate(lo, hi)) / (hi - lo)
    raise ValueError(f"unknown interpolation mode {mode!r}")


def bd_rate(anchor: RdCurve, test: RdCurve, mode: str = "cubic") -> float:
    """Average rate difference of test over anchor at equal quality (%).

    Negative means the test curve spends fewer bits for the same
    quality.
    """
    lo, hi = quality_overlap(anchor, test)
    mean_anchor = _mean_curve_value(anchor.qualities, np.log10(anchor.rates),
                                    lo, hi, mode)
    mean_test = _mean_curve_value(test.qualities, np.log10(test.rates),
                                  lo, hi, mode)
    return float((10.0 ** (mean_test - mean_anchor) - 1.0) * 100.0)


def bd_quality(anchor: RdCurve, test: RdCurve, mode: str = "cubic") -> float:
    """Average quality difference of test over anchor at equal rate."""
    log_anchor = np.log10(anchor.rates)
    log_test = np.log10(test.rates)
    lo = max(log_anchor.min(), log_test.min())
    hi = min(log_anchor.max(), log_test.max())
    if hi <= lo:
        raise OverlapError("rate ranges do not overlap")
    mean_anchor = _mean_curve_value(log_anchor, anchor.qualities, lo, hi, mode)
    mean_test = _mean_curve_value(log_test, test.qualities, lo, hi, mode)
    return float(mean_test - mean_anchor)
