"""Bjontegaard delta statistics between two rate-quality curves.

The default mode fits log10(rate) as a cubic polynomial in quality for
each curve (normal equations on centered and scaled quality values),
integrates both fits in closed form over the shared quality span, and
converts the mean log-rate gap into a percentage:

    bd_rate = (10^((I_test - I_anchor) / span) - 1) * 100

bd_quality is the dual: quality fitted as a cubic in log10(rate),
integrated over the shared log-rate span, returned as a mean difference.
This is Bjontegaard's cubic measure (VCEG-M33, 2001). "pchip" is the
piecewise measure (VCEG-AI11, 2008) in closed form: SciPy's PCHIP
(Fritsch & Carlson, 1980), with interior slopes the weighted harmonic
mean of the adjacent secants, end slopes the one-sided three-point
estimate clamped at 0, and each Hermite piece integrated exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import parse_reals, read_text
from .errors import CurveError, FormatError, OverlapError

__all__ = ["RdCurve", "bd_rate", "bd_quality", "quality_overlap",
           "read_rd_csv", "read_rd_rows"]

METRIC_TAGS = ("psnr", "ssim", "msssim", "lpips_db")


@dataclass(frozen=True)
class RdCurve:
    """Operating points (rate in bits per pixel, quality), sorted by rate.

    At least 4 points; rates positive and strictly increasing, quality
    strictly increasing with rate (higher-better metrics only, so raw
    LPIPS must be converted to dB first); the quality span must be a
    finite float64.
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
        with np.errstate(over="ignore"):
            span = qualities[-1] - qualities[0]
        if not np.isfinite(span):
            raise CurveError(f"quality span from {float(qualities[0])!r} to "
                             f"{float(qualities[-1])!r} exceeds float64")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "qualities", qualities)


def read_rd_rows(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Raw (rates, qualities) columns of a 'rate_bpp,quality' CSV.

    Two finite reals per row, spaces around a cell allowed. No curve
    validation; callers that ingest raw lower-is-better columns convert
    them before building an RdCurve.
    """
    lines = [ln.strip() for ln in read_text(path).split("\n") if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "rate_bpp,quality":
        raise FormatError(f"{path}: expected header 'rate_bpp,quality'")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise FormatError(f"{path}: bad row {ln!r}")
        try:
            rows.append(parse_reals(cells))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc} in row {ln!r}") from exc
    rates, qualities = np.array(rows, dtype=np.float64).reshape(-1, 2).T
    return rates, qualities


def read_rd_csv(path: str | os.PathLike, metric_tag: str = "psnr") -> RdCurve:
    """Read a 'rate_bpp,quality' CSV into a validated curve."""
    rates, qualities = read_rd_rows(path)
    return RdCurve(rates=rates, qualities=qualities, metric_tag=metric_tag)


def _cubic_mean(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Mean of the least-squares cubic y(x) over [lo, hi], in closed form."""
    vander = np.vander(x, 4, increasing=True)
    coeffs = np.linalg.solve(vander.T @ vander, vander.T @ y)
    at_lo, at_hi = _antiderivative(coeffs, np.array([lo, hi]))
    return float(at_hi - at_lo) / (hi - lo)


def _pchip_mean(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Mean of SciPy's PchipInterpolator(x, y) over [lo, hi]. x and y must
    be strictly increasing, as RdCurve makes them in both callers, so every
    secant is positive and SciPy's sign-change rules never fire."""
    h, dy = np.diff(x), np.diff(y)
    m = dy / h
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    ends = np.maximum(((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.concatenate((ends[:1], (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]), ends[1:]))
    hd0, hd1 = h * d[:-1], h * d[1:]
    coeffs = np.array([y[:-1], hd0, 3 * dy - 2 * hd0 - hd1, hd0 + hd1 - 2 * dy])
    at_lo, at_hi = _antiderivative(coeffs, np.clip((np.array([[lo], [hi]]) - x[:-1]) / h, 0, 1))
    return float(np.sum(h * (at_hi - at_lo))) / (hi - lo)


def _antiderivative(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Integral from 0 to s of c[0] + c[1] t + c[2] t^2 + c[3] t^3 (Horner)."""
    return (((c[3] / 4 * s + c[2] / 3) * s + c[1] / 2) * s + c[0]) * s


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
    """Mean of the fitted y(x) over [lo, hi] inside x's range. Both fits run
    on x mapped onto [-1, 1], which leaves the mean unchanged and keeps the
    arithmetic finite; halving each end first keeps the sums finite too.
    x and y must increase strictly, also after the map."""
    center = x.min() / 2 + x.max() / 2
    half_range = x.max() / 2 - x.min() / 2
    x = (x - center) / half_range
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise CurveError("curve points coincide at float64 resolution of their span")
    lo, hi = (lo - center) / half_range, (hi - center) / half_range
    if mode == "cubic":
        return _cubic_mean(x, y, lo, hi)
    if mode == "pchip":
        return _pchip_mean(x, y, lo, hi)
    raise ValueError(f"unknown interpolation mode {mode!r}")


def bd_rate(anchor: RdCurve, test: RdCurve, mode: str = "cubic") -> float:
    """Average rate difference of test over anchor at equal quality (%).

    Negative means the test curve spends fewer bits for the same
    quality. A rate ratio beyond float64 raises CurveError.
    """
    lo, hi = quality_overlap(anchor, test)
    mean_anchor = _mean_curve_value(anchor.qualities, np.log10(anchor.rates),
                                    lo, hi, mode)
    mean_test = _mean_curve_value(test.qualities, np.log10(test.rates),
                                  lo, hi, mode)
    with np.errstate(over="ignore"):
        ratio = 10.0 ** (mean_test - mean_anchor)
    if not np.isfinite(ratio):
        raise CurveError(f"rate ratio 10^{float(mean_test - mean_anchor)!r} is not finite")
    return float((ratio - 1.0) * 100.0)


def bd_quality(anchor: RdCurve, test: RdCurve, mode: str = "cubic") -> float:
    """Average quality difference of test over anchor at equal rate. A
    difference beyond float64 raises CurveError."""
    log_anchor = np.log10(anchor.rates)
    log_test = np.log10(test.rates)
    lo = max(log_anchor.min(), log_test.min())
    hi = min(log_anchor.max(), log_test.max())
    if hi <= lo:
        raise OverlapError("rate ranges do not overlap")
    # fit the qualities divided by 2^e, the power of two above every
    # |quality|, and scale the difference back, so no fit can overflow
    _, e = np.frexp(max(np.abs(anchor.qualities).max(), np.abs(test.qualities).max()))
    mean_anchor = _mean_curve_value(log_anchor, np.ldexp(anchor.qualities, -e), lo, hi, mode)
    mean_test = _mean_curve_value(log_test, np.ldexp(test.qualities, -e), lo, hi, mode)
    with np.errstate(over="ignore"):
        diff = np.ldexp(mean_test - mean_anchor, e)
    if not np.isfinite(diff):
        raise CurveError(f"quality difference 2^{int(e)} * "
                         f"{float(mean_test - mean_anchor)!r} exceeds float64")
    return float(diff)
