"""Bjontegaard delta statistics between two rate-quality curves.

log10(rate) is fitted as a least-squares cubic polynomial in quality for
each curve (normal equations on quality mapped onto [-1, 1]), both fits
are integrated in closed form over the shared quality span, and the mean
log-rate gap becomes a percentage:

    bd_rate = (10^((I_test - I_anchor) / span) - 1) * 100

bd_quality is the dual: quality fitted as a cubic in log10(rate),
integrated over the shared log-rate span, returned as a mean difference.
This is Bjontegaard's cubic measure (VCEG-M33, 2001).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import parse_reals, read_text
from .errors import CurveError, FormatError, OverlapError

__all__ = ["RdCurve", "bd_rate", "bd_quality", "quality_overlap", "read_rd_csv"]


@dataclass(frozen=True)
class RdCurve:
    """Operating points (rate in bits per pixel, quality), sorted by rate.

    At least 4 points; rates positive and strictly increasing, quality
    strictly increasing with rate (higher-better metrics only); the
    quality span must be a finite float64.
    """

    rates: np.ndarray
    qualities: np.ndarray
    metric_tag: str = "psnr"  # unread: pipebench rd-eval passes it; ROADMAP item 1 drops it

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


def read_rd_csv(path: str | os.PathLike) -> RdCurve:
    """Read a 'rate_bpp,quality' CSV into a validated curve: two finite
    reals per row, spaces around a cell allowed."""
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
    return RdCurve(rates=rates, qualities=qualities)


def _overlap(a: np.ndarray, b: np.ndarray, what: str) -> tuple[float, float]:
    """The span both arrays cover; raises OverlapError, naming both
    ranges, if it is empty."""
    lo, hi = max(a.min(), b.min()), min(a.max(), b.max())
    if hi <= lo:
        raise OverlapError(f"{what} ranges do not overlap "
                           f"([{a.min()}, {a.max()}] vs [{b.min()}, {b.max()}])")
    return lo, hi


def quality_overlap(anchor: RdCurve, test: RdCurve) -> tuple[float, float]:
    """Shared quality span used by bd_rate; raises OverlapError if empty."""
    return _overlap(anchor.qualities, test.qualities, "quality")


def _cubic_mean(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Mean of the least-squares cubic y(x) over [lo, hi] inside x's range,
    in closed form. The fit runs on x mapped onto [-1, 1], which leaves the
    mean unchanged and keeps the arithmetic finite; halving each end first
    keeps the sums finite too. x and y must increase strictly, also after
    the map, and [lo, hi] must map onto more than one point."""
    center = x.min() / 2 + x.max() / 2
    half_range = x.max() / 2 - x.min() / 2
    x = (x - center) / half_range
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise CurveError("curve points coincide at float64 resolution of their span")
    s = (np.array([lo, hi]) - center) / half_range
    if s[1] <= s[0]:
        raise CurveError(f"shared span [{float(lo)!r}, {float(hi)!r}] is one point at "
                         f"float64 resolution of a curve's span")
    vander = np.vander(x, 4, increasing=True)
    c = np.linalg.solve(vander.T @ vander, vander.T @ y)
    # the antiderivative from 0 to s, by Horner
    at_lo, at_hi = (((c[3] / 4 * s + c[2] / 3) * s + c[1] / 2) * s + c[0]) * s
    return float(at_hi - at_lo) / (s[1] - s[0])


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average rate difference of test over anchor at equal quality (%).

    Negative means the test curve spends fewer bits for the same
    quality. A rate ratio beyond float64 raises CurveError.
    """
    lo, hi = quality_overlap(anchor, test)
    mean_anchor = _cubic_mean(anchor.qualities, np.log10(anchor.rates), lo, hi)
    mean_test = _cubic_mean(test.qualities, np.log10(test.rates), lo, hi)
    with np.errstate(over="ignore"):
        ratio = 10.0 ** (mean_test - mean_anchor)
    if not np.isfinite(ratio):
        raise CurveError(f"rate ratio 10^{float(mean_test - mean_anchor)!r} is not finite")
    return float((ratio - 1.0) * 100.0)


def bd_quality(anchor: RdCurve, test: RdCurve) -> float:
    """Average quality difference of test over anchor at equal rate. A
    difference beyond float64 raises CurveError."""
    log_anchor = np.log10(anchor.rates)
    log_test = np.log10(test.rates)
    lo, hi = _overlap(log_anchor, log_test, "log10 rate")
    # fit the qualities divided by 2^e, the power of two above every
    # |quality|, and scale the difference back, so no fit can overflow
    _, e = np.frexp(max(np.abs(anchor.qualities).max(), np.abs(test.qualities).max()))
    mean_anchor = _cubic_mean(log_anchor, np.ldexp(anchor.qualities, -e), lo, hi)
    mean_test = _cubic_mean(log_test, np.ldexp(test.qualities, -e), lo, hi)
    with np.errstate(over="ignore"):
        diff = np.ldexp(mean_test - mean_anchor, e)
    if not np.isfinite(diff):
        raise CurveError(f"quality difference 2^{int(e)} * "
                         f"{float(mean_test - mean_anchor)!r} exceeds float64")
    return float(diff)
