"""Full-reference quality metrics: PSNR, SSIM and MS-SSIM.

SSIM uses the classic 11x11 Gaussian window (sigma 1.5, K1 0.01,
K2 0.03, L 255) with valid-region filtering and no padding. Each scale
of a plane pair is scored in strips of 32 valid output rows, in one
workspace of about 424 floats per image column that is allocated once
per scale, so no full-size map is ever built. A strip writes the four
planes x, y, x*x + y*y and x*y of its 42 input rows (at scale 0 straight
from the 8-bit pixels) and filters them once; their window means are
all that the luminance and contrast-structure maps need. Each axis of
the separable filter is a run of small matrix products: a tile of at
most 16 output rows (or columns) is one product of the 26 input rows
(columns) it reads with a banded matrix whose 16 columns each hold the
window, one row lower per column. The contrast-structure map is formed
and summed per strip; the luminance map only where a score uses it.
MS-SSIM is the five-scale product with exponents
(0.0448, 0.2856, 0.3001, 0.2363, 0.1333): the contrast-structure mean
enters at every scale, the luminance mean only at the coarsest. Each
scale's contrast-structure mean is clamped at 0 before its fractional
power, as TensorFlow's ``ssim_multiscale`` does, so anti-correlated
images score 0 rather than a negative number. SSIM is the mean of
lum * cs over the same full-resolution maps, so metric_report filters
scale 0 once for both. Three-channel images score each channel and
average. SSIM needs at least 11 px per side (one window), MS-SSIM at
least 176 px per side (one window at the fifth scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imageio import RasterImage

__all__ = [
    "MetricReport",
    "psnr",
    "ssim",
    "ms_ssim",
    "metric_report",
]

_WINDOW_SIZE = 11
_SIGMA = 1.5
_K1, _K2, _L = 0.01, 0.03, 255.0
_C1 = (_K1 * _L) ** 2
_C2 = (_K2 * _L) ** 2
_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_MSSSIM_MIN_DIM = _WINDOW_SIZE * 2 ** (len(_MSSSIM_WEIGHTS) - 1)  # 176


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(_WINDOW_SIZE) - (_WINDOW_SIZE - 1) / 2
    g = np.exp(-(offsets ** 2) / (2.0 * _SIGMA ** 2))
    return g / g.sum()


_WINDOW = _gaussian_window()
_TILE = 16  # output rows (columns) per banded product of the filter
_STRIP = 2 * _TILE  # valid output rows scored at a time by _ssim_means


def _banded_window() -> np.ndarray:
    band = np.zeros((_TILE + _WINDOW_SIZE - 1, _TILE))
    for j in range(_TILE):
        band[j:j + _WINDOW_SIZE, j] = _WINDOW
    return band


# _BAND[j + t, j] = _WINDOW[t]: column j of (strip @ _BAND) is output j of a tile
_BAND = _banded_window()


@dataclass(frozen=True)
class MetricReport:
    psnr: float
    ssim: float
    ms_ssim: float


def _check_pair(a: RasterImage, b: RasterImage) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height}x{a.channels} vs "
            f"{b.width}x{b.height}x{b.channels}")


def psnr(a: RasterImage, b: RasterImage) -> float:
    """10 * log10(255^2 / MSE) over all samples; +inf for identical inputs.

    The squared errors are summed exactly in int64, _STRIP rows at a time;
    every partial sum of the float64 mean they replace is an integer below
    2^53, so the MSE has the same bits."""
    _check_pair(a, b)
    sse = 0
    for i in range(0, a.height, _STRIP):
        diff = np.subtract(a.pixels[i:i + _STRIP], b.pixels[i:i + _STRIP], dtype=np.int64)
        sse += int(np.vdot(diff, diff))
    if sse == 0:
        return math.inf
    return 10.0 * math.log10(_L * _L / (sse / a.pixels.size))


def _ssim_means(x: np.ndarray, y: np.ndarray, lum: bool = False) -> tuple[float, ...]:
    """(mean cs,) of one plane pair or, with lum, (mean cs, mean lum * cs,
    mean lum): the window means of the valid-region SSIM maps.

    The maps are made and summed one strip of at most _STRIP output rows
    at a time, in one workspace of about 424 * w floats. Each strip fills
    its 42 input rows of x, y, x*x + y*y and x*y, filters them vertically
    per _TILE output rows (one product per plane with the top-left
    (r + 10, r) corner of _BAND, transposed) and horizontally per _TILE
    output columns (one product of the strip's four planes, stacked into
    one matrix, with the corner of _BAND), then forms
    cs = (2 (E[xy] - mu_x mu_y) + C2) / (E[x^2 + y^2] - (mu_x^2 + mu_y^2) + C2)
    and, if asked, lum = (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1)
    in place. Every term is symmetric in x and y, and the products give a
    row the same bits wherever it sits in them, so swapping the pair
    gives the same bits.
    """
    h, w = x.shape
    pad = _WINDOW_SIZE - 1
    out_h, out_w = h - pad, w - pad
    work = np.empty(4 * ((_STRIP + pad) * w + _STRIP * w + _STRIP * out_w))
    cs_sum = ssim_sum = lum_sum = 0.0
    for i in range(0, out_h, _STRIP):
        s = min(_STRIP, out_h - i)
        end = 4 * (s + pad) * w
        planes = work[:end].reshape(4, s + pad, w)
        rows = work[end:end + 4 * s * w].reshape(4, s, w)
        end += 4 * s * w
        maps = work[end:end + 4 * s * out_w].reshape(4, s, out_w)
        px, py, sq, xy = planes
        px[...] = x[i:i + s + pad]  # uint8 pixels or float64 pooled planes
        py[...] = y[i:i + s + pad]
        np.multiply(px, px, out=sq)
        np.multiply(py, py, out=xy)
        sq += xy
        np.multiply(px, py, out=xy)
        for t in range(0, s, _TILE):
            r = min(_TILE, s - t)
            np.matmul(_BAND[:r + pad, :r].T, planes[:, t:t + r + pad],
                      out=rows[:, t:t + r])
        stacked_rows, stacked_maps = rows.reshape(4 * s, w), maps.reshape(4 * s, out_w)
        for j in range(0, out_w, _TILE):
            r = min(_TILE, out_w - j)
            np.matmul(stacked_rows[:, j:j + r + pad], _BAND[:r + pad, :r],
                      out=stacked_maps[:, j:j + r])
        mu_x, mu_y, cs, exy = maps
        lum_map = rows.reshape(-1)[:s * out_w].reshape(s, out_w)  # rows are spent
        np.multiply(mu_x, mu_y, out=lum_map)
        exy -= lum_map
        exy *= 2.0
        exy += _C2
        np.square(mu_x, out=mu_x)
        np.square(mu_y, out=mu_y)
        mu_x += mu_y  # mu_x^2 + mu_y^2
        cs -= mu_x
        cs += _C2
        np.divide(exy, cs, out=cs)
        cs_sum += cs.sum()
        if lum:
            lum_map *= 2.0
            lum_map += _C1
            mu_x += _C1
            lum_map /= mu_x
            lum_sum += lum_map.sum()
            lum_map *= cs
            ssim_sum += lum_map.sum()
    n = out_h * out_w
    return (cs_sum / n, ssim_sum / n, lum_sum / n) if lum else (cs_sum / n,)


def _down2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pool in float64, dropping an odd last row or column."""
    h, w = x.shape
    x = x[:h - h % 2, :w - w % 2]
    out = np.add(x[0::2, 0::2], x[0::2, 1::2], dtype=np.float64)
    out += x[1::2, 0::2]
    out += x[1::2, 1::2]
    out /= 4.0
    return out


def _planes(img: RasterImage):
    return (img.pixels[:, :, c] for c in range(img.channels))


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Single-scale SSIM, averaged over channels for color images."""
    _check_pair(a, b)
    if min(a.width, a.height) < _WINDOW_SIZE:
        raise ValueError(
            f"image {a.width}x{a.height} smaller than the {_WINDOW_SIZE}px window")
    return float(np.mean([_ssim_means(x, y, lum=True)[1]
                          for x, y in zip(_planes(a), _planes(b))]))


def _ms_ssim_plane(x: np.ndarray, y: np.ndarray, cs0: float) -> float:
    """MS-SSIM of one plane pair whose scale-0 contrast-structure mean is cs0."""
    value = max(cs0, 0.0) ** _MSSSIM_WEIGHTS[0]
    coarsest = len(_MSSSIM_WEIGHTS) - 1
    for scale in range(1, coarsest + 1):
        x, y = _down2(x), _down2(y)
        means = _ssim_means(x, y, lum=scale == coarsest)
        value *= max(means[0], 0.0) ** _MSSSIM_WEIGHTS[scale]
    return value * means[2] ** _MSSSIM_WEIGHTS[coarsest]


def _check_ms_ssim_pair(a: RasterImage, b: RasterImage) -> None:
    _check_pair(a, b)
    if min(a.width, a.height) < _MSSSIM_MIN_DIM:
        raise ValueError(
            f"image {a.width}x{a.height} too small for 5 scales "
            f"(needs at least {_MSSSIM_MIN_DIM}px per side)")


def ms_ssim(a: RasterImage, b: RasterImage) -> float:
    """Five-scale MS-SSIM in [0, 1], averaged over channels for color images.

    A negative contrast-structure mean at any scale is clamped to 0, so
    the score of that plane is 0.
    """
    _check_ms_ssim_pair(a, b)
    return float(np.mean([_ms_ssim_plane(x, y, _ssim_means(x, y)[0])
                          for x, y in zip(_planes(a), _planes(b))]))


def metric_report(a: RasterImage, b: RasterImage) -> MetricReport:
    """PSNR, SSIM and MS-SSIM of a pair, each equal to its standalone
    function; SSIM and scale 0 of MS-SSIM share one filter pass per plane."""
    _check_ms_ssim_pair(a, b)
    ssims, ms_ssims = [], []
    for x, y in zip(_planes(a), _planes(b)):
        cs0, plane_ssim, _ = _ssim_means(x, y, lum=True)
        ssims.append(plane_ssim)
        ms_ssims.append(_ms_ssim_plane(x, y, cs0))
    return MetricReport(psnr=psnr(a, b), ssim=float(np.mean(ssims)),
                        ms_ssim=float(np.mean(ms_ssims)))
