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
window, one row lower per column; the full column tiles of a strip run
as one batched product over a strided view of its rows, with the bits of
one product per tile. The contrast-structure map is formed
and summed per strip; the luminance map only where a score uses it.
MS-SSIM is the five-scale product with exponents
(0.0448, 0.2856, 0.3001, 0.2363, 0.1333): the contrast-structure mean
enters at every scale, the luminance mean only at the coarsest. Each
scale's contrast-structure mean is clamped at 0 before its fractional
power, as TensorFlow's ``ssim_multiscale`` does, so anti-correlated
images score 0 rather than a negative number. SSIM is the mean of
lum * cs over the same full-resolution maps, so metric_report filters
scale 0 once for both. Three-channel images score each channel and
average. Every score takes its plane pairs from one gate, _pairs: the
two images must share a shape, and then every side must reach the
score's least size, 11 px for SSIM (one window) and 176 px for MS-SSIM
and metric_report (one window at the fifth scale); anything else is a
ValueError. PSNR only needs the shared shape.
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
_PSNR_CHUNK = 1 << 16  # samples squared at a time by psnr: 256 KB of int32


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


def _pairs(a: RasterImage, b: RasterImage, least: int, score: str):
    """The channel plane pairs of a and b, once they share a shape and
    every side is at least least px; anything else is a ValueError."""
    _check_pair(a, b)
    if min(a.width, a.height) < least:
        raise ValueError(f"image {a.width}x{a.height} too small for {score} "
                         f"(needs at least {least}px per side)")
    return zip(np.moveaxis(a.pixels, 2, 0), np.moveaxis(b.pixels, 2, 0))


def psnr(a: RasterImage, b: RasterImage) -> float:
    """10 * log10(255^2 / MSE) over all samples; +inf for identical inputs.

    The differences are squared in int32 (at most 255^2), _PSNR_CHUNK
    samples at a time, and each chunk is summed in int64, so the squared
    error sum is exact: every partial sum of the float64 mean it replaces is
    an integer below 2^53, and the MSE has the same bits."""
    _check_pair(a, b)
    x, y = a.pixels.reshape(-1), b.pixels.reshape(-1)
    sse = 0
    for i in range(0, x.size, _PSNR_CHUNK):
        diff = np.subtract(x[i:i + _PSNR_CHUNK], y[i:i + _PSNR_CHUNK], dtype=np.int32)
        sse += int(np.multiply(diff, diff, out=diff).sum(dtype=np.int64))
    if sse == 0:
        return math.inf
    return 10.0 * math.log10(_L * _L / (sse / a.pixels.size))


def _filter_columns(rows: np.ndarray, out: np.ndarray) -> None:
    """Write into out (n, w - 10) the horizontal window means of rows (n, w).

    Output tile k, columns _TILE k to _TILE (k + 1) - 1, is the product of
    the _TILE + 10 columns of rows it reads with _BAND. One batched product
    over a strided view of rows makes every full tile (numpy runs one BLAS
    product per tile, with no Python loop), and a last, narrower tile takes
    the top-left corner of _BAND, so each tile has the bits of its own
    product.
    """
    n, out_w = out.shape
    tiles, full = out_w // _TILE, out_w - out_w % _TILE
    step, one = rows.strides
    # windows[k] is the (n, _TILE + 10) block of rows that tile k reads
    windows = np.lib.stride_tricks.as_strided(
        rows, (tiles, n, _BAND.shape[0]), (_TILE * one, step, one), writeable=False)
    np.matmul(windows, _BAND, out=out[:, :full].reshape(n, tiles, _TILE).transpose(1, 0, 2))
    if full < out_w:
        np.matmul(rows[:, full:], _BAND[:rows.shape[1] - full, :out_w - full],
                  out=out[:, full:])


def _ssim_means(x: np.ndarray, y: np.ndarray, lum: bool = False) -> tuple[float, ...]:
    """(mean cs,) of one plane pair or, with lum, (mean cs, mean lum * cs,
    mean lum): the window means of the valid-region SSIM maps.

    The maps are made and summed one strip of at most _STRIP output rows
    at a time, in one workspace of about 424 * w floats. Each strip fills
    its 42 input rows of x, y, x*x + y*y and x*y, filters them vertically
    per _TILE output rows (one product per plane with the top-left
    (r + 10, r) corner of _BAND, transposed) and horizontally with
    _filter_columns (the strip's four planes stacked into one matrix),
    then forms
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
        _filter_columns(rows.reshape(4 * s, w), maps.reshape(4 * s, out_w))
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


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Single-scale SSIM, averaged over channels for color images."""
    return float(np.mean([_ssim_means(x, y, lum=True)[1]
                          for x, y in _pairs(a, b, _WINDOW_SIZE, "one SSIM window")]))


def _ms_ssim_plane(x: np.ndarray, y: np.ndarray, cs0: float) -> float:
    """MS-SSIM of one plane pair whose scale-0 contrast-structure mean is cs0."""
    value = max(cs0, 0.0) ** _MSSSIM_WEIGHTS[0]
    coarsest = len(_MSSSIM_WEIGHTS) - 1
    for scale in range(1, coarsest + 1):
        x, y = _down2(x), _down2(y)
        means = _ssim_means(x, y, lum=scale == coarsest)
        value *= max(means[0], 0.0) ** _MSSSIM_WEIGHTS[scale]
    return value * means[2] ** _MSSSIM_WEIGHTS[coarsest]


def ms_ssim(a: RasterImage, b: RasterImage) -> float:
    """Five-scale MS-SSIM in [0, 1], averaged over channels for color images.

    A negative contrast-structure mean at any scale is clamped to 0, so
    the score of that plane is 0.
    """
    return float(np.mean([_ms_ssim_plane(x, y, _ssim_means(x, y)[0])
                          for x, y in _pairs(a, b, _MSSSIM_MIN_DIM, "5 MS-SSIM scales")]))


def metric_report(a: RasterImage, b: RasterImage) -> MetricReport:
    """PSNR, SSIM and MS-SSIM of a pair, each equal to its standalone
    function; SSIM and scale 0 of MS-SSIM share one filter pass per plane."""
    ssims, ms_ssims = [], []
    for x, y in _pairs(a, b, _MSSSIM_MIN_DIM, "5 MS-SSIM scales"):
        cs0, plane_ssim, _ = _ssim_means(x, y, lum=True)
        ssims.append(plane_ssim)
        ms_ssims.append(_ms_ssim_plane(x, y, cs0))
    return MetricReport(psnr=psnr(a, b), ssim=float(np.mean(ssims)),
                        ms_ssim=float(np.mean(ms_ssims)))
