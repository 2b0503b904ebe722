"""Full-reference quality metrics: PSNR, SSIM, MS-SSIM, LPIPS-to-dB.

SSIM uses the classic 11x11 Gaussian window (sigma 1.5, K1 0.01,
K2 0.03, L 255) with valid-region filtering and no padding. At each
scale the four planes x, y, x*x + y*y and x*y of a pair are written into
one buffer (at scale 0 straight from the 8-bit pixels) and filtered
once; their window means are all that the luminance and
contrast-structure maps need. Each axis of the separable filter is a
run of small matrix products: a tile of at most 16 output rows (or
columns) is one product of the 26 input rows (columns) it reads with a
banded matrix whose 16 columns each hold the window, one row lower per
column. MS-SSIM is the five-scale product with exponents
(0.0448, 0.2856, 0.3001, 0.2363, 0.1333): the contrast-structure mean
enters at every scale, the luminance mean only at the coarsest. Each
scale's contrast-structure mean is clamped at 0 before its fractional
power, as TensorFlow's ``ssim_multiscale`` does, so anti-correlated
images score 0 rather than a negative number. Three-channel images score
each channel and average. SSIM needs at least 11 px per side (one
window), MS-SSIM at least 176 px per side (one window at the fifth
scale).

LPIPS values are never computed here; they arrive from files and only
the dB conversion -10*log10(v) is provided.
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
    "lpips_to_db",
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
    lpips_db: float | None = None


def _check_pair(a: RasterImage, b: RasterImage) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height}x{a.channels} vs "
            f"{b.width}x{b.height}x{b.channels}")


def psnr(a: RasterImage, b: RasterImage) -> float:
    """10 * log10(255^2 / MSE) over all samples; +inf for identical inputs."""
    _check_pair(a, b)
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(_L * _L / mse)


def _filter_valid(stack: np.ndarray) -> np.ndarray:
    """Valid-region separable Gaussian correlation of each plane of an
    (n, h, w) stack, giving (n, h - 10, w - 10).

    Each axis runs in tiles of at most _TILE outputs: a tile of r outputs
    is one matrix product of the r + 10 input rows (columns) it reads
    with the top-left (r + 10, r) corner of _BAND. BLAS multiplies each
    plane of the stack on its own, so a plane's result does not depend on
    the other planes or on its position in the stack.
    """
    n, h, w = stack.shape
    out_h, out_w = h - _WINDOW_SIZE + 1, w - _WINDOW_SIZE + 1
    # Both passes share one allocation. As separate buffers they pushed a
    # call's footprint past glibc's heap trim threshold, so every call gave
    # its memory back to the kernel and faulted ~2,000 pages back in, which
    # on a 360x248 frame cost more time than the filtering.
    work = np.empty(n * out_h * (w + out_w))
    rows = work[:n * out_h * w].reshape(n, out_h, w)
    out = work[n * out_h * w:].reshape(n, out_h, out_w)
    for i in range(0, out_h, _TILE):
        r = min(_TILE, out_h - i)
        np.matmul(_BAND[:r + _WINDOW_SIZE - 1, :r].T,
                  stack[:, i:i + r + _WINDOW_SIZE - 1], out=rows[:, i:i + r])
    for j in range(0, out_w, _TILE):
        r = min(_TILE, out_w - j)
        np.matmul(rows[:, :, j:j + r + _WINDOW_SIZE - 1],
                  _BAND[:r + _WINDOW_SIZE - 1, :r], out=out[:, :, j:j + r])
    return out


def _ssim_maps(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(luminance map, contrast-structure map) of one plane pair.

    Filters x, y, x*x + y*y and x*y in one pass, then forms
    lum = (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1) and
    cs = (2 (E[xy] - mu_x mu_y) + C2) / (E[x^2 + y^2] - (mu_x^2 + mu_y^2) + C2)
    in place. Every term is symmetric in x and y, so swapping the pair
    gives the same bits.
    """
    planes = np.empty((4,) + x.shape)
    planes[0], planes[1] = x, y  # uint8 pixels or float64 pooled planes
    x, y = planes[0], planes[1]
    np.multiply(x, x, out=planes[2])
    np.multiply(y, y, out=planes[3])
    planes[2] += planes[3]
    np.multiply(x, y, out=planes[3])
    mu_x, mu_y, cs, exy = _filter_valid(planes)
    lum = mu_x * mu_y
    exy -= lum
    exy *= 2.0
    exy += _C2
    np.square(mu_x, out=mu_x)
    np.square(mu_y, out=mu_y)
    mu_x += mu_y  # mu_x^2 + mu_y^2
    cs -= mu_x
    cs += _C2
    np.divide(exy, cs, out=cs)
    lum *= 2.0
    lum += _C1
    mu_x += _C1
    lum /= mu_x
    return lum, cs


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


def _ssim_mean(x: np.ndarray, y: np.ndarray) -> float:
    lum, cs = _ssim_maps(x, y)
    lum *= cs
    return lum.mean()


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Single-scale SSIM, averaged over channels for color images."""
    _check_pair(a, b)
    if min(a.width, a.height) < _WINDOW_SIZE:
        raise ValueError(
            f"image {a.width}x{a.height} smaller than the {_WINDOW_SIZE}px window")
    return float(np.mean([_ssim_mean(x, y) for x, y in zip(_planes(a), _planes(b))]))


def _ms_ssim_plane(x: np.ndarray, y: np.ndarray) -> float:
    value = 1.0
    for scale, weight in enumerate(_MSSSIM_WEIGHTS):
        if scale > 0:
            x, y = _down2(x), _down2(y)
        lum, cs = _ssim_maps(x, y)
        value *= max(cs.mean(), 0.0) ** weight
    return value * lum.mean() ** weight


def ms_ssim(a: RasterImage, b: RasterImage) -> float:
    """Five-scale MS-SSIM in [0, 1], averaged over channels for color images.

    A negative contrast-structure mean at any scale is clamped to 0, so
    the score of that plane is 0.
    """
    _check_pair(a, b)
    if min(a.width, a.height) < _MSSSIM_MIN_DIM:
        raise ValueError(
            f"image {a.width}x{a.height} too small for 5 scales "
            f"(needs at least {_MSSSIM_MIN_DIM}px per side)")
    return float(np.mean([_ms_ssim_plane(x, y)
                          for x, y in zip(_planes(a), _planes(b))]))


def lpips_to_db(v: float) -> float:
    """-10 * log10(v); smaller perceptual distances score more dB.

    v must be finite and positive; anything else raises ValueError.
    """
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"LPIPS value must be finite and positive, got {v}")
    return -10.0 * math.log10(v)


def metric_report(a: RasterImage, b: RasterImage,
                  lpips: float | None = None) -> MetricReport:
    lpips_db = None if lpips is None else lpips_to_db(lpips)  # reject before scoring
    return MetricReport(psnr=psnr(a, b), ms_ssim=ms_ssim(a, b), ssim=ssim(a, b),
                        lpips_db=lpips_db)
