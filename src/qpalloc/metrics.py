"""Full-reference quality metrics: PSNR, SSIM, MS-SSIM, LPIPS-to-dB.

SSIM uses the classic 11x11 Gaussian window (sigma 1.5, K1 0.01,
K2 0.03, L 255) with valid-region filtering and no padding. At each
scale the planes x, y, x*x, y*y, x*y of a pair are filtered as one stack
in one separable pass, which yields both the luminance and the
contrast-structure map. MS-SSIM is the five-scale product with exponents
(0.0448, 0.2856, 0.3001, 0.2363, 0.1333): the contrast-structure mean
enters at every scale, the luminance mean only at the coarsest. Each
scale's contrast-structure mean is clamped at 0 before its fractional
power, as TensorFlow's ``ssim_multiscale`` does, so anti-correlated
images score 0 rather than a negative number. Three-channel images score
each channel and average.

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
    """Valid-region separable Gaussian correlation of each plane of a stack,
    one windowed dot product per axis; the column pass runs transposed so
    that BLAS can take its windows (overlapping unit-stride ones it cannot)."""
    view = np.lib.stride_tricks.sliding_window_view
    stack = view(stack, _WINDOW_SIZE, axis=1) @ _WINDOW
    return (view(stack.swapaxes(1, 2), _WINDOW_SIZE, axis=1) @ _WINDOW).swapaxes(1, 2)


def _ssim_maps(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(luminance map, contrast-structure map) from one five-plane pass."""
    mu_x, mu_y, xx, yy, xy = _filter_valid(np.stack([x, y, x * x, y * y, x * y]))
    mu_xy, mu_xx, mu_yy = mu_x * mu_y, mu_x * mu_x, mu_y * mu_y
    lum = (2.0 * mu_xy + _C1) / (mu_xx + mu_yy + _C1)
    cs = (2.0 * (xy - mu_xy) + _C2) / ((xx - mu_xx) + (yy - mu_yy) + _C2)
    return lum, cs


def _down2(x: np.ndarray) -> np.ndarray:
    h, w = x.shape
    x = x[:h - h % 2, :w - w % 2]
    return (x[0::2, 0::2] + x[0::2, 1::2] + x[1::2, 0::2] + x[1::2, 1::2]) / 4.0


def _planes(img: RasterImage):
    return (img.pixels[:, :, c].astype(np.float64) for c in range(img.channels))


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Single-scale SSIM, averaged over channels for color images."""
    _check_pair(a, b)
    if min(a.width, a.height) < _WINDOW_SIZE:
        raise ValueError(
            f"image {a.width}x{a.height} smaller than the {_WINDOW_SIZE}px window")
    return float(np.mean([np.mean(np.multiply(*_ssim_maps(x, y)))
                          for x, y in zip(_planes(a), _planes(b))]))


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
    """-10 * log10(v); smaller perceptual distances score more dB."""
    if v <= 0:
        raise ValueError(f"LPIPS value must be positive, got {v}")
    return -10.0 * math.log10(v)


def metric_report(a: RasterImage, b: RasterImage,
                  lpips: float | None = None) -> MetricReport:
    return MetricReport(
        psnr=psnr(a, b), ms_ssim=ms_ssim(a, b), ssim=ssim(a, b),
        lpips_db=None if lpips is None else lpips_to_db(lpips))
