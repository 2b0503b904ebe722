"""Independent reference implementations used as test oracles.

These deliberately take different numeric routes than the production
code (full 2-D kernels through scipy.signal.correlate2d, plain Python
loops, scalar-weighted accumulation) so that agreement actually checks
something.
"""

import numpy as np
from scipy.signal import correlate2d

from qpalloc.imageio import RasterImage


def _ref_kernel():
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5 ** 2))
    g /= g.sum()
    return np.outer(g, g)


def _ref_maps(x, y):
    k = _ref_kernel()
    mx = correlate2d(x, k, mode="valid")
    my = correlate2d(y, k, mode="valid")
    sxx = correlate2d(x * x, k, mode="valid") - mx * mx
    syy = correlate2d(y * y, k, mode="valid") - my * my
    sxy = correlate2d(x * y, k, mode="valid") - mx * my
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
    cs = (2 * sxy + c2) / (sxx + syy + c2)
    return lum, cs


def _ref_pool(x):
    h, w = x.shape
    x = x[:h - h % 2, :w - w % 2]
    return (x[0::2, 0::2] + x[0::2, 1::2] + x[1::2, 0::2] + x[1::2, 1::2]) / 4.0


def _ref_channels(a: RasterImage, b: RasterImage):
    for c in range(a.channels):
        yield a.pixels[:, :, c].astype(np.float64), b.pixels[:, :, c].astype(np.float64)


def reference_ssim(a: RasterImage, b: RasterImage) -> float:
    scores = []
    for x, y in _ref_channels(a, b):
        lum, cs = _ref_maps(x, y)
        scores.append((lum * cs).mean())
    return float(np.mean(scores))


def reference_ms_ssim(a: RasterImage, b: RasterImage) -> float:
    weights = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
    scores = []
    for x, y in _ref_channels(a, b):
        value = 1.0
        for scale, weight in enumerate(weights):
            if scale > 0:
                x, y = _ref_pool(x), _ref_pool(y)
            lum, cs = _ref_maps(x, y)
            value *= cs.mean() ** weight
            if scale == len(weights) - 1:
                value *= lum.mean() ** weight
        scores.append(value)
    return float(np.mean(scores))


def reference_conv2d(padded: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                     stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Fixed-order float32 convolution of an already padded input.

    Sums one scalar weight times one strided input plane at a time, in
    input channel, kernel row, kernel column order, onto the bias.
    """
    out = np.empty((weights.shape[0], out_h, out_w), np.float32)
    out[:] = bias[:, None, None]
    n_in = weights.shape[1]
    k = weights.shape[2]
    for i in range(n_in):
        for kr in range(k):
            for kc in range(k):
                window = padded[i,
                                kr:kr + stride * (out_h - 1) + 1:stride,
                                kc:kc + stride * (out_w - 1) + 1:stride]
                out += weights[:, i, kr, kc][:, None, None] * window[None]
    return out


def noisy_variant(img: RasterImage, sigma: float, seed: int) -> RasterImage:
    rng = np.random.default_rng(seed)
    noisy = img.pixels.astype(np.float64) + rng.normal(0.0, sigma, img.pixels.shape)
    return RasterImage(pixels=np.clip(np.round(noisy), 0, 255).astype(np.uint8))
