"""Independent reference implementations used as test oracles.

These deliberately take different numeric routes than the production
code (full 2-D kernels through scipy.signal.correlate2d, BD statistics
through np.polyfit and np.polyint on the raw axes, plain Python loops,
scalar-weighted accumulation, per-block slices, scalar math) so that
agreement actually checks something. The toy codec's oracle works one
8x8 unit and one coefficient at a time through the scalar helpers
dct8_forward, quantize, golomb_bits, dequantize and dct8_inverse.
write_qsnw2 packs weight files with struct, apart from the package's
writer, port_qsnw1 turns a QSNW1 text literal into its arguments, and
activity_step_map stands in for a trained network's step map.
"""

import math
import struct

import numpy as np
from scipy.signal import correlate2d

from qpalloc.imageio import BlockGrid, RasterImage
from qpalloc.toysim import DCT_BASIS


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


def _ref_cubic_mean(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    antiderivative = np.polyint(np.polyfit(x, y, 3))
    return float(np.polyval(antiderivative, hi) - np.polyval(antiderivative, lo)) / (hi - lo)


def reference_bd_rate(anchor, test) -> float:
    """Bjontegaard's cubic BD-rate (VCEG-M33) of two RdCurves, the textbook
    way: log10(rate) fitted by np.polyfit as a cubic in quality, integrated
    through np.polyint over the shared quality span."""
    lo = max(anchor.qualities.min(), test.qualities.min())
    hi = min(anchor.qualities.max(), test.qualities.max())
    gap = (_ref_cubic_mean(test.qualities, np.log10(test.rates), lo, hi)
           - _ref_cubic_mean(anchor.qualities, np.log10(anchor.rates), lo, hi))
    return (10.0 ** gap - 1.0) * 100.0


def reference_bd_quality(anchor, test) -> float:
    """The dual of reference_bd_rate: quality fitted as a cubic in
    log10(rate), mean difference over the shared log-rate span."""
    log_anchor, log_test = np.log10(anchor.rates), np.log10(test.rates)
    lo, hi = max(log_anchor.min(), log_test.min()), min(log_anchor.max(), log_test.max())
    return (_ref_cubic_mean(log_test, test.qualities, lo, hi)
            - _ref_cubic_mean(log_anchor, anchor.qualities, lo, hi))


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


def write_qsnw2(path, header_lines, values) -> None:
    """A QSNW2 file built apart from save_weights: each header line as
    given plus a newline, then every value packed by struct as a
    little-endian float32. The lines may hold any text, or omit the
    data line, so that malformed headers can be written too."""
    values = list(values)
    header = "".join(line + "\n" for line in header_lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header + struct.pack(f"<{len(values)}f", *values))


def port_qsnw1(text: str) -> tuple[list[str], list[float]]:
    """A hand-written QSNW1 literal as write_qsnw2's header lines and
    values: the magic becomes QSNW2, the layer lines (those starting with
    a letter) move ahead of a data line, and the value lines become the
    payload."""
    header, values = ["QSNW2"], []
    for line in text.splitlines()[1:]:
        if line[:1].isalpha():
            header.append(line)
        else:
            values.extend(float(token) for token in line.split())
    return header + ["data"], values


def activity_step_map(luma: np.ndarray) -> np.ndarray:
    """A step map that grows with local detail: ((std of each 16x16 cell
    + 2) / 8)^2, the plane edge-padded to whole cells. Large steps where
    texture masks error, small ones on flat areas."""
    h, w = luma.shape
    gh, gw = -(-h // 16), -(-w // 16)
    plane = np.pad(luma.astype(np.float64), ((0, gh * 16 - h), (0, gw * 16 - w)), mode="edge")
    return ((plane.reshape(gh, 16, gw, 16).std(axis=(1, 3)) + 2.0) / 8.0) ** 2


def noisy_variant(img: RasterImage, sigma: float, seed: int) -> RasterImage:
    rng = np.random.default_rng(seed)
    noisy = img.pixels.astype(np.float64) + rng.normal(0.0, sigma, img.pixels.shape)
    return RasterImage(pixels=np.clip(np.round(noisy), 0, 255).astype(np.uint8))


def reference_block_mean_step(values: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Mean of the 16-px step cells each block overlaps, one block at a time."""
    b = 64
    out = np.empty(grid.n_blocks, np.float64)
    for k in range(grid.n_blocks):
        by, bx = divmod(k, grid.blocks_x)
        x0, y0 = bx * b, by * b
        x1 = min(x0 + b, grid.width)
        y1 = min(y0 + b, grid.height)
        out[k] = values[y0 // 16:-(-y1 // 16), x0 // 16:-(-x1 // 16)].mean()
    return out


def reference_qp_offset(r: float, beta: float, clamp: int) -> int:
    """One offset through Python floats: round half away from zero, clamp."""
    raw = 3 * beta * math.log2(r)
    rounded = int(math.copysign(math.floor(abs(raw) + 0.5), raw))
    return max(-clamp, min(clamp, rounded))


def dct8_forward(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one 8x8 block."""
    block = np.asarray(block, np.float64)
    if block.shape != (8, 8):
        raise ValueError(f"expected an 8x8 block, got {block.shape}")
    return DCT_BASIS @ block @ DCT_BASIS.T


def dct8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct8_forward (the transposed transform)."""
    coeffs = np.asarray(coeffs, np.float64)
    if coeffs.shape != (8, 8):
        raise ValueError(f"expected an 8x8 block, got {coeffs.shape}")
    return DCT_BASIS.T @ coeffs @ DCT_BASIS


def qstep(qp: int) -> float:
    """Quantization step 2^((qp-4)/6): six QP steps double the step."""
    # np.power keeps this bit-identical with the vectorized encode path
    return float(np.power(2.0, (qp - 4) / 6.0))


def quantize(coeff: float, qp: int) -> int:
    """Level index: coeff / Q(qp), rounded half away from zero."""
    q = qstep(qp)
    return int(math.copysign(math.floor(abs(coeff) / q + 0.5), coeff))


def dequantize(level: int, qp: int) -> float:
    return level * qstep(qp)


def golomb_bits(level: int) -> int:
    """Order-0 exp-Golomb code length of a signed level.

    Levels map to m = 2*level-1 (positive) or -2*level (otherwise), so
    m(0) = 0 and the code costs 2*floor(log2(m+1)) + 1 bits.
    """
    m = 2 * level - 1 if level > 0 else -2 * level
    return 2 * ((m + 1).bit_length() - 1) + 1


def reference_encode(luma: np.ndarray, qp_blocks: np.ndarray):
    """(per-block bits, reconstruction) of the toy codec, one unit at a time.

    The plane is edge-padded to whole 8x8 units; each unit takes the QP
    of the 64-px block holding its top-left pixel and is coded
    coefficient by coefficient, and the reconstruction is rounded half
    up and clipped.
    """
    h, w = luma.shape
    plane = np.pad(luma.astype(np.float64), ((0, -h % 8), (0, -w % 8)), mode="edge")
    bits = np.zeros(qp_blocks.shape, np.int64)
    recon = np.empty_like(plane)
    for y in range(0, plane.shape[0], 8):
        for x in range(0, plane.shape[1], 8):
            by, bx = y // 64, x // 64
            qp = int(qp_blocks[by, bx])
            levels = [quantize(c, qp) for c in dct8_forward(plane[y:y + 8, x:x + 8]).flat]
            bits[by, bx] += sum(golomb_bits(level) for level in levels)
            dequant = np.reshape([dequantize(level, qp) for level in levels], (8, 8))
            recon[y:y + 8, x:x + 8] = dct8_inverse(dequant)
    recon = np.clip(np.floor(recon[:h, :w] + 0.5), 0, 255).astype(np.uint8)
    return bits.reshape(-1), recon
