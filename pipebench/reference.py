"""Independent computations and file access for the benchmark's checks.

Nothing here imports qpalloc. Each function reaches its result by its
own numeric route (a float64 im2col forward pass, FFT-filtered SSIM
moments, a vectorised block-mean recomputation, plain parsers for the
text and PPM formats), so agreement with the program is evidence rather
than a comparison of a function with itself.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_SIZE = 64
CELL_SIZE = 16
N_CONST = 3
DEFAULT_BETA = -1.367

_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


# ---------------------------------------------------------------------------
# File formats (writers make the benchmark's inputs, readers check outputs)
# ---------------------------------------------------------------------------

def write_ppm(path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, np.uint8).tobytes())


def read_ppm(path) -> np.ndarray:
    """(h, w, 3) uint8 from a P6 file without comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(maxsplit=4)
    if parts[0] != b"P6" or parts[3] != b"255":
        raise ValueError(f"{path}: not a canonical P6 file")
    w, h = int(parts[1]), int(parts[2])
    payload = parts[4]
    if len(payload) != w * h * 3:
        raise ValueError(f"{path}: payload of {len(payload)} bytes, expected {w * h * 3}")
    return np.frombuffer(payload, np.uint8).reshape(h, w, 3)


def write_qsmap(path, values: np.ndarray) -> None:
    rows = [" ".join(repr(float(v)) for v in row) for row in values]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"QSMAP 1\n{values.shape[1]} {values.shape[0]}\n" + "\n".join(rows) + "\n")


def read_qsmap(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if tokens[:2] != ["QSMAP", "1"]:
        raise ValueError(f"{path}: not a QSMAP file")
    w, h = int(tokens[2]), int(tokens[3])
    return np.array(tokens[4:], dtype=np.float64).reshape(h, w)


def write_grid(path, tag: str, block_size: int, base_qp: int, values: np.ndarray) -> None:
    by, bx = values.shape
    rows = [" ".join(str(int(v)) for v in row) for row in values]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{tag} 1\n{bx} {by} {block_size} {base_qp}\n" + "\n".join(rows) + "\n")


def read_grid(path) -> dict:
    """Header fields and the (blocks_y, blocks_x) float64 value grid."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    bx, by, block_size, base_qp = (int(t) for t in tokens[2:6])
    values = np.array(tokens[6:], dtype=np.float64)
    if values.size != bx * by:
        raise ValueError(f"{path}: {values.size} values for a {bx}x{by} grid")
    return {"tag": tokens[0], "blocks_x": bx, "blocks_y": by,
            "block_size": block_size, "base_qp": base_qp,
            "values": values.reshape(by, bx)}


def write_rd_csv(path, rates, qualities) -> None:
    rows = "".join(f"{float(r)!r},{float(q)!r}\n" for r, q in zip(rates, qualities))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("rate_bpp,quality\n" + rows)


def read_rd_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split()
    if lines[0] != "rate_bpp,quality":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=np.float64)
    return rows[:, 0], rows[:, 1]


# ---------------------------------------------------------------------------
# Pixels and PSNR
# ---------------------------------------------------------------------------

def gray(pixels: np.ndarray) -> np.ndarray:
    """Full-range luma, round(0.299 R + 0.587 G + 0.114 B) half up."""
    p = pixels.astype(np.float64)
    y = p[..., 0] * 0.299 + p[..., 1] * 0.587 + p[..., 2] * 0.114
    return np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    err = (a.astype(np.int64) - b.astype(np.int64)).ravel()
    sse = int(np.dot(err, err))
    if sse == 0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 * err.size / sse)


# ---------------------------------------------------------------------------
# Block allocation
# ---------------------------------------------------------------------------

def pixel_counts(width: int, height: int) -> np.ndarray:
    """(blocks_y, blocks_x) pixel counts of the 64-px block partition."""
    ws = np.minimum(BLOCK_SIZE, width - np.arange(0, width, BLOCK_SIZE))
    hs = np.minimum(BLOCK_SIZE, height - np.arange(0, height, BLOCK_SIZE))
    return np.outer(hs, ws)


def block_means(step: np.ndarray, width: int, height: int) -> np.ndarray:
    """Mean step per 64-px block over the 16-px cells it overlaps.

    Cells are summed per block through a zero-padded reshape and divided
    by the number of real cells, so edge blocks average only the cells
    they cover.
    """
    per = BLOCK_SIZE // CELL_SIZE
    gh, gw = step.shape
    if (gh, gw) != (-(-height // CELL_SIZE), -(-width // CELL_SIZE)):
        raise ValueError(f"step map {gw}x{gh} does not fit a {width}x{height} frame")
    by, bx = -(-gh // per), -(-gw // per)
    sums = np.zeros((by * per, bx * per))
    counts = np.zeros((by * per, bx * per))
    sums[:gh, :gw] = step
    counts[:gh, :gw] = 1.0
    sums = sums.reshape(by, per, bx, per).sum(axis=(1, 3))
    counts = counts.reshape(by, per, bx, per).sum(axis=(1, 3))
    return sums / counts


def allocation(step: np.ndarray, width: int, height: int, clamp: int = 4,
               slope: float = 1.0, beta: float = DEFAULT_BETA, eps: float = 1e-6):
    """(ratio, dqp) grids: pixel-weighted mean-1 ratios and clamped offsets
    rounded half away from zero."""
    raw = 1.0 / np.maximum(block_means(step, width, height), eps)
    weights = pixel_counts(width, height).astype(np.float64)
    ratio = raw * (weights.sum() / (weights * raw).sum())
    x = slope * N_CONST * beta * np.log2(ratio)
    dqp = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -clamp, clamp)
    return ratio, dqp.astype(np.int64)


# ---------------------------------------------------------------------------
# Float64 forward pass of the step network
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """Same-ceil strided convolution with replicate padding, as one
    im2col contraction in float64."""
    _, h, w = x.shape
    k = weights.shape[-1]
    out_h, out_w = -(-h // stride), -(-w // stride)
    pad_h = max((out_h - 1) * stride + k - h, 0)
    pad_w = max((out_w - 1) * stride + k - w, 0)
    xp = np.pad(x, ((0, 0), (pad_h // 2, pad_h - pad_h // 2),
                    (pad_w // 2, pad_w - pad_w // 2)), mode="edge")
    cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    cols = cols[:, ::stride, ::stride][:, :out_h, :out_w]
    out = np.einsum("oikl,ihwkl->ohw", weights.astype(np.float64), cols, optimize=True)
    return out + bias.astype(np.float64)[:, None, None]


def forward(pixels: np.ndarray, plan) -> np.ndarray:
    """Step map of an (h, w, 3) uint8 image in float64.

    plan is a list of ("conv", w, b, stride) and ("res", (w1, b1), (w2, b2))
    entries.
    """
    x = pixels.transpose(2, 0, 1).astype(np.float64) / 255.0
    for entry in plan:
        if entry[0] == "conv":
            _, w, b, stride = entry
            x = conv2d(x, w, b, stride)
        else:
            (w1, b1), (w2, b2) = entry[1], entry[2]
            x = x + conv2d(np.maximum(conv2d(x, w1, b1, 1), 0.0), w2, b2, 1)
    head = x[0]
    return np.maximum(head, 0.0) + np.log1p(np.exp(-np.abs(head)))


# ---------------------------------------------------------------------------
# MS-SSIM with 2-D FFT filtering
# ---------------------------------------------------------------------------

def _window() -> np.ndarray:
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5 ** 2))
    g /= g.sum()
    return np.outer(g, g)


def _filter_valid(x: np.ndarray, spectrum_of) -> np.ndarray:
    h, w = x.shape
    shape = (h + 10, w + 10)
    full = np.fft.irfft2(np.fft.rfft2(x, shape) * spectrum_of(shape), shape)
    return full[10:h, 10:w]


def ms_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Five-scale MS-SSIM of two (h, w) or (h, w, c) uint8 images,
    averaged over channels."""
    window = _window()
    spectra = {}

    def spectrum_of(shape):
        if shape not in spectra:
            spectra[shape] = np.fft.rfft2(window, shape)
        return spectra[shape]

    a = a.reshape(a.shape[0], a.shape[1], -1)
    b = b.reshape(b.shape[0], b.shape[1], -1)
    scores = []
    for c in range(a.shape[2]):
        x = a[:, :, c].astype(np.float64)
        y = b[:, :, c].astype(np.float64)
        value = 1.0
        for scale, weight in enumerate(_MSSSIM_WEIGHTS):
            if scale:
                x = x[:x.shape[0] // 2 * 2, :x.shape[1] // 2 * 2]
                y = y[:y.shape[0] // 2 * 2, :y.shape[1] // 2 * 2]
                x = (x[0::2, 0::2] + x[1::2, 0::2] + x[0::2, 1::2] + x[1::2, 1::2]) / 4.0
                y = (y[0::2, 0::2] + y[1::2, 0::2] + y[0::2, 1::2] + y[1::2, 1::2]) / 4.0
            mx, my = _filter_valid(x, spectrum_of), _filter_valid(y, spectrum_of)
            sxx = _filter_valid(x * x, spectrum_of) - mx * mx
            syy = _filter_valid(y * y, spectrum_of) - my * my
            sxy = _filter_valid(x * y, spectrum_of) - mx * my
            value *= float(np.mean((2 * sxy + _C2) / (sxx + syy + _C2))) ** weight
            if scale == len(_MSSSIM_WEIGHTS) - 1:
                lum = (2 * mx * my + _C1) / (mx * mx + my * my + _C1)
                value *= float(np.mean(lum)) ** weight
        scores.append(value)
    return float(np.mean(scores))
