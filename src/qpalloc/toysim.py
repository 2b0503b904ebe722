"""Toy block-DCT intra codec for checking QP maps at desk scale.

Deliberately minimal: no prediction, no entropy contexts, no bitstream.
Each 8x8 transform unit inside a 64x64 block is transformed with the
orthonormal 2-D DCT-II, quantized with step Q(qp) = 2^((qp-4)/6), and
its levels are priced with order-0 exponential-Golomb codes. That is
enough for the property that matters: blocks whose QP drops spend more
bits, independently of every other block.

Planes that are not multiples of 8 are edge-replicated up to the next
transform unit; padded samples are priced with their block but excluded
from distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alloc import BlockAllocation
from .errors import GridMismatchError
from .imageio import BlockGrid, block_partition

__all__ = [
    "RdPoint",
    "TU_SIZE",
    "dct8_forward",
    "dct8_inverse",
    "qstep",
    "quantize",
    "dequantize",
    "golomb_bits",
    "encode_image",
]

TU_SIZE = 8


def _dct_basis() -> np.ndarray:
    n = TU_SIZE
    j = np.arange(n)
    basis = np.cos((2 * j[None, :] + 1) * j[:, None] * np.pi / (2 * n)) * math.sqrt(2.0 / n)
    basis[0, :] = math.sqrt(1.0 / n)
    return basis


DCT_BASIS = _dct_basis()


@dataclass(frozen=True)
class RdPoint:
    """One operating point: rate in bits/pixel, MSE, PSNR, per-block bits."""

    rate: float
    distortion: float
    quality: float
    per_block_bits: np.ndarray


def dct8_forward(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one 8x8 block."""
    block = np.asarray(block, np.float64)
    if block.shape != (TU_SIZE, TU_SIZE):
        raise ValueError(f"expected an 8x8 block, got {block.shape}")
    return DCT_BASIS @ block @ DCT_BASIS.T


def dct8_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct8_forward (the transposed transform)."""
    coeffs = np.asarray(coeffs, np.float64)
    if coeffs.shape != (TU_SIZE, TU_SIZE):
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


def _code_blocks(coeffs: np.ndarray, qsteps: np.ndarray):
    """Quantize each 8x8 coefficient block, returning (bits, dequantized).

    Levels round half away from zero; each level costs golomb_bits(level),
    computed exactly from the frexp exponent of m + 1.
    """
    q = qsteps[:, None, None]
    levels = np.copysign(np.floor(np.abs(coeffs) / q + 0.5), coeffs)
    m = np.where(levels > 0, 2.0 * levels - 1.0, -2.0 * levels)
    _, exponents = np.frexp(m + 1.0)
    bits = np.sum(2 * (exponents - 1) + 1, axis=(1, 2)).astype(np.int64)
    return bits, levels * q


def _qp_grid(plane_shape: tuple[int, int], qp_map) -> tuple[BlockGrid, np.ndarray]:
    h, w = plane_shape
    if isinstance(qp_map, BlockAllocation):
        grid = qp_map.grid
        if grid.width != w or grid.height != h:
            raise GridMismatchError(
                f"QP map covers {grid.width}x{grid.height}, plane is {w}x{h}")
        qp = np.asarray(qp_map.qp, np.int64).reshape(grid.blocks_y, grid.blocks_x)
        return grid, qp
    grid = block_partition(w, h)
    return grid, np.full((grid.blocks_y, grid.blocks_x), int(qp_map), np.int64)


def encode_image(luma: np.ndarray, qp_map: BlockAllocation | int):
    """Encode a luma plane under a per-block QP map (or one scalar QP).

    Every block QP must lie in [0, 63], the range AllocConfig enforces
    for the base QP; anything else raises ValueError.

    Returns (RdPoint, reconstruction). The reconstruction is uint8,
    rounded half-up and clipped; distortion is the MSE against it, and
    quality the corresponding PSNR.
    """
    luma = np.asarray(luma)
    if luma.ndim != 2 or luma.dtype != np.uint8:
        raise ValueError("luma must be a 2-D uint8 plane")
    h, w = luma.shape
    if h < TU_SIZE or w < TU_SIZE:
        raise ValueError(f"plane {w}x{h} smaller than one {TU_SIZE}x{TU_SIZE} unit")
    grid, qp_blocks = _qp_grid((h, w), qp_map)
    if qp_blocks.min() < 0 or qp_blocks.max() > 63:
        raise ValueError(f"block QPs span [{qp_blocks.min()}, {qp_blocks.max()}], "
                         "outside [0, 63]")
    if grid.block_size % TU_SIZE:
        raise ValueError("block size must be a multiple of the transform unit")

    pad_h = (-h) % TU_SIZE
    pad_w = (-w) % TU_SIZE
    plane = np.pad(luma.astype(np.float64), ((0, pad_h), (0, pad_w)), mode="edge")
    tu_y, tu_x = plane.shape[0] // TU_SIZE, plane.shape[1] // TU_SIZE

    # (n, 8, 8) transform units, row-major; each belongs to the block
    # holding its top-left pixel (always inside the unpadded frame).
    tus = (plane.reshape(tu_y, TU_SIZE, tu_x, TU_SIZE)
           .transpose(0, 2, 1, 3).reshape(-1, TU_SIZE, TU_SIZE))
    tu_rows = np.repeat(np.arange(tu_y), tu_x)
    tu_cols = np.tile(np.arange(tu_x), tu_y)
    block_rows = (tu_rows * TU_SIZE) // grid.block_size
    block_cols = (tu_cols * TU_SIZE) // grid.block_size
    tu_qps = qp_blocks[block_rows, block_cols]

    qsteps = np.power(2.0, (tu_qps - 4) / 6.0)
    coeffs = DCT_BASIS @ tus @ DCT_BASIS.T
    tu_bits, dequant = _code_blocks(coeffs, qsteps)
    recon_tus = DCT_BASIS.T @ dequant @ DCT_BASIS

    recon = (recon_tus.reshape(tu_y, tu_x, TU_SIZE, TU_SIZE)
             .transpose(0, 2, 1, 3).reshape(plane.shape))[:h, :w]
    recon = np.clip(np.floor(recon + 0.5), 0, 255).astype(np.uint8)

    per_block = np.zeros((grid.blocks_y, grid.blocks_x), np.int64)
    np.add.at(per_block, (block_rows, block_cols), tu_bits)
    per_block = per_block.reshape(-1)

    diff = luma.astype(np.float64) - recon.astype(np.float64)
    mse = float(np.mean(diff * diff))
    quality = math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)
    point = RdPoint(rate=float(per_block.sum()) / (w * h), distortion=mse,
                    quality=quality, per_block_bits=per_block)
    return point, recon
