"""Toy block-DCT intra codec for checking QP maps at desk scale.

Deliberately minimal: no prediction, no entropy contexts, no bitstream.
Each 8x8 transform unit takes the QP of the 64x64 block (BLOCK_SIZE)
that holds it, is transformed with the orthonormal 2-D DCT-II,
quantized with step Q(qp) = 2^((qp-4)/6), and its levels are priced
with order-0 exponential-Golomb codes. That is enough for the property
that matters: blocks whose QP drops spend more bits, independently of
every other block.

Planes that are not multiples of 8 are edge-replicated up to the next
transform unit; padded samples are priced with their block but cropped
from the reconstruction. Every stage works on one (tu_y, tu_x, 8, 8)
view of the padded plane, from the DCT B @ X @ B.T to the inverse
written back. The codec does not score the reconstruction itself:
RdPoint.quality is metrics.psnr of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alloc import BlockAllocation, _qp_index
from .errors import GridMismatchError
from .imageio import BLOCK_SIZE, BlockGrid, RasterImage
from .metrics import psnr

__all__ = ["RdPoint", "encode_image"]

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
    """One operating point: rate in bits/pixel, the PSNR of the
    reconstruction and the bits of each block."""

    rate: float
    quality: float
    per_block_bits: np.ndarray


def _qp_blocks(grid: BlockGrid, qp_map) -> np.ndarray:
    """(blocks_y, blocks_x) int64 block QPs, all in [0, 63], from a base
    QP in [0, 63]. The span is checked on Python ints first, so that a
    base QP or an offset beyond int64 is reported as it is instead of
    overflowing or wrapping."""
    if isinstance(qp_map, BlockAllocation):
        if qp_map.grid != grid:
            raise GridMismatchError(
                f"QP map covers {qp_map.grid.width}x{qp_map.grid.height}, "
                f"plane is {grid.width}x{grid.height}")
        base, dqp = _qp_index(qp_map.base_qp, "base QP"), np.asarray(qp_map.dqp)
        if not np.can_cast(dqp.dtype, np.int64):
            raise ValueError(f"QP offsets must be integers, got {dqp.dtype}")
        dqp = dqp.astype(np.int64)
    else:
        base, dqp = _qp_index(qp_map, "QP"), np.zeros(grid.n_blocks, np.int64)
    lo, hi = base + int(dqp.min()), base + int(dqp.max())
    if lo < 0 or hi > 63:
        raise ValueError(f"block QPs span [{lo}, {hi}], outside [0, 63]")
    if not 0 <= base <= 63:  # offsets can carry a bad base back into range
        raise ValueError(f"base QP {base} outside [0, 63]")
    return (base + dqp).reshape(grid.blocks_y, grid.blocks_x)


def encode_image(luma: np.ndarray, qp_map: BlockAllocation | int):
    """Encode a luma plane under a per-block QP map (or one scalar QP).

    The base QP and every block QP must be integers in [0, 63], as
    AllocConfig enforces for the base QP; anything else raises ValueError.

    Returns (RdPoint, reconstruction). The reconstruction is uint8,
    rounded half-up and clipped; quality is metrics.psnr of it against
    luma, +inf when it is lossless.
    """
    luma = np.asarray(luma)
    if luma.ndim != 2 or luma.dtype != np.uint8:
        raise ValueError("luma must be a 2-D uint8 plane")
    h, w = luma.shape
    if h < TU_SIZE or w < TU_SIZE:
        raise ValueError(f"plane {w}x{h} smaller than one {TU_SIZE}x{TU_SIZE} unit")
    grid = BlockGrid(w, h)
    qp_blocks = _qp_blocks(grid, qp_map)

    pad = ((0, -h % TU_SIZE), (0, -w % TU_SIZE))
    plane = np.pad(luma.astype(np.float64), pad, mode="edge")
    tu_y, tu_x = plane.shape[0] // TU_SIZE, plane.shape[1] // TU_SIZE

    # (tu_y, tu_x, 8, 8) view of the transform units; each takes the QP of
    # the block holding its top-left pixel (always inside the unpadded frame).
    tiles = plane.reshape(tu_y, TU_SIZE, tu_x, TU_SIZE).swapaxes(1, 2)
    per = BLOCK_SIZE // TU_SIZE
    tu_qps = qp_blocks.repeat(per, 0).repeat(per, 1)[:tu_y, :tu_x]
    q = np.power(2.0, (tu_qps - 4) / 6.0)[:, :, None, None]

    # Levels round half away from zero. Each costs its order-0 signed
    # exp-Golomb length 2*e + 1, where e is the frexp exponent of the
    # level itself: floor(log2|level|) + 1, and 0 for level 0.
    coeffs = DCT_BASIS @ tiles @ DCT_BASIS.T
    levels = np.copysign(np.floor(np.abs(coeffs) / q + 0.5), coeffs)
    tu_bits = np.sum(2 * np.frexp(levels)[1] + 1, axis=(2, 3), dtype=np.int64)
    tiles[...] = DCT_BASIS.T @ (levels * q) @ DCT_BASIS  # back into the plane
    recon = np.clip(np.floor(plane[:h, :w] + 0.5), 0, 255).astype(np.uint8)
    per_block = grid.block_sums(tu_bits, TU_SIZE).reshape(-1)
    quality = psnr(RasterImage(pixels=luma[:, :, None]),
                   RasterImage(pixels=recon[:, :, None]))
    point = RdPoint(rate=float(per_block.sum()) / (w * h), quality=quality,
                    per_block_bits=per_block)
    return point, recon
