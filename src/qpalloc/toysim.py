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
from the reconstruction. The frame is coded one 64-row block strip at a
time in one workspace: the strip's rows of units go through the DCT
B @ X @ B.T as two products, B on each unit row's (8, width) slab and
then B.T on every 8-column run of the result, and back through the
inverse the same way. The codec does not score the reconstruction
itself: RdPoint.quality is metrics.psnr of it.
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
_BASIS_T = np.ascontiguousarray(DCT_BASIS.T)


@dataclass(frozen=True)
class RdPoint:
    """One operating point: rate in bits/pixel, the PSNR of the
    reconstruction and the (blocks_y, blocks_x) bits of each block."""

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
        base = _qp_index(qp_map, "QP")
        dqp = np.zeros((grid.blocks_y, grid.blocks_x), np.int64)
    lo, hi = base + int(dqp.min()), base + int(dqp.max())
    if lo < 0 or hi > 63:
        raise ValueError(f"block QPs span [{lo}, {hi}], outside [0, 63]")
    if not 0 <= base <= 63:  # offsets can carry a bad base back into range
        raise ValueError(f"base QP {base} outside [0, 63]")
    return base + dqp


def encode_image(luma: np.ndarray, qp_map: BlockAllocation | int):
    """Encode a luma plane under a per-block QP map (or one scalar QP).

    The base QP and every block QP must be integers in [0, 63], as
    AllocConfig enforces for the base QP; anything else raises ValueError.

    Returns (RdPoint, reconstruction). The reconstruction is uint8,
    rounded half-up and clipped; quality is metrics.psnr of it against
    luma, +inf when it is lossless.

    Memory does not grow with the frame's height: beside the
    reconstruction, the encode holds one workspace of three float64 and
    one int32 BLOCK_SIZE-row planes of the padded width, 1,792 B per
    padded column (0.66 MB at 368 columns).
    """
    luma = np.asarray(luma)
    if luma.ndim != 2 or luma.dtype != np.uint8:
        raise ValueError("luma must be a 2-D uint8 plane")
    h, w = luma.shape
    if h < TU_SIZE or w < TU_SIZE:
        raise ValueError(f"plane {w}x{h} smaller than one {TU_SIZE}x{TU_SIZE} unit")
    grid = BlockGrid(w, h)
    qp_blocks = _qp_blocks(grid, qp_map)
    steps = np.power(2.0, (qp_blocks - 4) / 6.0)

    pw = w + -w % TU_SIZE
    block_cols = np.arange(0, pw, BLOCK_SIZE)  # each block's first column
    cols_units = np.diff(block_cols, append=pw) // TU_SIZE  # unit columns per block
    pixels, work, coeffs = np.empty((3, BLOCK_SIZE, pw))
    exps = np.empty((BLOCK_SIZE, pw), np.int32)
    recon = np.empty_like(luma)
    per_block = np.empty(qp_blocks.shape, np.int64)
    for by, y in enumerate(range(0, h, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, h - y)
        units = -(-rows // TU_SIZE)  # unit rows in the strip
        x, t, c, e = (a[:units * TU_SIZE] for a in (pixels, work, coeffs, exps))
        x[:rows, :w] = luma[y:y + rows]
        x[:rows, w:] = x[:rows, w - 1:w]
        x[rows:] = x[rows - 1]
        # slab u holds unit row u's 8 pixel rows. Each coefficient is the
        # same 8-term product sum as B @ X @ B.T on its unit alone (the
        # oracle tests hold the levels to a unit-by-unit encode).
        slabs = (units, TU_SIZE, pw)
        np.matmul(DCT_BASIS, x.reshape(slabs), out=t.reshape(slabs))
        np.matmul(t.reshape(-1, TU_SIZE), _BASIS_T, out=c.reshape(-1, TU_SIZE))

        # Levels round half away from zero as trunc(c / q + copysign(1/2, c)),
        # into the spent pixel rows, with the signed halves in the spent first
        # product; division and addition are sign-symmetric, so this is
        # floor(|c| / q + 1/2) with c's sign. Each level costs its order-0
        # signed exp-Golomb length 2*e + 1, where e is the frexp exponent of
        # the level itself: floor(log2|level|) + 1, and 0 for level 0. A
        # block's 64 * units * cols_units levels thus cost 2 * (their exponent
        # sum) + 64 * units * cols_units bits. The strip is one block row, so
        # each column's step is its block's.
        q = steps[by].repeat(BLOCK_SIZE)[:pw]
        np.divide(c, q, out=x)
        x += np.copysign(0.5, c, out=t)
        np.trunc(x, out=x)
        np.frexp(x, out=(t, e))
        per_block[by] = (2 * np.add.reduceat(e.sum(axis=0), block_cols)
                         + TU_SIZE * TU_SIZE * units * cols_units)

        x *= q
        np.matmul(_BASIS_T, x.reshape(slabs), out=t.reshape(slabs))
        np.matmul(t.reshape(-1, TU_SIZE), DCT_BASIS, out=c.reshape(-1, TU_SIZE))
        c += 0.5
        np.floor(c, out=c)
        recon[y:y + rows] = np.clip(c[:rows, :w], 0, 255, out=c[:rows, :w])
    quality = psnr(RasterImage(pixels=luma[:, :, None]),
                   RasterImage(pixels=recon[:, :, None]))
    point = RdPoint(rate=float(per_block.sum()) / (w * h), quality=quality,
                    per_block_bits=per_block)
    return point, recon
