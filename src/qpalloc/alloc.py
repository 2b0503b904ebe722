"""Block bit-ratio and QP-offset derivation.

The chain: average the step map over each 64x64 block, take reciprocals,
normalize them to pixel-weighted mean 1 (this is the bit-ratio map), and
convert each ratio r to an integer QP offset

    dQP = clamp(round(N * beta * log2(r)), -clamp, +clamp)

with N = 3 and rounding half away from zero, then clipped so that the
block QP stays in [0, 63], as VTM clips a CU's QP. beta is the exponent
of the R-lambda model, one scalar for the frame; its default -1.367 is
the beta of HM's rate control (Li et al., "Lambda Domain Rate Control
Algorithm for HEVC", JCTVC-K0103, 2012). The rate-distortion multiplier
for a block then scales by 2^(dQP / N). A uniform step map produces the
all-zero offset map by construction. Every step is one array expression
over all blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import GridMismatchError
from .imageio import BLOCK_SIZE, DOWNSAMPLE_FACTOR, BlockGrid

if TYPE_CHECKING:
    from .stepnet import StepMap

__all__ = ["AllocConfig", "BlockAllocation", "LinearityReport",
           "BLOCK_SIZE", "DEFAULT_BETA", "EPS", "N_CONST", "QP_LAMBDA_ALIGNMENT",
           "block_mean_step", "bit_ratios", "qp_offset", "lambda_adapt",
           "build_allocation", "linearity_fit"]

N_CONST = 3        # QP steps per doubling of the RD multiplier
EPS = 1e-6         # floor on a block's mean step before its reciprocal
DEFAULT_BETA = -1.367
# Base-QP operating points and the frame-level rate-control multiplier
# each one was aligned to; echoed in run manifests.
QP_LAMBDA_ALIGNMENT: Mapping[int, float] = {37: 1.0, 32: 4.0, 27: 8.0, 22: 16.0}


@dataclass(frozen=True)
class AllocConfig:
    """Knobs for the ratio-to-QP conversion: the frame's base QP, the
    scalar R-lambda exponent beta and the offset clamp."""

    base_qp: int
    beta: float = DEFAULT_BETA
    clamp: int = 4

    def __post_init__(self):
        if not 0 <= self.base_qp <= 63:
            raise ValueError(f"base_qp {self.base_qp} outside [0, 63]")
        if np.ndim(self.beta) != 0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be a finite scalar, got {self.beta!r}")
        if not 0 <= self.clamp <= 63:
            raise ValueError(f"clamp {self.clamp} outside [0, 63]")


@dataclass(frozen=True)
class BlockAllocation:
    """Per-block products of the pipeline, row-major flat arrays."""

    grid: BlockGrid
    base_qp: int
    qs: np.ndarray            # mean step per block
    ratio: np.ndarray         # normalized bit ratio, weighted mean 1
    dqp: np.ndarray           # integer offsets, |dqp| <= clamp, 0 <= qp <= 63

    @property
    def qp(self) -> np.ndarray:
        return self.base_qp + self.dqp

    @property
    def lambda_scale(self) -> np.ndarray:
        return lambda_adapt(self.dqp)


@dataclass(frozen=True)
class LinearityReport:
    slope_through_origin: float
    r_squared: float
    n_blocks: int


def block_mean_step(step_map: StepMap, grid: BlockGrid) -> np.ndarray:
    """Mean step per block over the latent cells the block overlaps.

    Latent cell (i, j) covers the 16x16 pixel square at (16i, 16j) in
    row, column order; a full 64-px block therefore averages a 4x4 cell
    window, while edge blocks average only the cells they actually
    cover. Cells are pooled as value / 16 and the mean scaled back by 16,
    so that finite steps cannot overflow the sum. Scaling by a power of
    two commutes with rounding, so this gives the plain mean's bits
    (short of subnormal cells, far below the EPS floor).
    """
    f = DOWNSAMPLE_FACTOR
    if (step_map.grid_w != -(-grid.width // f)
            or step_map.grid_h != -(-grid.height // f)):
        raise GridMismatchError(
            f"step map {step_map.grid_w}x{step_map.grid_h} does not match "
            f"a {grid.width}x{grid.height} frame (expected "
            f"{-(-grid.width // f)}x{-(-grid.height // f)})")
    # cell values / 16 and a 1 per real cell, summed per block
    cells = np.ones((2, step_map.grid_h, step_map.grid_w))
    cells[0] = step_map.values / 16
    sums, counts = grid.block_sums(cells, f)
    return ((sums / counts) * 16).reshape(-1)


def bit_ratios(qs: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Reciprocal steps normalized to pixel-weighted mean 1.

    raw_k = 1 / max(qs_k, EPS); weights are block pixel counts, so the
    frame bit budget is preserved to first order even with partial edge
    blocks.
    """
    qs = np.asarray(qs, np.float64)
    if qs.size == 0:
        raise ValueError("no blocks to normalize")
    if qs.size != grid.n_blocks:
        raise GridMismatchError(
            f"{qs.size} step means for a grid of {grid.n_blocks} blocks")
    if not np.all(np.isfinite(qs)):
        raise ValueError("step means must be finite")
    raw = 1.0 / np.maximum(qs, EPS)
    weights = grid.pixel_counts().astype(np.float64)
    weighted_mean = float(np.dot(weights, raw) / weights.sum())
    return raw / weighted_mean


def qp_offset(ratio, beta: float, clamp: int) -> np.ndarray:
    """Integer QP offsets for bit ratios (scalars or arrays).

    round(N * beta * log2(r)) half away from zero, then clamped to
    [-clamp, +clamp]; an overflowing raw offset saturates, and a ratio
    of exactly 1 gives 0 whatever beta is.
    """
    ratio = np.asarray(ratio, np.float64)
    if np.any(ratio <= 0):
        raise ValueError("bit ratios must be positive")
    log_r = np.log2(ratio)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.where(log_r == 0.0, 0.0, N_CONST * beta * log_r)
    rounded = np.sign(raw) * np.floor(np.abs(raw) + 0.5)
    return np.clip(rounded, -clamp, clamp).astype(np.int64)


def lambda_adapt(dqp) -> np.ndarray:
    """Multiplier applied to the frame-level RD multiplier: 2^(dqp/N)."""
    return 2.0 ** (np.asarray(dqp) / N_CONST)


def build_allocation(step_map: StepMap, width: int, height: int,
                     cfg: AllocConfig) -> BlockAllocation:
    """Full chain from step map to per-block QP offsets and scales."""
    grid = BlockGrid(width, height)
    qs = block_mean_step(step_map, grid)
    ratio = bit_ratios(qs, grid)
    dqp = qp_offset(ratio, cfg.beta, cfg.clamp)
    return BlockAllocation(grid=grid, base_qp=cfg.base_qp, qs=qs, ratio=ratio,
                           dqp=np.clip(dqp, -cfg.base_qp, 63 - cfg.base_qp))


def linearity_fit(bits_per_block, qs) -> LinearityReport:
    """Through-origin fit of normalized bits against normalized 1/step.

    x_k = (1/qs_k) / mean(1/qs), y_k = bits_k / mean(bits); the slope is
    sum(xy)/sum(xx) and r^2 = 1 - SS_res/SS_tot (0 when SS_tot is 0).
    A slope near 1 means measured bits track the reciprocal step.
    """
    bits = np.asarray(bits_per_block, np.float64)
    qs = np.asarray(qs, np.float64)
    if bits.shape != qs.shape:
        raise ValueError(f"length mismatch: {bits.shape} bits vs {qs.shape} steps")
    if bits.size < 2:
        raise ValueError("need at least 2 blocks to fit")
    if np.any(bits < 0):
        raise ValueError("bit counts must be non-negative")
    if bits.mean() <= 0:
        raise ValueError("mean bits must be positive")
    if np.any(qs <= 0):
        raise ValueError("step means must be positive")

    inv = 1.0 / qs
    x = inv / inv.mean()
    y = bits / bits.mean()
    slope = float(np.dot(x, y) / np.dot(x, x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearityReport(slope_through_origin=slope, r_squared=r_squared,
                           n_blocks=int(bits.size))
