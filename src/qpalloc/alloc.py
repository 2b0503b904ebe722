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
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridMismatchError
from .imageio import BLOCK_SIZE, DOWNSAMPLE_FACTOR, BlockGrid

if TYPE_CHECKING:
    from .stepnet import StepMap

__all__ = ["AllocConfig", "BlockAllocation", "LinearityReport",
           "DEFAULT_BETA", "EPS", "N_CONST",
           "block_mean_step", "bit_ratios", "qp_offset", "lambda_adapt",
           "build_allocation", "linearity_fit"]

N_CONST = 3        # QP steps per doubling of the RD multiplier
EPS = 1e-6         # floor on a block's mean step before its reciprocal
DEFAULT_BETA = -1.367


def _qp_index(value, what: str) -> int:
    """value through operator.index: a float, even 32.0, is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _qp_range(value, what: str) -> int:
    """_qp_index(value, what), refused outside [0, 63]."""
    value = _qp_index(value, what)
    if not 0 <= value <= 63:
        raise ValueError(f"{what} {value} outside [0, 63]")
    return value


def _check_beta(beta) -> None:
    if np.ndim(beta) != 0 or not math.isfinite(beta):
        raise ValueError(f"beta must be a finite scalar, got {beta!r}")


@dataclass(frozen=True)
class AllocConfig:
    """Knobs for the ratio-to-QP conversion: the frame's base QP, the
    scalar R-lambda exponent beta and the offset clamp."""

    base_qp: int
    beta: float = DEFAULT_BETA
    clamp: int = 4

    def __post_init__(self):
        object.__setattr__(self, "base_qp", _qp_range(self.base_qp, "base_qp"))
        _check_beta(self.beta)
        object.__setattr__(self, "clamp", _qp_range(self.clamp, "clamp"))


@dataclass(frozen=True)
class BlockAllocation:
    """Per-block products of the pipeline, each a (blocks_y, blocks_x) array."""

    grid: BlockGrid
    base_qp: int
    ratio: np.ndarray         # normalized bit ratio, weighted mean 1
    dqp: np.ndarray           # integer offsets, |dqp| <= clamp, 0 <= base_qp + dqp <= 63

    def __post_init__(self):
        want = (self.grid.blocks_y, self.grid.blocks_x)
        for what, values in (("bit ratios", self.ratio), ("QP offsets", self.dqp)):
            if np.shape(values) != want:
                raise GridMismatchError(f"{what} shaped {np.shape(values)} for a "
                                        f"grid of {want} blocks")

    @property
    def lambda_scale(self) -> np.ndarray:
        return lambda_adapt(self.dqp)


@dataclass(frozen=True)
class LinearityReport:
    slope_through_origin: float
    r_squared: float
    n_blocks: int


def block_mean_step(step_map: StepMap, grid: BlockGrid) -> np.ndarray:
    """(blocks_y, blocks_x) mean step per block over the latent cells the
    block overlaps.

    Latent cell (i, j) covers the 16x16 pixel square at (16i, 16j) in
    row, column order; a full 64-px block therefore averages a 4x4 cell
    window, while edge blocks average only the cells they actually
    cover. The cells are zero-padded to whole blocks and summed here, as
    value / 16 and the mean scaled back by 16, so that finite steps
    cannot overflow the sum. Scaling by a power of two commutes with
    rounding, so this gives the plain mean's bits (short of subnormal
    cells, far below the EPS floor).
    """
    f, per = DOWNSAMPLE_FACTOR, BLOCK_SIZE // DOWNSAMPLE_FACTOR  # cells per block edge
    rows, cols = step_map.values.shape
    want = (-(-grid.height // f), -(-grid.width // f))
    if (rows, cols) != want:
        raise GridMismatchError(
            f"step map {cols}x{rows} does not match a {grid.width}x{grid.height} "
            f"frame (expected {want[1]}x{want[0]})")
    # cell values / 16 and a 1 per real cell, zero-padded to whole blocks
    cells = np.zeros((2, grid.blocks_y * per, grid.blocks_x * per))
    cells[0, :rows, :cols] = step_map.values / 16
    cells[1, :rows, :cols] = 1
    sums, counts = cells.reshape(2, grid.blocks_y, per, grid.blocks_x, per).sum(axis=(2, 4))
    return (sums / counts) * 16


def bit_ratios(qs: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Reciprocal steps normalized to pixel-weighted mean 1.

    qs is the (blocks_y, blocks_x) step mean per block, and so is the
    result. raw_k = 1 / max(qs_k, EPS); weights are block pixel counts,
    so the frame bit budget is preserved to first order even with
    partial edge blocks.
    """
    qs = np.asarray(qs, np.float64)
    weights = grid.pixel_counts().astype(np.float64)
    if qs.shape != weights.shape:
        raise GridMismatchError(
            f"step means shaped {qs.shape} for a grid of {weights.shape} blocks")
    if not np.all(np.isfinite(qs)):
        raise ValueError("step means must be finite")
    raw = 1.0 / np.maximum(qs, EPS)
    weighted_mean = float(np.dot(weights.ravel(), raw.ravel()) / weights.sum())
    return raw / weighted_mean


def qp_offset(ratio, beta: float, clamp: int) -> np.ndarray:
    """Integer QP offsets for bit ratios (scalars or arrays).

    round(N * beta * log2(r)) half away from zero, then clamped to
    [-clamp, +clamp]; an overflowing raw offset saturates, and a ratio
    of exactly 1 gives 0 whatever beta is. Ratios must be finite and
    positive, and beta and clamp as AllocConfig takes them.
    """
    ratio = np.asarray(ratio, np.float64)
    if not np.all(np.isfinite(ratio) & (ratio > 0)):
        raise ValueError("bit ratios must be finite and positive")
    _check_beta(beta)
    clamp = _qp_range(clamp, "clamp")
    log_r = np.log2(ratio)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.where(log_r == 0.0, 0.0, N_CONST * beta * log_r)
    return np.clip(np.trunc(raw + np.copysign(0.5, raw)), -clamp, clamp).astype(np.int64)


def lambda_adapt(dqp) -> np.ndarray:
    """Multiplier applied to the frame-level RD multiplier: 2^(dqp/N)."""
    return 2.0 ** (np.asarray(dqp) / N_CONST)


def build_allocation(step_map: StepMap, width: int, height: int,
                     cfg: AllocConfig) -> BlockAllocation:
    """Full chain from step map to per-block QP offsets and scales."""
    grid = BlockGrid(width, height)
    ratio = bit_ratios(block_mean_step(step_map, grid), grid)
    dqp = qp_offset(ratio, cfg.beta, cfg.clamp)
    return BlockAllocation(grid=grid, base_qp=cfg.base_qp, ratio=ratio,
                           dqp=np.clip(dqp, -cfg.base_qp, 63 - cfg.base_qp))


def linearity_fit(bits_per_block, qs) -> LinearityReport:
    """Through-origin fit of normalized bits against normalized 1/step.

    x_k = (1/qs_k) / mean(1/qs), y_k = bits_k / mean(bits); the slope is
    sum(xy)/sum(xx) and r^2 = 1 - SS_res/SS_tot (0 when SS_tot is 0).
    A slope near 1 means measured bits track the reciprocal step. The
    two arrays may have any shape, the same for both.
    """
    bits = np.asarray(bits_per_block, np.float64)
    qs = np.asarray(qs, np.float64)
    if bits.shape != qs.shape:
        raise ValueError(f"length mismatch: {bits.shape} bits vs {qs.shape} steps")
    bits, qs = bits.ravel(), qs.ravel()
    if bits.size < 2:
        raise ValueError("need at least 2 blocks to fit")
    if not np.all(np.isfinite(bits) & (bits >= 0)):
        raise ValueError("bit counts must be finite and non-negative")
    if bits.mean() <= 0:
        raise ValueError("mean bits must be positive")
    if not np.all(np.isfinite(qs) & (qs > 0)):
        raise ValueError("step means must be finite and positive")

    inv = 1.0 / qs
    x = inv / inv.mean()
    y = bits / bits.mean()
    slope = float(np.dot(x, y) / np.dot(x, x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearityReport(slope_through_origin=slope, r_squared=r_squared,
                           n_blocks=int(bits.size))
