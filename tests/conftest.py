import numpy as np
import pytest

from qpalloc.alloc import BlockAllocation
from qpalloc.imageio import RasterImage
from qpalloc.stepnet import make_random_weights


@pytest.fixture(scope="session")
def fixture_weights():
    """Small seeded instance of the reference layer plan (8 channels)."""
    return make_random_weights(seed=7, width=8)


def allocation_with_offsets(grid, base_qp, dqp):
    """A BlockAllocation that carries only block QP offsets, as
    `simulate --qpmap` builds one from a QPMAP: the ratio map is flat.
    dqp is the (blocks_y, blocks_x) offset grid."""
    dqp = np.asarray(dqp, np.int64)
    return BlockAllocation(grid=grid, base_qp=base_qp, ratio=np.ones(dqp.shape), dqp=dqp)


def textured_pixels(height: int, width: int, seed: int = 0) -> np.ndarray:
    """Deterministic test content: gradients, sinusoids, and noise, so
    different blocks carry genuinely different detail."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base = (96.0 + 60.0 * np.sin(xx / 9.0) * np.cos(yy / 13.0)
            + 64.0 * (xx + yy) / (width + height))
    detail = rng.normal(0.0, 22.0, (height, width)) * (0.25 + 0.75 * (xx / max(width - 1, 1)))
    plane = np.clip(base + detail, 0, 255)
    pixels = np.stack([plane,
                       np.clip(255.0 - plane + rng.normal(0, 8, plane.shape), 0, 255),
                       np.clip(0.5 * plane + 64.0, 0, 255)], axis=2)
    return np.floor(pixels + 0.5).astype(np.uint8)


def block_contrast_pixels(size: int, seed: int = 33) -> np.ndarray:
    """64-aligned tiles alternating flat, gradient, and heavy noise, so
    per-block statistics (and therefore step maps) genuinely differ."""
    rng = np.random.default_rng(seed)
    out = np.zeros((size, size, 3))
    for by in range(size // 64):
        for bx in range(size // 64):
            kind = (by + bx) % 3
            y0, x0 = by * 64, bx * 64
            if kind == 0:
                tile = np.full((64, 64), 60.0 + 10 * ((by * 7 + bx * 3) % 12))
            elif kind == 1:
                yy, xx = np.mgrid[0:64, 0:64]
                tile = 40.0 + 2.4 * xx + 0.8 * yy
            else:
                tile = rng.uniform(0, 255, (64, 64))
            out[y0:y0 + 64, x0:x0 + 64, 0] = tile
            out[y0:y0 + 64, x0:x0 + 64, 1] = np.clip(tile * 0.8 + 20, 0, 255)
            out[y0:y0 + 64, x0:x0 + 64, 2] = np.clip(255.0 - tile, 0, 255)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def detail_tile_luma(height: int, width: int, seed: int) -> np.ndarray:
    """A smooth gray picture plus noise whose amplitude (0, 6, 20 or 56)
    is drawn per 64-px tile, so blocks range from flat to busy."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    smooth = 128.0 + 60.0 * np.sin(xx / 97.0 + seed) * np.cos(yy / 71.0)
    amp = rng.choice([0.0, 6.0, 20.0, 56.0], (-(-height // 64), -(-width // 64)))
    amp = np.kron(amp, np.ones((64, 64)))[:height, :width]
    luma = smooth + amp * rng.standard_normal((height, width))
    return np.clip(np.floor(luma + 0.5), 0, 255).astype(np.uint8)


@pytest.fixture()
def textured_image():
    return RasterImage(pixels=textured_pixels(128, 128, seed=11))


@pytest.fixture()
def textured_luma():
    return textured_pixels(128, 128, seed=5)[:, :, 0].copy()
