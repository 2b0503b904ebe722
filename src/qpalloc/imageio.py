"""Image loading, color conversion, and block partitioning.

Only binary PPM (P6, maxval 255) is accepted as input. The YUV 4:2:0
conversion is BT.601 limited range with fixed coefficients and half-up
rounding, so outputs are bit-exact across platforms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._fileio import atomic_write_bytes
from .errors import FormatError

__all__ = [
    "RasterImage",
    "YuvFrame",
    "BlockGrid",
    "load_ppm",
    "save_ppm",
    "rgb_to_yuv420",
    "rgb_to_gray",
    "write_yuv420",
    "block_partition",
]


@dataclass(frozen=True)
class RasterImage:
    """8-bit raster image, pixels shaped (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if not isinstance(p, np.ndarray) or p.dtype != np.uint8 or p.ndim != 3:
            raise ValueError("pixels must be a (h, w, c) uint8 array")
        if p.shape[2] not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {p.shape[2]}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image dimensions must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    @property
    def samples(self) -> np.ndarray:
        """Row-major interleaved view of the sample values."""
        return self.pixels.reshape(-1)


@dataclass(frozen=True)
class YuvFrame:
    """Planar 4:2:0 frame, limited range (Y in [16,235], C in [16,240])."""

    luma: np.ndarray
    chroma_u: np.ndarray
    chroma_v: np.ndarray
    range_tag: str = "limited"

    def __post_init__(self):
        h, w = self.luma.shape
        ch, cw = (h + 1) // 2, (w + 1) // 2
        if self.chroma_u.shape != (ch, cw) or self.chroma_v.shape != (ch, cw):
            raise ValueError("chroma planes must be ceil(dims/2) of the luma plane")
        if self.range_tag != "limited":
            raise ValueError("only limited-range frames are supported")


@dataclass(frozen=True)
class BlockGrid:
    """Row-major tiling of a frame into block_size squares.

    Blocks at the right and bottom edges may be smaller; the union of
    block extents tiles the frame exactly.
    """

    width: int
    height: int
    block_size: int
    blocks_x: int = field(init=False)
    blocks_y: int = field(init=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.block_size < 1:
            raise ValueError("width, height, and block_size must be at least 1")
        object.__setattr__(self, "blocks_x", -(-self.width // self.block_size))
        object.__setattr__(self, "blocks_y", -(-self.height // self.block_size))

    @property
    def n_blocks(self) -> int:
        return self.blocks_x * self.blocks_y

    def block_extent(self, k: int) -> tuple[int, int, int, int]:
        """Pixel extent (x0, y0, w, h) of block index k (row-major)."""
        by, bx = divmod(k, self.blocks_x)
        x0 = bx * self.block_size
        y0 = by * self.block_size
        return (x0, y0,
                min(self.block_size, self.width - x0),
                min(self.block_size, self.height - y0))

    def pixel_counts(self) -> np.ndarray:
        """Per-block pixel counts, row-major (edge blocks are smaller)."""
        ws = np.minimum(self.block_size,
                        self.width - np.arange(self.blocks_x) * self.block_size)
        hs = np.minimum(self.block_size,
                        self.height - np.arange(self.blocks_y) * self.block_size)
        return (hs[:, None] * ws[None, :]).reshape(-1).astype(np.int64)


def block_partition(width: int, height: int, block_size: int = 64) -> BlockGrid:
    """Tile a width x height frame into a row-major grid of blocks."""
    return BlockGrid(width=width, height=height, block_size=block_size)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def load_ppm(path: str | os.PathLike) -> RasterImage:
    """Load a binary P6 portable pixmap with maxval 255.

    Distinct errors for a missing file, wrong magic, unsupported maxval,
    a truncated pixel payload, and bytes after the payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if not data.startswith(b"P6"):
        magic = data[:2].decode("ascii", "replace")
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P6")

    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} not supported, expected 255")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")

    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    payload = data[pos:]
    if len(payload) < expected:
        raise FormatError(
            f"{path}: truncated payload, expected {expected} bytes "
            f"but found {len(payload)}")
    if len(payload) > expected:
        raise FormatError(
            f"{path}: {len(payload) - expected} bytes after the {expected}-byte "
            f"pixel payload")
    pixels = np.frombuffer(payload, np.uint8).reshape(height, width, 3).copy()
    return RasterImage(pixels=pixels)


def save_ppm(img: RasterImage, path: str | os.PathLike) -> None:
    """Write a canonical P6 file (single-channel images are replicated)."""
    pixels = img.pixels
    if img.channels == 1:
        pixels = np.repeat(pixels, 3, axis=2)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())


def rgb_to_gray(img: RasterImage) -> np.ndarray:
    """Full-range luma plane: round(0.299 R + 0.587 G + 0.114 B).

    This is the plane fed to the toy codec; black maps to 0, unlike the
    limited-range Y of rgb_to_yuv420.
    """
    if img.channels == 1:
        return img.pixels[:, :, 0].copy()
    p = img.pixels.astype(np.float64)
    y = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    return np.clip(_round_half_up(y), 0, 255).astype(np.uint8)


def rgb_to_yuv420(img: RasterImage) -> YuvFrame:
    """BT.601 limited-range 4:2:0 conversion.

    Y = 16 + (65.481 R + 128.553 G + 24.966 B) / 255, chroma analogous;
    chroma is box-averaged 2x2 at full precision, then everything is
    rounded half-up and clipped to [16,235] / [16,240].
    """
    if img.channels != 3:
        raise ValueError("rgb_to_yuv420 requires a 3-channel image")
    p = img.pixels.astype(np.float64)
    r, g, b = p[:, :, 0], p[:, :, 1], p[:, :, 2]
    y = 16.0 + (65.481 * r + 128.553 * g + 24.966 * b) / 255.0
    u = 128.0 + (-37.797 * r - 74.203 * g + 112.0 * b) / 255.0
    v = 128.0 + (112.0 * r - 93.786 * g - 18.214 * b) / 255.0

    luma = np.clip(_round_half_up(y), 16, 235).astype(np.uint8)
    cu = np.clip(_round_half_up(_box_down2(u)), 16, 240).astype(np.uint8)
    cv = np.clip(_round_half_up(_box_down2(v)), 16, 240).astype(np.uint8)
    return YuvFrame(luma=luma, chroma_u=cu, chroma_v=cv)


def _box_down2(plane: np.ndarray) -> np.ndarray:
    """2x2 box average; odd edges replicate, which equals averaging the
    samples that exist."""
    h, w = plane.shape
    if h % 2 or w % 2:
        plane = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge")
    return (plane[0::2, 0::2] + plane[0::2, 1::2]
            + plane[1::2, 0::2] + plane[1::2, 1::2]) / 4.0


def write_yuv420(frame: YuvFrame, path: str | os.PathLike) -> None:
    """Planar 8-bit Y, U, V, each row-major, concatenated."""
    atomic_write_bytes(path, frame.luma.tobytes()
                       + frame.chroma_u.tobytes() + frame.chroma_v.tobytes())
