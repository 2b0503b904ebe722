"""PPM image I/O, the gray plane the toy codec encodes, and the block grid.

Only binary PPM (P6, maxval 255) is read or written. The gray plane is
full-range BT.601 luma with fixed coefficients, computed as
floor(0.299 R + 0.587 G + 0.114 B + 0.5) in float64, so it is
bit-exact across platforms. That rounds the exact sum half up, except
at 3,464 of its 16,782 ties, which round down (see rgb_to_gray).
BlockGrid tiles a frame into the BLOCK_SIZE (64 px) blocks that QP
maps, lambda scales and bit counts are laid out on, each a (blocks_y,
blocks_x) array; the block size is fixed, not a parameter, and so is
DOWNSAMPLE_FACTOR, the 16-px edge of one step-map cell.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from ._fileio import atomic_write_bytes
from .errors import FormatError

BLOCK_SIZE = 64    # block edge in pixels: 4x4 step-map cells, 8x8 transform units
DOWNSAMPLE_FACTOR = 16    # step-map cell edge in pixels: the network's total stride

# one P6 header field, as Netpbm's pm_getc reads it: whitespace and "#"
# comments, each up to the next CR or LF, then the field's token (empty at
# the end of the data), which a "#" ends, then that comment if one follows;
# ([^\s#]*) always matches, so a match never backtracks
_PPM_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)(?:#[^\r\n]*)?")

__all__ = [
    "BLOCK_SIZE",
    "DOWNSAMPLE_FACTOR",
    "RasterImage",
    "BlockGrid",
    "load_ppm",
    "save_ppm",
    "rgb_to_gray",
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


@dataclass(frozen=True)
class BlockGrid:
    """Tiling of a frame into blocks_y rows of blocks_x BLOCK_SIZE squares.

    Blocks at the right and bottom edges may be smaller; the union of
    block extents tiles the frame exactly.
    """

    width: int
    height: int
    blocks_x: int = field(init=False)
    blocks_y: int = field(init=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be at least 1")
        object.__setattr__(self, "blocks_x", -(-self.width // BLOCK_SIZE))
        object.__setattr__(self, "blocks_y", -(-self.height // BLOCK_SIZE))

    @property
    def n_blocks(self) -> int:
        return self.blocks_x * self.blocks_y

    def pixel_counts(self) -> np.ndarray:
        """(blocks_y, blocks_x) per-block pixel counts (edge blocks are smaller)."""
        ws = np.minimum(BLOCK_SIZE, self.width - np.arange(self.blocks_x) * BLOCK_SIZE)
        hs = np.minimum(BLOCK_SIZE, self.height - np.arange(self.blocks_y) * BLOCK_SIZE)
        return (hs[:, None] * ws[None, :]).astype(np.int64)

    def block_sums(self, cells: np.ndarray, cell: int) -> np.ndarray:
        """Per-block sums of (..., rows, cols) cells of cell px (a divisor of
        BLOCK_SIZE), zero-padded to whole blocks: (..., blocks_y, blocks_x)."""
        per = BLOCK_SIZE // cell
        *lead, rows, cols = cells.shape
        padded = np.zeros((*lead, self.blocks_y * per, self.blocks_x * per), cells.dtype)
        padded[..., :rows, :cols] = cells
        return padded.reshape(*lead, self.blocks_y, per, self.blocks_x, per).sum(axis=(-3, -1))


def load_ppm(path: str | os.PathLike) -> RasterImage:
    """Load a binary P6 portable pixmap with maxval 255.

    The header is the magic P6 and a whitespace byte, then width, height
    and maxval as decimal tokens. Before each token may come any run of
    ASCII whitespace and "#" comments, each running to the next carriage
    return (CR) or line feed (LF), and a "#" right after a token starts
    such a comment, as in Netpbm. Exactly one whitespace byte follows
    maxval, or its comment; the pixel payload starts after it.
    Distinct errors for a missing file, wrong magic, a truncated or
    non-numeric header, unsupported maxval, a truncated pixel payload,
    and bytes after the payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if not data.startswith(b"P6"):
        magic = data[:2].decode("ascii", "replace")
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P6")
    if len(data) > 2 and not data[2:3].isspace():
        magic = data[:3].decode("ascii", "replace")
        raise FormatError(f"{path}: bad magic {magic!r}, expected P6 then whitespace")

    fields, pos = [], 2
    for _ in range(3):
        match = _PPM_FIELD.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise FormatError(f"{path}: truncated header")
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} not supported, expected 255")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")

    pos += 1  # the single whitespace byte after maxval or its comment
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
    """Full-range luma plane: floor(0.299 R + 0.587 G + 0.114 B + 0.5) in float64.

    This rounds the exact weighted sum half up, with one exception: at
    3,464 of the 16,782 RGB triples whose exact sum ends in .5, the
    float64 sum falls just below the tie and rounds down, so (0, 36, 12)
    sums to 22.5 but gives 22. This is the plane the toy codec encodes
    and the one that metrics --luma-only scores; black maps to 0 and
    white to 255. A single-channel image gives a copy of its one plane.
    """
    if img.channels == 1:
        return img.pixels[:, :, 0].copy()
    p = img.pixels.astype(np.float64)
    y = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    return np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8)
