"""Tagged block-grid text files: QPMAP, LSCALE, BITS.

All three share one layout so a single parser covers them:

    <TAG> 1
    BLOCKS_X BLOCKS_Y BLOCK_SIZE BASE_QP
    <BLOCKS_Y rows of BLOCKS_X values>

QPMAP and BITS carry integers, LSCALE finite reals. BASE_QP is the
frame's base QP in every tag: the QP that QPMAP offsets and LSCALE
scales apply to, and the QP that BITS were counted at. Writers pass
imageio.BLOCK_SIZE (64); the reader takes any positive size, and the
CLI rejects a grid that is not the frame's partition.
Writing is canonical (single spaces, trailing newline), so files
round-trip byte-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text, parse_ints, parse_reals, read_text
from .errors import FormatError

INT_TAGS = frozenset({"QPMAP", "BITS"})
FLOAT_TAGS = frozenset({"LSCALE"})
KNOWN_TAGS = INT_TAGS | FLOAT_TAGS


@dataclass(frozen=True)
class GridFile:
    tag: str
    blocks_x: int
    blocks_y: int
    block_size: int
    base_qp: int
    values: np.ndarray  # (blocks_y, blocks_x); int64 or float64 by tag


def write_grid_file(path: str | os.PathLike, tag: str, block_size: int,
                    base_qp: int, values: np.ndarray) -> None:
    if tag not in KNOWN_TAGS:
        raise ValueError(f"unknown grid tag {tag!r}")
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("grid values must be 2-D (blocks_y, blocks_x)")
    by, bx = values.shape
    lines = [f"{tag} 1", f"{bx} {by} {block_size} {base_qp}"]
    if tag in INT_TAGS:
        for row in values:
            lines.append(" ".join(str(int(v)) for v in row))
    else:
        for row in values:
            lines.append(" ".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_grid_file(path: str | os.PathLike, expect_tag: str | None = None) -> GridFile:
    tokens = read_text(path).split()
    if len(tokens) < 6:
        raise FormatError(f"{path}: truncated grid file")
    tag, version = tokens[0], tokens[1]
    if tag not in KNOWN_TAGS:
        raise FormatError(f"{path}: unknown tag {tag!r}")
    if version != "1":
        raise FormatError(f"{path}: unsupported {tag} version {version!r}")
    if expect_tag is not None and tag != expect_tag:
        raise FormatError(f"{path}: expected a {expect_tag} file, found {tag}")
    try:
        bx, by, block_size, base_qp = parse_ints(tokens[2:6])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header line") from exc
    if bx < 1 or by < 1 or block_size < 1:
        raise FormatError(f"{path}: bad grid geometry {bx}x{by} block {block_size}")
    body = tokens[6:]
    if len(body) != bx * by:
        raise FormatError(f"{path}: expected {bx * by} values, found {len(body)}")
    try:
        if tag in INT_TAGS:
            values = np.array(parse_ints(body), dtype=np.int64)
        else:
            values = parse_reals(body)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc} in the grid") from exc
    except OverflowError as exc:
        raise FormatError(f"{path}: grid value outside the 64-bit integer range") from exc
    return GridFile(tag=tag, blocks_x=bx, blocks_y=by, block_size=block_size,
                    base_qp=base_qp, values=values.reshape(by, bx))
