"""Tagged block-grid text files: QPMAP, LSCALE, BITS.

Each is the tagged grid layout of _fileio.read_grid/write_grid, which
QSMAP step maps share, with two more header integers:

    <TAG> 1
    BLOCKS_X BLOCKS_Y BLOCK_SIZE BASE_QP
    <BLOCKS_Y rows of BLOCKS_X values>

QPMAP and BITS carry integers, LSCALE finite reals, and the writer
refuses anything else (for QPMAP and BITS, any float array). BASE_QP is
the frame's base QP in every tag: the QP that QPMAP offsets and LSCALE
scales apply to, and the QP that BITS were counted at. Writers pass
imageio.BLOCK_SIZE (64); the reader takes any positive size, and the
CLI rejects a grid that is not the frame's partition. This module adds
the tags, the BLOCK_SIZE and BASE_QP fields and the GridFile record.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np

from ._fileio import read_grid, write_grid
from .errors import FormatError

INT_TAGS = frozenset({"QPMAP", "BITS"})
KNOWN_TAGS = INT_TAGS | {"LSCALE"}


@dataclass(frozen=True)
class GridFile:
    tag: str
    block_size: int
    base_qp: int
    values: np.ndarray  # (blocks_y, blocks_x); int64 or float64 by tag


def write_grid_file(path: str | os.PathLike, tag: str, block_size: int,
                    base_qp: int, values: np.ndarray) -> None:
    if tag not in KNOWN_TAGS:
        raise ValueError(f"unknown grid tag {tag!r}")
    try:  # as alloc reads QPs: True is written as 1, a float is refused
        size, qp = operator.index(block_size), operator.index(base_qp)
    except TypeError:
        size = 0
    if size < 1:
        raise ValueError(f"block size {block_size!r} must be a positive integer "
                         f"and base QP {base_qp!r} an integer")
    write_grid(path, tag, (size, qp), values, integer=tag in INT_TAGS)


def read_grid_file(path: str | os.PathLike, expect_tag: str | None = None) -> GridFile:
    tags = KNOWN_TAGS if expect_tag is None else {expect_tag}
    if not tags <= KNOWN_TAGS:
        raise ValueError(f"unknown grid tag {expect_tag!r}")
    tag, (block_size, base_qp), values = read_grid(path, tags, 2, INT_TAGS)
    if block_size < 1:
        raise FormatError(f"{path}: bad block size {block_size}")
    return GridFile(tag=tag, block_size=block_size, base_qp=base_qp, values=values)
