"""Golden corpus: the SHA-256 of each QPMAP that qpmap writes, pinned
across commits and hosts.

The input QSMAPs come from a fixed integer recipe, not numpy's random
streams, so every numpy version reads the same steps. Each step is a
multiple of 1/64, which repr writes and float() reads back exactly. A
QPMAP holds integers, so its bytes can only move when a raw offset
3*beta*log2(r) crosses a rounding half; the corpus keeps every raw offset
well away from one, so a one-ulp log2 or sum difference on another host
cannot flip a pinned offset. LSCALE and the manifest are not pinned:
their bytes depend on pow and on paths.

A PR that changes a QPMAP on purpose updates golden.json and lists each
changed entry and its reason in CHANGES.md.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from qpalloc.alloc import AllocConfig, build_allocation
from qpalloc.cli import main
from qpalloc.stepnet import read_step_map

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())["qpmap"]

# (grid columns, grid rows, frame width and height, or None for 16 x the grid)
SIZES = [(1, 1, None), (3, 2, None), (17, 5, None), (23, 16, (360, 248)),
         (120, 68, (1920, 1080)), (240, 135, None)]
BASE_QPS = [0, 22, 37, 63]
BETAS = [-1.367, 1.367, -0.5]
CLAMPS = [0, 4, 63]

# a raw offset this close to a rounding half could round the other way on
# another host; the recipe keeps every one at least 2.8e-4 away
MIN_HALF_DISTANCE = 1e-9


def step(i: int, j: int) -> float:
    """The step of cell (row i, column j): a multiple of 1/64 in [1/64, 509/64]."""
    return (1 + (131 * i + 71 * j + i * j) % 509) / 64


def write_qsmap(path: Path, cols: int, rows: int) -> None:
    lines = ["QSMAP 1", f"{cols} {rows}"]
    lines += [" ".join(repr(step(i, j)) for j in range(cols)) for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")


def size_name(cols, rows, frame) -> str:
    return f"{cols}x{rows}" + (f"@{frame[0]}x{frame[1]}" if frame else "")


@pytest.mark.parametrize("cols,rows,frame", SIZES, ids=[size_name(*size) for size in SIZES])
def test_qpmap_bytes_match_the_golden_corpus(tmp_path, capsys, cols, rows, frame):
    qsmap = tmp_path / "steps.qsmap"
    write_qsmap(qsmap, cols, rows)
    width, height = frame or (16 * cols, 16 * rows)
    size_args = ["--width", str(width), "--height", str(height)] if frame else []

    ratios = build_allocation(read_step_map(qsmap), width, height,
                              AllocConfig(base_qp=22)).ratio.ravel().tolist()
    for beta in BETAS:
        raw = [3 * beta * math.log2(r) for r in ratios]
        nearest = min(abs(abs(x) % 1 - 0.5) for x in raw)
        assert nearest >= MIN_HALF_DISTANCE, f"beta {beta}: a raw offset within {nearest} of a half"

    mismatched = {}
    for base_qp in BASE_QPS:
        for beta in BETAS:
            for clamp in CLAMPS:
                out = tmp_path / "out.qpmap"
                argv = ["qpmap", "--stepmap", str(qsmap), *size_args, "--base-qp", str(base_qp),
                        "--beta", repr(beta), "--clamp", str(clamp), str(out)]
                assert main(argv) == 0, capsys.readouterr().err
                name = f"{size_name(cols, rows, frame)} qp{base_qp} beta{beta} clamp{clamp}"
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                if GOLDEN.get(name) != digest:
                    mismatched[name] = digest
    assert not mismatched, "QPMAP bytes differ from golden.json; new hashes:\n" + "\n".join(
        f'  "{name}": "{digest}",' for name, digest in mismatched.items())
