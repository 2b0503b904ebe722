"""Golden corpus: the SHA-256 of each QPMAP that qpmap writes, pinned
across commits and hosts, from QSMAP text and from images.

The input QSMAPs come from a fixed integer recipe, not numpy's random
streams, so every numpy version reads the same steps. Each step is a
multiple of 1/64, which repr writes and float() reads back exactly. A
QPMAP holds integers, so its bytes can only move when a raw offset
3*beta*log2(r) crosses a rounding half; the corpus keeps every raw offset
well away from one, so a one-ulp log2 or sum difference on another host
cannot flip a pinned offset. LSCALE and the manifest are not pinned:
their bytes depend on pow and on paths.

The image chain runs stepmap, then qpmap, on frames from an integer
recipe with make_random_weights' seeded plans. Its step maps come from
float32 products, whose bits may differ between BLAS builds and CPUs, so
the test certifies each pinned map: every raw offset lies at least
CHAIN_MARGIN_FACTOR times the float32 deviation away from any rounding
half that can decide a clamped offset. The deviation is measured against
the float64 pass of _oracles.reference_step_map. A chain hash that fails
on another host is then a defect, not rounding; a case that fails the
margin is replaced, and the factor is never lowered to admit it.

A PR that changes a QPMAP on purpose updates golden.json and lists each
changed entry and its reason in CHANGES.md.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qpalloc.alloc import AllocConfig, build_allocation
from qpalloc.cli import main
from qpalloc.imageio import RasterImage, save_ppm
from qpalloc.stepnet import StepMap, make_random_weights, read_step_map, save_weights

from _oracles import reference_step_map

_CORPUS = json.loads((Path(__file__).parent / "golden.json").read_text())
GOLDEN = _CORPUS["qpmap"]
CHAIN = _CORPUS["chain"]

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


# (plan width, weights seed, frame width, frame height); the ragged
# 131x77 frame pads every layer on both sides, and reference_step_map's
# fixed-order loop keeps the width-64 frames small
CHAIN_CASES = [(16, 0, 131, 77), (16, 1, 256, 192), (64, 2, 131, 77), (64, 3, 160, 96)]
CHAIN_BETAS = [-1.367, -4.0]
CHAIN_CLAMPS = [1, 4]
CHAIN_MARGIN_FACTOR = 20


def chain_frame(width: int, height: int) -> np.ndarray:
    """(height, width, 3) uint8 pixels from integer arithmetic alone: a
    ramp per channel plus a hashed texture whose amplitude changes every
    32 px, so blocks differ in detail."""
    y, x, c = np.ogrid[:height, :width, :3]
    texture = (7919 * x + 104729 * y + 1299709 * c + 31 * x * y) % 211 - 105
    amplitude = (x // 32 * 3 + y // 32 * 5) % 4
    ramp = (2 * x + 3 * y + 40 * c) % 160 + 48
    return np.clip(ramp + amplitude * texture // 3, 0, 255).astype(np.uint8)


def chain_name(width, seed, w, h, beta, clamp) -> str:
    return f"w{width} seed{seed} {w}x{h} qp32 beta{beta} clamp{clamp}"


def nearest_half_distance(raw: np.ndarray, clamp: int) -> float:
    """Distance of the raw offsets from the nearest rounding half that
    can change a clamped offset: k + 1/2 with |k + 1/2| < clamp."""
    half = np.clip(np.floor(raw) + 0.5, 0.5 - clamp, clamp - 0.5)
    return float(np.abs(raw - half).min())


def test_nearest_half_distance_ignores_halves_beyond_the_clamp():
    raw = np.array([0.25, -1.375, 1.25, 7.0])
    assert nearest_half_distance(raw, 4) == 0.125
    # with clamp 1 only the halves at +-0.5 decide: 7 is 6.5 away, 1.25 0.75
    assert nearest_half_distance(raw[2:], 1) == 0.75


@pytest.mark.parametrize("width,seed,w,h", CHAIN_CASES,
                         ids=[f"w{c[0]}-seed{c[1]}-{c[2]}x{c[3]}" for c in CHAIN_CASES])
def test_image_to_qpmap_chain_matches_the_golden_corpus(tmp_path, capsys, width, seed, w, h):
    weights = make_random_weights(seed, width=width)
    pixels = chain_frame(w, h)
    save_ppm(RasterImage(pixels=pixels), tmp_path / "frame.ppm")
    save_weights(weights, tmp_path / "plan.qsnw")
    qsmap = tmp_path / "frame.qsmap"
    argv = ["stepmap", str(tmp_path / "frame.ppm"), str(tmp_path / "plan.qsnw"), str(qsmap)]
    assert main(argv) == 0, capsys.readouterr().err

    steps = {"float32": read_step_map(qsmap),
             "float64": StepMap(values=reference_step_map(pixels, weights))}
    mismatched = {}
    for beta in CHAIN_BETAS:
        raw = {kind: 3 * beta * np.log2(build_allocation(step_map, w, h, AllocConfig(32)).ratio)
               for kind, step_map in steps.items()}
        deviation = float(np.abs(raw["float32"] - raw["float64"]).max())
        for clamp in CHAIN_CLAMPS:
            name = chain_name(width, seed, w, h, beta, clamp)
            margin = nearest_half_distance(raw["float64"], clamp)
            assert margin > 0 and margin >= CHAIN_MARGIN_FACTOR * deviation, (
                f"{name}: a raw offset {margin:.3g} from a rounding half, "
                f"float32 deviation {deviation:.3g}")
            out = tmp_path / "out.qpmap"
            argv = ["qpmap", "--stepmap", str(qsmap), "--width", str(w), "--height", str(h),
                    "--base-qp", "32", "--beta", repr(beta), "--clamp", str(clamp), str(out)]
            assert main(argv) == 0, capsys.readouterr().err
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if CHAIN.get(name) != digest:
                mismatched[name] = digest
    assert not mismatched, "QPMAP bytes differ from golden.json; new hashes:\n" + "\n".join(
        f'  "{name}": "{digest}",' for name, digest in mismatched.items())
