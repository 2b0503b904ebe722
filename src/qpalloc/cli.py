"""Command-line surface: stepmap, qpmap, metrics, bdrate, simulate.

Every command is deterministic: the same inputs and flags produce
byte-identical outputs (run manifests carry no timestamps). Each output
file is replaced whole, in the order written (qpmap: QPMAP, .lscale,
.manifest.json; simulate: .rd.csv, .bits, .recon.ppm); on exit 4 the
files before the named one may already be new. A QPMAP laid over a
frame (simulate --qpmap) must be its 64-px partition (exit 5).

At import this module loads only the standard library and
qpalloc.errors; each command imports the modules it runs. So --help,
--version and usage errors load no numpy. Before a command loads numpy,
main sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to
1 where the environment does not set them already.

Exit codes:
    0  success
    2  unreadable or malformed input (parse errors, bad combinations)
    3  inference failure (weights incompatible with the input)
    4  output could not be written
    5  block-grid mismatch between artifacts
    6  rate-quality curves do not overlap
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import GridMismatchError, InferenceError, OutputIOError, OverlapError

EXIT_BAD_INPUT = 2
EXIT_INFERENCE = 3
EXIT_OUTPUT_IO = 4
EXIT_GRID_MISMATCH = 5
EXIT_NO_OVERLAP = 6

# alloc.DEFAULT_BETA, written out so that building the parser does not
# import alloc; a test pins the two equal.
_DEFAULT_BETA = -1.367


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# stepmap
# ---------------------------------------------------------------------------

def _cmd_stepmap(args) -> int:
    from . import stepnet
    from .imageio import load_ppm
    img = load_ppm(args.image)
    weights = stepnet.load_weights(args.weights)
    step_map = stepnet.infer_step_map(img, weights)
    stepnet.write_step_map(step_map, args.out)
    rows, cols = step_map.values.shape
    print(f"stepmap {cols}x{rows} "
          f"min {_fmt(step_map.values.min())} max {_fmt(step_map.values.max())}")
    return 0


# ---------------------------------------------------------------------------
# qpmap
# ---------------------------------------------------------------------------

def _cmd_qpmap(args) -> int:
    from . import alloc, gridfile, stepnet
    from ._fileio import atomic_write_text
    from .imageio import BLOCK_SIZE, DOWNSAMPLE_FACTOR
    step_map = stepnet.read_step_map(args.stepmap)
    rows, cols = step_map.values.shape
    width = cols * DOWNSAMPLE_FACTOR if args.width is None else args.width
    height = rows * DOWNSAMPLE_FACTOR if args.height is None else args.height
    cfg = alloc.AllocConfig(base_qp=args.base_qp, beta=args.beta, clamp=args.clamp)

    allocation = alloc.build_allocation(step_map, width, height, cfg)
    grid = allocation.grid

    lscale_path = args.out + ".lscale"
    manifest_path = args.out + ".manifest.json"
    gridfile.write_grid_file(args.out, "QPMAP", BLOCK_SIZE, cfg.base_qp, allocation.dqp)
    gridfile.write_grid_file(lscale_path, "LSCALE", BLOCK_SIZE, cfg.base_qp,
                             allocation.lambda_scale)

    manifest = {
        "command": "qpmap",
        "version": __version__,
        "inputs": {"stepmap": args.stepmap},
        "config": {
            "base_qp": cfg.base_qp,
            "beta": cfg.beta,
            "clamp": cfg.clamp,
            "n_const": alloc.N_CONST,
            "block_size": BLOCK_SIZE,
            "eps": alloc.EPS,
        },
        "frame": {"width": width, "height": height},
        "outputs": [args.out, lscale_path, manifest_path],
    }
    atomic_write_text(manifest_path,
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"qpmap {grid.blocks_x}x{grid.blocks_y} base {cfg.base_qp} "
          f"offsets [{allocation.dqp.min()}, {allocation.dqp.max()}]")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _cmd_metrics(args) -> int:
    from . import metrics
    from .imageio import RasterImage, load_ppm, rgb_to_gray
    ref = load_ppm(args.reference)
    test = load_ppm(args.test)
    if args.luma_only:
        ref, test = (RasterImage(pixels=rgb_to_gray(img)[:, :, None]) for img in (ref, test))
    report = metrics.metric_report(ref, test)
    print(",".join([args.test, _fmt(report.psnr), _fmt(report.ssim), _fmt(report.ms_ssim)]))
    return 0


# ---------------------------------------------------------------------------
# bdrate
# ---------------------------------------------------------------------------

def _cmd_bdrate(args) -> int:
    from . import bdrate
    anchor = bdrate.read_rd_csv(args.anchor)
    test = bdrate.read_rd_csv(args.test)
    lo, hi = bdrate.quality_overlap(anchor, test)
    result = {
        "bd_rate_percent": bdrate.bd_rate(anchor, test),
        "bd_quality": bdrate.bd_quality(anchor, test),
        "overlap": [lo, hi],
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    import numpy as np

    from . import alloc, gridfile, toysim
    from ._fileio import atomic_write_text
    from .imageio import BLOCK_SIZE, BlockGrid, RasterImage, load_ppm, rgb_to_gray, save_ppm
    img = load_ppm(args.image)
    luma = rgb_to_gray(img)
    grid = BlockGrid(img.width, img.height)

    if args.qpmap:
        qpm = gridfile.read_grid_file(args.qpmap, expect_tag="QPMAP")
        base_qp = qpm.base_qp
        rows, cols = qpm.values.shape
        if (cols, rows, qpm.block_size) != (grid.blocks_x, grid.blocks_y, BLOCK_SIZE):
            raise GridMismatchError(
                f"{args.qpmap}: grid {cols}x{rows} "
                f"block {qpm.block_size} does not match the "
                f"{grid.blocks_x}x{grid.blocks_y} block {BLOCK_SIZE} frame partition")
        allocation = alloc.BlockAllocation(
            grid=grid, base_qp=base_qp, ratio=np.ones(qpm.values.shape), dqp=qpm.values)
        point, recon = toysim.encode_image(luma, allocation)
    else:
        base_qp = args.qp
        point, recon = toysim.encode_image(luma, base_qp)

    csv_path = args.out_prefix + ".rd.csv"
    bits_path = args.out_prefix + ".bits"
    recon_path = args.out_prefix + ".recon.ppm"
    atomic_write_text(csv_path, "rate_bpp,quality\n"
                      f"{_fmt(point.rate)},{_fmt(point.quality)}\n")
    gridfile.write_grid_file(bits_path, "BITS", BLOCK_SIZE, base_qp, point.per_block_bits)
    save_ppm(RasterImage(pixels=recon[:, :, None]), recon_path)
    print(f"rate_bpp {_fmt(point.rate)} psnr {_fmt(point.quality)}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpalloc",
        description="Derive per-block QP offset maps from quantization-step "
                    "maps, evaluate quality metrics and BD-rate, and check "
                    "rate effects with a toy DCT codec.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stepmap", help="run step-map inference on an image")
    p.add_argument("image", help="input PPM (P6)")
    p.add_argument("weights", help="QSNW2 weight file")
    p.add_argument("out", help="output QSMAP path")
    p.set_defaults(func=_cmd_stepmap)

    p = sub.add_parser("qpmap", help="derive a QP offset map from a step map")
    p.add_argument("--stepmap", required=True,
                   help="QSMAP file (write one from an image with stepmap)")
    p.add_argument("--width", type=int, help="frame width (default: 16 x grid width)")
    p.add_argument("--height", type=int, help="frame height (default: 16 x grid height)")
    p.add_argument("--base-qp", type=int, required=True, help="frame base QP (0-63)")
    p.add_argument("--beta", type=float, default=_DEFAULT_BETA,
                   help="R-lambda model exponent (default %(default)s)")
    p.add_argument("--clamp", type=int, default=4,
                   help="max |QP offset| (default %(default)s)")
    p.add_argument("out", help="output QPMAP path (companion .lscale and "
                   ".manifest.json are written next to it)")
    p.set_defaults(func=_cmd_qpmap)

    p = sub.add_parser(
        "metrics", help="PSNR/SSIM/MS-SSIM for an image pair (176 px per side or more)",
        description="Score a test image against its reference. Both images "
                    "need at least 176 px per side, the minimum for MS-SSIM's "
                    "five scales (SSIM alone needs 11 px); smaller pairs exit 2.")
    p.add_argument("reference", help="reference PPM")
    p.add_argument("test", help="test PPM")
    p.add_argument("--luma-only", action="store_true",
                   help="score the full-range gray plane that simulate encodes "
                   "instead of RGB channels")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bdrate", help="BD-rate/quality between two RD CSVs")
    p.add_argument("anchor", help="anchor curve CSV (rate_bpp,quality)")
    p.add_argument("test", help="test curve CSV")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("simulate", help="toy-codec encode under a QP map")
    p.add_argument("image", help="input PPM")
    qp = p.add_mutually_exclusive_group()
    qp.add_argument("--qpmap", help="QPMAP file; omit for a flat scalar QP")
    # a string default, which argparse converts only when --qp is absent:
    # an int 32 would be the very object that "--qp 32" parses to, and
    # argparse does not count an option given at its default as a
    # conflict with --qpmap
    qp.add_argument("--qp", type=int, default="32", help="flat scalar QP (default 32)")
    p.add_argument("out_prefix", help="output prefix for .rd.csv, .bits, .recon.ppm")
    p.set_defaults(func=_cmd_simulate)
    return parser


# First match wins, so OverlapError (a CurveError) and GridMismatchError
# come before ValueError; OSError is an unreadable input.
_EXIT_CODES = (
    (OverlapError, EXIT_NO_OVERLAP),
    (GridMismatchError, EXIT_GRID_MISMATCH),
    (OutputIOError, EXIT_OUTPUT_IO),
    (InferenceError, EXIT_INFERENCE),
    (ValueError, EXIT_BAD_INPUT),
    (OSError, EXIT_BAD_INPUT),
)


def main(argv=None) -> int:
    # One BLAS thread unless the caller chose otherwise: stepmap already
    # runs its convolution bands on one thread per CPU, and BLAS threads
    # on top of those lanes lost time. Set before any command loads numpy.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
