"""Seeded inputs for the benchmark workloads.

The same seed always gives the same files. The program receives only
these files: frames as PPM, step maps as QSMAP, a QP map as QPMAP, RD
curves as CSV, all written by reference.py, and the width-64 reference
network plan, which is built with make_random_weights(seed, width=64)
and saved as QSNW1 so that the program loads it through its own loader.

Regenerate one workload's inputs with

    PYTHONPATH=src python3 pipebench/inputs.py --workload rd-eval --seed 7 --out /tmp/in
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

import reference

WORKLOADS = ("infer-ref", "rd-eval", "cli-batch")

INFER_SIZE = (128, 128)       # width, height of each infer-ref frame
INFER_FRAMES = 2
RD_SIZE = (360, 248)          # multiples of neither 64 nor 16
RD_QPS = (22, 27, 32, 37)
STEPMAP_SIZE = (96, 64)       # cli-batch stepmap frame
GRID_4K = (3840, 2160)        # cli-batch qpmap frame; 2160 is not a multiple of 64
SIM_SIZE = (256, 192)         # cli-batch simulate and metrics frames
SIM_BASE_QP = 32
CLAMP = 4
DETAIL_LEVELS = (0.0, 6.0, 20.0, 56.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def detail_frame(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """RGB frame whose 64-px tiles carry different amounts of detail.

    A smooth low-frequency picture plus, per tile, noise and fine texture
    at one of four amplitudes; at least one tile is flat and one is at
    the highest amplitude, so per-block statistics always differ.
    """
    ty, tx = -(-height // 64), -(-width // 64)
    levels = np.array(DETAIL_LEVELS)
    amp = levels[rng.integers(0, levels.size, (ty, tx))]
    flat, busy = rng.permutation(amp.size)[:2]
    amp.flat[flat], amp.flat[busy] = levels[0], levels[-1]
    amp = np.repeat(np.repeat(amp, 64, axis=0), 64, axis=1)[:height, :width]
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    p = rng.uniform(0.0, 2.0 * np.pi, 3)
    base = 128.0 + 60.0 * np.sin(xx / 97.0 + p[0]) * np.cos(yy / 71.0 + p[1])
    detail = amp * (0.6 * rng.standard_normal((height, width))
                    + 0.4 * np.sin(xx / 2.3 + yy / 3.1 + p[2]))
    luma = base + detail
    rgb = np.stack([luma + 12.0, 0.9 * luma + 8.0, 250.0 - 0.8 * luma], axis=2)
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


def content_step_map(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Step map at 1/16 resolution that grows with local detail: large steps
    where texture masks error, small ones on flat areas.

    The contrast exponent starts at 1.2 and rises until the offsets reach
    both clamps, so every seed has saturated blocks at -4 and +4.
    """
    luma = reference.gray(pixels).astype(np.float64)
    h, w = luma.shape
    gh, gw = -(-h // 16), -(-w // 16)
    padded = np.pad(luma, ((0, gh * 16 - h), (0, gw * 16 - w)), mode="edge")
    detail = (padded.reshape(gh, 16, gw, 16).std(axis=(1, 3)) + 2.0) / 8.0
    jitter = np.exp(rng.normal(0.0, 0.1, (gh, gw)))
    for exponent in np.arange(1.2, 4.0, 0.2):
        step = detail ** exponent * jitter
        if _saturates(step, w, h):
            return step
    raise RuntimeError("no contrast exponent saturates the offsets")


def smooth_step_map(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """Smooth random log-step field spanning about four octaves."""
    gh, gw = -(-height // 16), -(-width // 16)
    yy, xx = np.mgrid[0:gh, 0:gw].astype(np.float64)
    field = np.zeros((gh, gw))
    for _ in range(4):
        fx, fy = rng.uniform(0.02, 0.2, 2)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        field += np.sin(fx * xx + px) * np.cos(fy * yy + py)
    return np.exp2(2.0 * field / np.abs(field).max())


def _saturates(step: np.ndarray, width: int, height: int) -> bool:
    _, dqp = reference.allocation(step, width, height, clamp=CLAMP)
    return dqp.min() == -CLAMP and dqp.max() == CLAMP


def write_weights(seed: int, path: str) -> None:
    from qpalloc.stepnet import make_random_weights, save_weights
    save_weights(make_random_weights(seed, width=64), path)


def generate(workload: str, seed: int, out: str) -> dict:
    """Write one workload's inputs into out and return their manifest."""
    os.makedirs(out, exist_ok=True)
    files = {}

    def path(name):
        files[name] = os.path.join(out, name)
        return files[name]

    if workload == "infer-ref":
        write_weights(seed, path("weights.qsnw"))
        for i in range(INFER_FRAMES):
            frame = detail_frame(_rng(seed, 10 + i), *INFER_SIZE)
            reference.write_ppm(path(f"frame{i}.ppm"), frame)
    elif workload == "rd-eval":
        frame = detail_frame(_rng(seed, 20), *RD_SIZE)
        step = content_step_map(frame, _rng(seed, 21))
        reference.write_ppm(path("frame.ppm"), frame)
        reference.write_qsmap(path("frame.qsmap"), step)
        uniform = np.full_like(step, _rng(seed, 22).uniform(0.5, 8.0))
        reference.write_qsmap(path("uniform.qsmap"), uniform)
    elif workload == "cli-batch":
        write_weights(seed, path("weights.qsnw"))
        reference.write_ppm(path("small.ppm"), detail_frame(_rng(seed, 30), *STEPMAP_SIZE))
        step = smooth_step_map(_rng(seed, 31), *GRID_4K)
        if not _saturates(step, *GRID_4K):
            raise RuntimeError("4K step map: offsets do not reach both clamps")
        reference.write_qsmap(path("grid4k.qsmap"), step)
        sim = detail_frame(_rng(seed, 32), *SIM_SIZE)
        reference.write_ppm(path("sim.ppm"), sim)
        rng = _rng(seed, 33)
        noisy = sim.astype(np.float64) + rng.normal(0.0, 6.0, sim.shape)
        noisy = np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8)
        reference.write_ppm(path("test.ppm"), noisy)
        by, bx = -(-SIM_SIZE[1] // 64), -(-SIM_SIZE[0] // 64)
        offsets = rng.integers(-CLAMP, CLAMP + 1, (by, bx))
        offsets.flat[:2] = (-CLAMP, CLAMP)
        reference.write_grid(path("sim.qpmap"), "QPMAP", 64, SIM_BASE_QP, offsets)
        rates = np.sort(rng.uniform(0.05, 2.0, 4)) + np.arange(4) * 0.01
        qualities = 30.0 + 8.0 * np.log10(rates / 0.05) + np.arange(4) * 0.1
        reference.write_rd_csv(path("anchor.csv"), rates, qualities)
        reference.write_rd_csv(path("test.csv"), rates, qualities)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "files": files}
    with open(os.path.join(out, "inputs.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
