"""The three workloads: their operations, per-operation checks and
once-per-run checks. Imported by worker.py after set-up.

Each workload is a round of operations. A run repeats whole rounds, so
every run attempts the same mix, and an operation's time covers only its
calls into the program; its output checks run after the clock stops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import inputs
import reference
from qpalloc import alloc, bdrate, gridfile, imageio, metrics, stepnet, toysim

BD_SCALE = 0.9  # bd_rate(c, c with rates x 0.9) must be -10 %


def run_rounds(wl, seconds: float, tracer) -> dict:
    """Whole rounds until `seconds` have passed (at least wl.min_rounds).

    op_times holds [slot, seconds] for each operation that passed its
    checks, slot being the operation's place in the round.
    """
    attempted = failed = rounds = 0
    op_times = []
    failures = []
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        for slot, op in enumerate(wl.round()):
            tracer.op = attempted
            attempted += 1
            try:
                op_times.append([slot, op()])
            except Exception:  # an operation that fails is counted and reported
                failed += 1
                failures.append(traceback.format_exc(limit=4))
        rounds += 1
    tracer.op = None
    return {"attempted": attempted, "failed": failed, "failures": failures[:5],
            "rounds": rounds, "op_times": op_times,
            "loop_seconds": time.perf_counter() - start}


def final_checks(wl, result: dict) -> None:
    """Once-per-run checks, outside the timed loop; a failure counts as
    one failed operation."""
    try:
        wl.final_checks()
    except Exception:
        result["failed"] += 1
        result["failures"].append(traceback.format_exc(limit=4))


def create(name: str, state: dict, manifest: dict, tracer):
    cls = {"infer-ref": InferRef, "rd-eval": RdEval, "cli-batch": CliBatch}[name]
    return cls(state, manifest["files"], tracer)


def _layer_plan(weights: stepnet.ModelWeights) -> list:
    """The model as plain arrays for reference.forward."""
    plan = []
    for layer in weights.layers:
        if isinstance(layer, stepnet.ConvLayer):
            plan.append(("conv", layer.weights, layer.bias, layer.stride))
        else:
            plan.append(("res", (layer.conv1.weights, layer.conv1.bias),
                         (layer.conv2.weights, layer.conv2.bias)))
    return plan


class InferRef:
    """infer_step_map on each 256x256 frame with the width-64 plan.

    Traced, the forward pass is composed from public stepnet.conv2d calls
    so that each convolution gets its own span; every composed result
    must equal infer_step_map's byte for byte.
    """

    def __init__(self, state, files, tracer):
        self.weights = state["weights"]
        self.frames = state["frames"]
        self.tracer = tracer
        self.last = {}
        self.min_rounds = 2  # so that every run compares repeated inferences
        if tracer.enabled:
            self.min_rounds = 1
            self.last = {i: stepnet.infer_step_map(f, self.weights).values
                         for i, f in enumerate(self.frames)}

    def round(self):
        return [lambda i=i: self.op(i) for i in range(len(self.frames))]

    def op(self, i: int) -> float:
        frame = self.frames[i]
        start = time.perf_counter()
        with self.tracer.span("stepnet.infer"):
            if self.tracer.enabled:
                values = self._composed(frame)
            else:
                values = stepnet.infer_step_map(frame, self.weights).values
        elapsed = time.perf_counter() - start
        checks.step_map(values, frame.width, frame.height)
        if i in self.last:
            checks.identical(values, self.last[i], f"frame {i}")
        self.last[i] = values
        return elapsed

    def _composed(self, frame) -> np.ndarray:
        x = np.ascontiguousarray(
            frame.pixels.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0))
        n = 0
        for layer in self.weights.layers:
            if isinstance(layer, stepnet.ConvLayer):
                x = self._conv(n, x, layer)
                n += 1
            else:
                y = np.maximum(self._conv(n, x, layer.conv1), np.float32(0.0))
                x = x + self._conv(n + 1, y, layer.conv2)
                n += 2
        return stepnet.softplus(x[0])

    def _conv(self, n: int, x: np.ndarray, layer) -> np.ndarray:
        with self.tracer.span(f"stepnet.conv.{n:02d}") as sp:
            out = stepnet.conv2d(x, layer)
        k = layer.kernel_size
        sp.count(flop=2 * layer.in_channels * layer.out_channels * k * k
                 * out.shape[1] * out.shape[2])
        return out

    def final_checks(self) -> None:
        ref = reference.forward(self.frames[0].pixels, _layer_plan(self.weights))
        checks.near_reference(self.last[0], ref)

    def info(self) -> dict:
        return {"frame": f"{self.frames[0].width}x{self.frames[0].height}",
                "frames_per_round": len(self.frames), "plan_width": 64}


class RdEval:
    """The paper's evaluation of one frame: allocation at four base QPs,
    flat and mapped encodes, PSNR/SSIM/MS-SSIM of each, and BD-rate and
    BD-quality of the mapped curves against the flat ones."""

    def __init__(self, state, files, tracer):
        self.tracer = tracer
        self.luma = state["luma"]
        self.ref_image = imageio.RasterImage(pixels=self.luma[:, :, None])
        self.uniform = state["uniform"]
        self.qsmap = files["frame.qsmap"]
        self.step = reference.read_qsmap(self.qsmap)
        self.height, self.width = self.luma.shape
        self.n_tus = -(-self.height // 8) * -(-self.width // 8)
        self.min_rounds = 1
        self.oracle_pair = None
        self.bd = None

    def round(self):
        return [self.op]

    def _encode(self, qp_map):
        with self.tracer.span("toysim.encode") as sp:
            point, recon = toysim.encode_image(self.luma, qp_map)
        sp.count(tus=self.n_tus, bits=int(point.per_block_bits.sum()))
        return point, recon

    def _score(self, recon) -> tuple[float, float, float]:
        test = imageio.RasterImage(pixels=recon[:, :, None])
        with self.tracer.span("metrics.psnr"):
            p = metrics.psnr(self.ref_image, test)
        with self.tracer.span("metrics.ssim"):
            s = metrics.ssim(self.ref_image, test)
        with self.tracer.span("metrics.ms_ssim"):
            m = metrics.ms_ssim(self.ref_image, test)
        return p, s, m

    def op(self) -> float:
        start = time.perf_counter()
        with self.tracer.span("stepnet.read_step_map"):
            step_map = stepnet.read_step_map(self.qsmap)
        rows = []
        for qp in inputs.RD_QPS:
            with self.tracer.span("alloc.build") as sp:
                allocation = alloc.build_allocation(step_map, self.width, self.height,
                                                    alloc.AllocConfig(base_qp=qp))
            sp.count(blocks=allocation.grid.n_blocks)
            row = {"allocation": allocation}
            for key, qp_map in (("flat", qp), ("mapped", allocation)):
                point, recon = self._encode(qp_map)
                row[key] = (point, recon, self._score(recon))
            rows.append(row)
        curves = {}
        for key in ("flat", "mapped"):
            rates = [r[key][0].rate for r in rows]
            curves[key, "psnr"] = bdrate.RdCurve(rates, [r[key][2][0] for r in rows], "psnr")
            curves[key, "msssim"] = bdrate.RdCurve(rates, [r[key][2][2] for r in rows], "msssim")
        with self.tracer.span("bdrate.bd"):
            bd = {m: (bdrate.bd_rate(curves["flat", m], curves["mapped", m]),
                      bdrate.bd_quality(curves["flat", m], curves["mapped", m]))
                  for m in ("psnr", "msssim")}
        elapsed = time.perf_counter() - start

        for row in rows:
            allocation = row["allocation"]
            checks.ratio_mean(allocation.ratio, self.width, self.height)
            checks.offsets(self.step, self.width, self.height, inputs.CLAMP, allocation.dqp)
            checks.lambda_offsets(allocation.dqp, allocation.lambda_scale, inputs.CLAMP)
            for point, recon, (psnr, _, _) in (row["flat"], row["mapped"]):
                checks.encode(point.rate, point.per_block_bits, point.quality, self.luma, recon)
                checks.metrics_psnr(psnr, self.luma, recon)
        for key in ("flat", "mapped"):
            checks.rate_falls(inputs.RD_QPS, [r[key][0].rate for r in rows])
        anchor = curves["flat", "psnr"]
        scaled = bdrate.RdCurve(anchor.rates * BD_SCALE, anchor.qualities, "psnr")
        checks.bd_identities(bdrate.bd_rate(anchor, anchor), bdrate.bd_rate(anchor, scaled),
                             BD_SCALE)
        if self.oracle_pair is None:
            _, recon, (_, _, ms) = rows[inputs.RD_QPS.index(32)]["mapped"]
            self.oracle_pair = (recon, ms)
        self.bd = bd
        return elapsed

    def final_checks(self) -> None:
        for qp in inputs.RD_QPS:
            allocation = alloc.build_allocation(self.uniform, self.width, self.height,
                                                alloc.AllocConfig(base_qp=qp))
            checks.zero_offsets(allocation.dqp, allocation.lambda_scale)
        recon, value = self.oracle_pair
        checks.ms_ssim(value, reference.ms_ssim(self.luma, recon))

    def info(self) -> dict:
        out = {"frame": f"{self.width}x{self.height}", "qps": list(inputs.RD_QPS)}
        if self.bd:
            out.update(bd_rate_psnr_pct=self.bd["psnr"][0], bd_rate_msssim_pct=self.bd["msssim"][0])
        return out


class CliBatch:
    """Closed loop, one client: fresh `python -m qpalloc.cli` processes,
    one at a time, over a fixed mix of the five commands."""

    def __init__(self, state, files, tracer):
        self.tracer = tracer
        self.files = files
        self.out = os.path.join(os.path.dirname(files["weights.qsnw"]), "out")
        os.makedirs(self.out, exist_ok=True)
        self.step4k = reference.read_qsmap(files["grid4k.qsmap"])
        self.sim = reference.read_ppm(files["sim.ppm"])
        self.test = reference.read_ppm(files["test.ppm"])
        self.min_rounds = 1
        o = lambda name: os.path.join(self.out, name)  # noqa: E731
        f = files
        self.commands = [
            ("stepmap", [f["small.ppm"], f["weights.qsnw"], o("small.qsmap")], self._check_stepmap),
            ("qpmap", ["--stepmap", f["grid4k.qsmap"], "--base-qp", "32", o("grid4k.qpmap")],
             self._check_qpmap),
            ("simulate", [f["sim.ppm"], "--qpmap", f["sim.qpmap"], o("sim")], self._check_simulate),
            ("metrics", [f["sim.ppm"], f["test.ppm"]], self._check_metrics),
            ("bdrate", [f["anchor.csv"], f["test.csv"]], self._check_bdrate),
        ]

    def round(self):
        return [lambda c=c: self.op(*c) for c in self.commands]

    def op(self, name: str, argv: list, check) -> float:
        start = time.perf_counter()
        with self.tracer.span(f"cli.{name}"):
            proc = subprocess.run([sys.executable, "-m", "qpalloc.cli", name, *argv],
                                  capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        checks.exit_code(name, proc.returncode, proc.stderr)
        check(proc.stdout)
        return elapsed

    def _check_stepmap(self, stdout: str) -> None:
        values = reference.read_qsmap(os.path.join(self.out, "small.qsmap"))
        checks.step_map(values, *inputs.STEPMAP_SIZE)

    def _check_qpmap(self, stdout: str) -> None:
        qpmap = reference.read_grid(os.path.join(self.out, "grid4k.qpmap"))
        lscale = reference.read_grid(os.path.join(self.out, "grid4k.qpmap.lscale"))
        for grid in (qpmap, lscale):
            checks.grid_shape(grid, *inputs.GRID_4K)
        checks.lambda_offsets(qpmap["values"], lscale["values"], inputs.CLAMP)
        checks.offsets(self.step4k, *inputs.GRID_4K, inputs.CLAMP, qpmap["values"])

    def _check_simulate(self, stdout: str) -> None:
        bits = reference.read_grid(os.path.join(self.out, "sim.bits"))
        checks.grid_shape(bits, *inputs.SIM_SIZE)
        rates, qualities = reference.read_rd_csv(os.path.join(self.out, "sim.rd.csv"))
        recon = reference.read_ppm(os.path.join(self.out, "sim.recon.ppm"))
        checks.simulate(bits, rates[0], qualities[0], reference.gray(self.sim), recon)

    def _check_metrics(self, stdout: str) -> None:
        checks.metrics_psnr(float(stdout.strip().split(",")[1]), self.sim, self.test)

    def _check_bdrate(self, stdout: str) -> None:
        checks.bdrate_zero(json.loads(stdout))

    def final_checks(self) -> None:
        pass

    def info(self) -> dict:
        return {"commands": [c[0] for c in self.commands]}


IO_REPEATS = 5


def io_probe(manifest: dict, tracer) -> dict:
    """Loader and writer timings on the cli-batch inputs; each result is
    compared with the benchmark's own reading of the same file."""
    files = manifest["files"]
    out = os.path.join(os.path.dirname(files["weights.qsnw"]), "io")
    os.makedirs(out, exist_ok=True)
    step4k = reference.read_qsmap(files["grid4k.qsmap"])
    _, dqp4k = reference.allocation(step4k, *inputs.GRID_4K)
    sim = reference.read_ppm(files["sim.ppm"])
    failures = []
    for _ in range(IO_REPEATS):
        with tracer.span("stepnet.load_weights"):
            stepnet.load_weights(files["weights.qsnw"])
        with tracer.span("stepnet.read_step_map"):
            step_map = stepnet.read_step_map(files["grid4k.qsmap"])
        with tracer.span("stepnet.write_step_map"):
            stepnet.write_step_map(step_map, os.path.join(out, "grid4k.qsmap"))
        with tracer.span("imageio.load_ppm"):
            image = imageio.load_ppm(files["sim.ppm"])
        with tracer.span("imageio.rgb_to_gray"):
            luma = imageio.rgb_to_gray(image)
        with tracer.span("imageio.save_ppm"):
            imageio.save_ppm(image, os.path.join(out, "sim.ppm"))
        with tracer.span("gridfile.write"):
            gridfile.write_grid_file(os.path.join(out, "grid4k.qpmap"), "QPMAP", 64, 32, dqp4k)
        with tracer.span("gridfile.read"):
            grid = gridfile.read_grid_file(os.path.join(out, "grid4k.qpmap"))
    try:
        checks.identical(step_map.values, step4k, "read_step_map")
        checks.identical(reference.read_qsmap(os.path.join(out, "grid4k.qsmap")), step4k,
                         "write_step_map")
        checks.identical(image.pixels, sim, "load_ppm")
        checks.identical(luma, reference.gray(sim), "rgb_to_gray")
        checks.identical(reference.read_ppm(os.path.join(out, "sim.ppm")), sim, "save_ppm")
        checks.identical(grid.values, dqp4k, "gridfile round trip")
    except checks.CheckFailed:
        failures.append(traceback.format_exc(limit=4))
    return {"attempted": 1, "failed": len(failures), "failures": failures}
