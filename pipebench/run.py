#!/usr/bin/env python3
"""Pipeline benchmark for qpalloc: one workload per run, one JSON result.

    python3 pipebench/run.py --workload infer-ref --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --smoke

Run from the root of a checkout; the program is imported from ./src.
--trace 0 prints the end-to-end metrics (setup_s, ops_per_s,
peak_rss_mb); --trace 1 runs the same workload with spans around every
call into the program, adds one short round of each other workload and
the loader and import probes, and prints the per-layer metrics. The last
line of standard output is the JSON result; the lines before it say
what was run. Run records and traces go to .pipebench/ in the checkout.
"""

from __future__ import annotations

import os
import sys

# Fixed, not inherited: one BLAS/OpenMP thread in this process and in
# every process it starts (they inherit this environment). Set before
# numpy is imported anywhere.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = inputs.WORKLOADS

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
N_CONVS = 13


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _per_layer_table() -> list[tuple]:
    """(metric, unit, better, source, span name, statistic).

    Each metric has one source, whichever workload's traced run it is:
    the per-layer numbers of a traced run do not depend on which
    workload was traced, only on how many samples it gave.
    """
    rows = []
    for n in range(N_CONVS):
        rows.append((f"stepnet.conv.{n:02d}.ms", "ms", "lower", "infer-ref",
                     f"stepnet.conv.{n:02d}", "ms"))
    for n in range(N_CONVS):
        rows.append((f"stepnet.conv.{n:02d}.gflops", "GFLOP/s", "higher", "infer-ref",
                     f"stepnet.conv.{n:02d}", "gflops"))
    rows += [
        ("stepnet.infer_s", "s", "lower", "infer-ref", "stepnet.infer", "s"),
        ("stepnet.load_weights_s", "s", "lower", "io", "stepnet.load_weights", "s"),
        ("stepnet.read_step_map_s", "s", "lower", "io", "stepnet.read_step_map", "s"),
        ("stepnet.write_step_map_s", "s", "lower", "io", "stepnet.write_step_map", "s"),
        ("alloc.build_s", "s", "lower", "rd-eval", "alloc.build", "s"),
        ("alloc.blocks", "count", "higher", "rd-eval", "alloc.build", "count:blocks"),
        ("toysim.encode_s", "s", "lower", "rd-eval", "toysim.encode", "s"),
        ("toysim.tus", "count", "higher", "rd-eval", "toysim.encode", "count:tus"),
        ("toysim.bits", "count", "lower", "rd-eval", "toysim.encode", "count:bits"),
        ("metrics.psnr_s", "s", "lower", "rd-eval", "metrics.psnr", "s"),
        ("metrics.ssim_s", "s", "lower", "rd-eval", "metrics.ssim", "s"),
        ("metrics.ms_ssim_s", "s", "lower", "rd-eval", "metrics.ms_ssim", "s"),
        ("bdrate.bd_s", "s", "lower", "rd-eval", "bdrate.bd", "s"),
        ("bdrate.import_s", "s", "lower", "import", "bdrate.import", "s"),
        ("cli.import_s", "s", "lower", "import", "cli.import", "s"),
        ("cli.stepmap_s", "s", "lower", "cli-batch", "cli.stepmap", "s"),
        ("cli.qpmap_s", "s", "lower", "cli-batch", "cli.qpmap", "s"),
        ("cli.simulate_s", "s", "lower", "cli-batch", "cli.simulate", "s"),
        ("cli.metrics_s", "s", "lower", "cli-batch", "cli.metrics", "s"),
        ("cli.bdrate_s", "s", "lower", "cli-batch", "cli.bdrate", "s"),
        ("imageio.load_ppm_s", "s", "lower", "io", "imageio.load_ppm", "s"),
        ("imageio.save_ppm_s", "s", "lower", "io", "imageio.save_ppm", "s"),
        ("imageio.rgb_to_gray_s", "s", "lower", "io", "imageio.rgb_to_gray", "s"),
        ("gridfile.read_s", "s", "lower", "io", "gridfile.read", "s"),
        ("gridfile.write_s", "s", "lower", "io", "gridfile.write", "s"),
    ]
    return rows


PER_LAYER = _per_layer_table()


def _child(argv: list, what: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _inputs(workload: str, seed: int) -> str:
    out = os.path.join(WORK, "inputs", workload)
    shutil.rmtree(out, ignore_errors=True)
    inputs.generate(workload, seed, out)
    return out


def _setup_sample(workload: str, inputs_dir: str) -> float:
    """Interpreter start to "ready" in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "probe", "--workload", workload,
                             "--inputs", inputs_dir], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe for {workload} failed:\n{err[-2000:]}")
    return elapsed


def _worker_run(workload: str, inputs_dir: str, seconds: float, trace: int) -> dict:
    path = os.path.join(WORK, f"result-{workload}.json")
    _child([WORKER, "run", "--workload", workload, "--inputs", inputs_dir,
            "--seconds", str(seconds), "--trace", str(trace), "--result", path],
           f"{workload} worker")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _import_spans() -> list[dict]:
    spans = []
    for module in ("cli", "bdrate"):
        for i in range(IMPORT_SAMPLES):
            proc = _child([WORKER, "import", "--module", module], f"{module} import probe")
            t = json.loads(proc.stdout.strip().splitlines()[-1])
            spans.append({"id": f"import.{module}.{i}", "parent": None, "op": None,
                          "name": f"{module}.import", "start": t["start"], "end": t["end"],
                          "counts": {}})
    return spans


def _io_probe(inputs_dir: str) -> dict:
    path = os.path.join(WORK, "result-io.json")
    _child([WORKER, "io", "--inputs", inputs_dir, "--result", path], "io probe")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _end_to_end(result: dict) -> dict:
    """ops_per_s: the operations of one round over the round's typical
    time, the sum over its operations of each one's median time across
    the run. A median per operation keeps a few seconds of host
    contention from moving the figure."""
    by_slot = {}
    for slot, seconds in result["op_times"]:
        by_slot.setdefault(slot, []).append(seconds)
    round_s = sum(statistics.median(times) for times in by_slot.values())
    return {"ops_per_s": len(by_slot) / round_s if round_s > 0 else 0.0,
            "peak_rss_mb": result["peak_rss_mb"]}


def _layer_value(spans: list[dict], name: str, statistic: str) -> tuple[float, int]:
    chosen = [s for s in spans if s["name"] == name]
    if statistic.startswith("count:"):
        values = [s["counts"][statistic[6:]] for s in chosen]
    elif statistic == "gflops":
        values = [s["counts"]["flop"] / (s["end"] - s["start"]) / 1e9 for s in chosen]
    else:
        scale = 1e3 if statistic == "ms" else 1.0
        values = [(s["end"] - s["start"]) * scale for s in chosen]
    if not values:
        raise BenchError(f"no spans named {name}")
    return float(statistics.median(values)), len(values)


def _describe(workload: str, result: dict) -> str:
    return (f"{workload}: {result['attempted']} ops in {result['rounds']} rounds, "
            f"{sum(t for _, t in result['op_times']):.2f} s inside the program, "
            f"{result['failed']} failed, BLAS threads {result['blas_threads']}, "
            f"{json.dumps(result['info'])}")


def run_untraced(workload: str, seed: int, seconds: float, setup_samples: int) -> dict:
    inputs_dir = _inputs(workload, seed)
    # Half the setup samples before the workload and half after, so that
    # they see the same stretch of host load as the operations.
    before = (setup_samples + 1) // 2
    setups = [_setup_sample(workload, inputs_dir) for _ in range(before)]
    result = _worker_run(workload, inputs_dir, seconds, 0)
    setups += [_setup_sample(workload, inputs_dir) for _ in range(setup_samples - before)]
    metrics = _end_to_end(result)
    metrics["setup_s"] = float(statistics.median(setups))
    print(_describe(workload, result))
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    for failure in result["failures"]:
        print(failure)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "threads": THREAD_ENV,
              "setup_samples": setups, "metrics": metrics,
              **{k: v for k, v in result.items() if k != "spans"}}
    with open(os.path.join(WORK, f"run-{workload}-seed{seed}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    units = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MB"}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """The workload for `seconds` with spans, one round of each other
    workload, the loader probe and the import probes."""
    dirs = {w: _inputs(w, seed) for w in WORKLOADS}
    results = {workload: _worker_run(workload, dirs[workload], seconds, 1)}
    for other in WORKLOADS:
        if other != workload:
            results[other] = _worker_run(other, dirs[other], 0, 1)
    results["io"] = _io_probe(dirs["cli-batch"])
    results["import"] = {"attempted": 0, "failed": 0, "failures": [], "spans": _import_spans()}

    traced = _end_to_end(results[workload])
    print(_describe(workload, results[workload]))
    print(f"traced end-to-end: ops_per_s {traced['ops_per_s']:.5g} op/s, "
          f"peak_rss_mb {traced['peak_rss_mb']:.5g} MB "
          "(compare with an untraced run for the tracing overhead)")
    per_layer, samples = {}, {}
    for metric, unit, _, source, span_name, statistic in PER_LAYER:
        value, n = _layer_value(results[source]["spans"], span_name, statistic)
        per_layer[metric] = {"value": value, "unit": unit}
        samples[metric] = n
        print(f"  {metric:<28} {value:>14.6g} {unit:<8} median of {n} ({source})")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    for r in results.values():
        for failure in r["failures"]:
            print(failure)
    trace = {"workload": workload, "seed": seed, "seconds": seconds, "threads": THREAD_ENV,
             "traced_end_to_end": traced, "samples": samples, "per_layer": per_layer,
             "spans": [dict(s, source=src) for src, r in results.items() for s in r["spans"]]}
    with open(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"), "w", encoding="ascii") as fh:
        json.dump(trace, fh)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": per_layer}


def smoke(seed: int) -> int:
    """Every workload at minimal length, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        result = run_untraced(workload, seed, 0, 1)
        print(json.dumps(result))
        ok &= result["correct"]
    result = run_traced(WORKLOADS[0], seed, 0)
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    ok &= result["correct"]
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal length and exit")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "qpalloc", "__init__.py")):
        print(f"error: the program is not in {SRC}; run from the root of a qpalloc checkout",
              file=sys.stderr)
        return 2
    # Children import the program from this checkout and nothing else.
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    seed = args.seed % 2 ** 32
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    started = time.perf_counter()
    try:
        if args.smoke:
            return smoke(seed)
        if args.trace:
            result = run_traced(args.workload, seed, args.seconds)
        else:
            result = run_untraced(args.workload, seed, args.seconds, SETUP_SAMPLES)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
