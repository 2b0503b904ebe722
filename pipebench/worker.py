"""One fresh benchmark process: set-up probe, workload run, or layer probe.

    worker.py probe  --workload W --inputs DIR
        Set up as the workload does (import the program, load the model
        and inputs through its own loaders), print "ready", exit. The
        parent times interpreter start to that line: one setup_s sample.
    worker.py run    --workload W --inputs DIR --seconds S --trace 0|1 --result FILE
        Set up, then run whole rounds of the workload's operations until
        S seconds have passed, checking every output; write the result.
    worker.py io     --inputs DIR --result FILE
        Time the program's file loaders and writers on the cli-batch inputs.
    worker.py import --module cli|bdrate
        Time one import in this fresh process; print it as JSON.

Only the standard library is imported before set-up, so a probe times
the program's start-up and not the benchmark's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _manifest(inputs: str) -> dict:
    with open(os.path.join(inputs, "inputs.json"), encoding="ascii") as fh:
        return json.load(fh)


def setup(workload: str, files: dict) -> dict:
    """Everything a workload needs before its first operation."""
    if workload == "cli-batch":
        import qpalloc.cli  # noqa: F401  (what every command imports)
        return {}
    from qpalloc import imageio, stepnet
    if workload == "infer-ref":
        frames = sorted(name for name in files if name.startswith("frame"))
        return {"weights": stepnet.load_weights(files["weights.qsnw"]),
                "frames": [imageio.load_ppm(files[name]) for name in frames]}
    image = imageio.load_ppm(files["frame.ppm"])
    return {"image": image, "luma": imageio.rgb_to_gray(image),
            "uniform": stepnet.read_step_map(files["uniform.qsmap"])}


def _check_program_source() -> None:
    import qpalloc
    if not os.path.abspath(qpalloc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qpalloc was imported from {qpalloc.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _run(args) -> None:
    manifest = _manifest(args.inputs)
    t0 = time.perf_counter()
    state = setup(args.workload, manifest["files"])
    setup_in_worker = time.perf_counter() - t0
    _check_program_source()

    import workloads
    from spans import Tracer

    tracer = Tracer(args.workload, bool(args.trace))
    wl = workloads.create(args.workload, state, manifest, tracer)
    result = workloads.run_rounds(wl, args.seconds, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    workloads.final_checks(wl, result)
    result.update(setup_in_worker_s=setup_in_worker, spans=tracer.spans,
                  blas_threads=_blas_threads(), info=wl.info())
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


def _io(args) -> None:
    manifest = _manifest(args.inputs)
    import qpalloc  # noqa: F401
    _check_program_source()
    import workloads
    from spans import Tracer

    tracer = Tracer("io", True)
    result = workloads.io_probe(manifest, tracer)
    result["spans"] = tracer.spans
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


def _import(args) -> None:
    if args.module == "cli":
        start = time.perf_counter()
        import qpalloc.cli  # noqa: F401
        end = time.perf_counter()
    else:
        # bdrate alone: numpy first, then an empty package object so that
        # qpalloc/__init__ (which imports every module) does not run.
        import types

        import numpy  # noqa: F401
        package = types.ModuleType("qpalloc")
        package.__path__ = [os.path.join(SRC, "qpalloc")]
        sys.modules["qpalloc"] = package
        import qpalloc.errors  # noqa: F401
        start = time.perf_counter()
        import qpalloc.bdrate  # noqa: F401
        end = time.perf_counter()
    print(json.dumps({"start": start, "end": end}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    p = sub.add_parser("io")
    p.add_argument("--inputs", required=True)
    p.add_argument("--result", required=True)
    p = sub.add_parser("import")
    p.add_argument("--module", choices=("cli", "bdrate"), required=True)
    args = parser.parse_args()

    if args.mode == "probe":
        setup(args.workload, _manifest(args.inputs)["files"])
        print("ready", flush=True)
    elif args.mode == "run":
        _run(args)
    elif args.mode == "io":
        _io(args)
    else:
        _import(args)


if __name__ == "__main__":
    main()
