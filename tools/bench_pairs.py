"""Summarise paired benchmark runs of a parent commit and a change.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pr N --change TEXT [--out PATH]

Each directory holds the `run-<workload>-seed<N>.json` records that
`pipebench/run.py` writes to `.pipebench/`, one per run, copied out of a
checkout of the parent and of the change. A seed whose record is in both
directories is one pair. The summary goes to PATH (BENCH_<N>.json by
default). For each workload and each end-to-end metric of BENCHMARK.json
it holds:

- each side's median and quartiles (linear interpolation) and its runs,
  in seed order;
- the pairs the change won (a tie counts for neither side);
- the change's median over the parent's, minus 1, and the parent's
  interquartile range over its median, beside the metric's bound.

It also lists each side's attempted and failed operation counts, the
workload's info line from the first pair, and whether every pair's info
lines are identical. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

_RECORD = re.compile(r"run-(?P<workload>.+)-seed(?P<seed>\d+)\.json")
_SIDES = ("parent", "change")
_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
_METHOD = ("python3 pipebench/run.py --workload W --seconds S --seed N, run on a checkout "
           "of the parent commit and a copy of the change, alternating which side runs "
           "first; one run per side per seed; quartiles by linear interpolation")


def read_records(directory: str | os.PathLike) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} of the run records in directory."""
    records: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).iterdir()):
        match = _RECORD.fullmatch(path.name)
        if match:
            with open(path, encoding="ascii") as fh:
                records.setdefault(match["workload"], {})[int(match["seed"])] = json.load(fh)
    return records


def _spread(runs: list[float]) -> dict:
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    """One metric's summary over pairs (parent[i], change[i])."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = _spread(parent), _spread(change)
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "change_over_parent": c["median"] / p["median"] - 1.0,
            "parent_iqr_over_median": (p["q3"] - p["q1"]) / p["median"],
            "parent": p, "change": c}


def summarise(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]],
              metrics: list[dict]) -> dict:
    """{workload: summary} over the seeds each workload has on both sides."""
    out = {}
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if not seeds:
            continue
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        out[workload] = {
            "seeds": seeds,
            "seconds": pairs[0][0]["seconds"],
            "pairs": len(seeds),
            "metrics": {m["name"]: compare([p["metrics"][m["name"]] for p, _ in pairs],
                                           [c["metrics"][m["name"]] for _, c in pairs], m)
                        for m in metrics},
            "attempted": {side: [pair[i]["attempted"] for pair in pairs]
                          for i, side in enumerate(_SIDES)},
            "failed": {side: [pair[i]["failed"] for pair in pairs]
                       for i, side in enumerate(_SIDES)},
            "info": dict(zip(_SIDES, (r["info"] for r in pairs[0]))),
            "info_identical": all(p["info"] == c["info"] for p, c in pairs),
        }
    return out


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"cpu": cpu, "vcpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "os": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--change", required=True, help="what the change does, in one line")
    parser.add_argument("--out", help="output path (default BENCH_<pr>.json)")
    args = parser.parse_args(argv)

    with open(_BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = read_records(args.parent_dir), read_records(args.change_dir)
    workloads = summarise(parent, change, metrics)
    if not workloads:
        print("no seed has a run record on both sides", file=sys.stderr)
        return 1
    first = next(iter(parent[next(iter(workloads))].values()))
    bench = {"pr": args.pr, "change": args.change, "method": _METHOD, "host": _host(),
             "workloads": workloads, "threads": first["threads"],
             "blas_threads": first["blas_threads"]}
    out = args.out or f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="ascii") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for name, summary in workloads.items():
        for metric, m in summary["metrics"].items():
            print(f"{name} {metric}: parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}], change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}], change won {m['change_wins']} of "
                  f"{summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
