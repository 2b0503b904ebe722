import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

THREADS = {"OPENBLAS_NUM_THREADS": "1"}


def _write(directory, workload, seed, ops, setup, rss, info, failed=0):
    directory.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": 20, "threads": THREADS,
              "setup_samples": [setup],
              "metrics": {"ops_per_s": ops, "peak_rss_mb": rss, "setup_s": setup},
              "attempted": 100 + seed, "failed": failed, "blas_threads": 1, "info": info}
    (directory / f"run-{workload}-seed{seed}.json").write_text(json.dumps(record))


@pytest.fixture
def runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # seeds 2 and 10 sort as numbers, not as text
    for seed, p_ops, c_ops in [(2, 10.0, 12.0), (3, 12.0, 12.0), (4, 11.0, 14.0),
                               (10, 13.0, 15.0)]:
        _write(parent, "rd-eval", seed, p_ops, 0.125, 40.0, {"bd": seed})
        _write(change, "rd-eval", seed, c_ops, 0.25, 40.0, {"bd": seed}, failed=seed == 4)
    _write(change, "rd-eval", 11, 99.0, 0.1, 40.0, {"bd": 11})  # no parent run: not a pair
    _write(parent, "cli-batch", 5, 7.0, 0.05, 36.0, {"commands": 5})
    _write(change, "cli-batch", 5, 7.0, 0.05, 36.0, {"commands": 6})
    (parent / "result-rd-eval.json").write_text("{}")  # not a run record
    return parent, change


def test_summary_of_fixed_records(runs, tmp_path):
    out = tmp_path / "BENCH_7.json"
    assert bench_pairs.main([str(runs[0]), str(runs[1]), "--pr", "7", "--change", "x",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert (bench["pr"], bench["change"], bench["threads"], bench["blas_threads"]) == \
        (7, "x", THREADS, 1)
    rd = bench["workloads"]["rd-eval"]
    assert (rd["seeds"], rd["pairs"], rd["seconds"]) == ([2, 3, 4, 10], 4, 20)
    assert rd["attempted"] == {"parent": [102, 103, 104, 110], "change": [102, 103, 104, 110]}
    assert rd["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert rd["info"] == {"parent": {"bd": 2}, "change": {"bd": 2}}
    assert rd["info_identical"] is True

    ops = rd["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25,
                             "runs": [10.0, 12.0, 11.0, 13.0]}
    assert ops["change"] == {"median": 13.0, "q1": 12.0, "q3": 14.25,
                             "runs": [12.0, 12.0, 14.0, 15.0]}
    assert ops["change_wins"] == 3  # the tie at seed 3 counts for neither side
    assert ops["change_over_parent"] == pytest.approx(13.0 / 11.5 - 1.0)
    assert ops["parent_iqr_over_median"] == pytest.approx(1.5 / 11.5)
    assert (ops["unit"], ops["better"], ops["bound"]) == ("op/s", "higher", 0.25)

    setup = rd["metrics"]["setup_s"]  # lower is better: doubling loses every pair
    assert (setup["change_wins"], setup["change_over_parent"]) == (0, pytest.approx(1.0))
    assert setup["parent_iqr_over_median"] == 0.0
    assert rd["metrics"]["peak_rss_mb"]["change_wins"] == 0  # all ties

    cli = bench["workloads"]["cli-batch"]
    assert cli["seeds"] == [5] and cli["info_identical"] is False
    assert cli["metrics"]["ops_per_s"]["parent"] == {"median": 7.0, "q1": 7.0, "q3": 7.0,
                                                     "runs": [7.0]}


def test_no_pairs_is_an_error(tmp_path, runs):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_pairs.main([str(runs[0]), str(empty), "--pr", "7", "--change", "x",
                             "--out", str(tmp_path / "out.json")]) == 1
    assert not (tmp_path / "out.json").exists()
