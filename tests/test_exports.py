import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qpalloc

MODULES = ["qpalloc"] + [f"qpalloc.{info.name}"
                         for info in pkgutil.iter_modules(qpalloc.__path__)]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_are_pinned():
    assert qpalloc.__all__ == [
        "__version__",
        "AllocConfig", "BlockAllocation", "LinearityReport",
        "bit_ratios", "block_mean_step", "build_allocation",
        "lambda_adapt", "linearity_fit", "qp_offset",
        "RdCurve", "bd_quality", "bd_rate",
        "BlockGrid", "RasterImage", "load_ppm", "rgb_to_gray", "save_ppm",
        "MetricReport", "lpips_to_db", "metric_report", "ms_ssim", "psnr", "ssim",
        "ModelWeights", "StepMap", "infer_step_map", "load_weights",
        "make_random_weights", "read_step_map", "save_weights",
        "softplus", "write_step_map",
        "RdPoint", "encode_image",
    ]
    assert set(qpalloc.__all__) <= set(dir(qpalloc))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qpalloc import *", namespace)
    assert set(qpalloc.__all__) <= set(namespace)
    assert namespace["encode_image"] is importlib.import_module("qpalloc.toysim").encode_image


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpalloc.no_such_name
    assert not hasattr(qpalloc, "no_such_name")


def test_names_and_submodules_resolve_on_first_use():
    """A bare `import qpalloc` loads no submodule; an exported name or a
    submodule attribute imports its module on first access."""
    code = ("import sys, qpalloc; "
            "before = sorted(m for m in sys.modules if m.startswith('qpalloc.')); "
            "alloc = qpalloc.alloc; grid = qpalloc.BlockGrid; "
            "print(before, alloc.__name__, grid is sys.modules['qpalloc.imageio'].BlockGrid)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "qpalloc.alloc", "True"]
