"""qpalloc: block-level QP offset maps from learned quantization-step maps.

The pipeline: infer (or load) a positive step map at 1/16 image
resolution, average it per 64x64 block, normalize the reciprocals into a
bit-ratio map, and round the ratios into clamped integer QP offsets plus
matching rate-distortion multiplier scales. Companion modules score
image pairs (PSNR/SSIM/MS-SSIM, LPIPS-to-dB), compute BD-rate between
rate-quality curves, and verify rate effects with a toy DCT codec.

Importing the package loads no submodule and no numpy: each exported
name, and each submodule (``qpalloc.alloc``), is imported on first use
(PEP 562), so a process pays only for the modules it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["AllocConfig", "BlockAllocation", "LinearityReport",
                     "bit_ratios", "block_mean_step", "build_allocation",
                     "lambda_adapt", "linearity_fit", "qp_offset"], "alloc"),
    **dict.fromkeys(["RdCurve", "bd_quality", "bd_rate"], "bdrate"),
    **dict.fromkeys(["BlockGrid", "RasterImage", "load_ppm", "rgb_to_gray",
                     "save_ppm"], "imageio"),
    **dict.fromkeys(["MetricReport", "lpips_to_db", "metric_report", "ms_ssim",
                     "psnr", "ssim"], "metrics"),
    **dict.fromkeys(["ModelWeights", "StepMap", "infer_step_map", "load_weights",
                     "make_random_weights", "read_step_map", "save_weights",
                     "softplus", "write_step_map"], "stepnet"),
    **dict.fromkeys(["RdPoint", "encode_image"], "toysim"),
}
_SUBMODULES = frozenset({"alloc", "bdrate", "cli", "errors", "gridfile", "imageio",
                         "metrics", "stepnet", "toysim"})

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
