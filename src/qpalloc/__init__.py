"""qpalloc: block-level QP offset maps from learned quantization-step maps.

The pipeline: infer (or load) a positive step map at 1/16 image
resolution, average it per 64x64 block, normalize the reciprocals into a
bit-ratio map, and round the ratios into clamped integer QP offsets plus
matching rate-distortion multiplier scales. Companion modules score
image pairs (PSNR/SSIM/MS-SSIM, LPIPS-to-dB), compute BD-rate between
rate-quality curves, and verify rate effects with a toy DCT codec.
"""

__version__ = "0.1.0"

from .alloc import (AllocConfig, BlockAllocation, LinearityReport,
                    bit_ratios, block_mean_step, build_allocation,
                    lambda_adapt, linearity_fit, qp_offset)
from .bdrate import RdCurve, bd_quality, bd_rate
from .imageio import (BlockGrid, RasterImage, YuvFrame, block_partition,
                      load_ppm, rgb_to_gray, rgb_to_yuv420, save_ppm,
                      write_yuv420)
from .metrics import MetricReport, lpips_to_db, metric_report, ms_ssim, psnr, ssim
from .stepnet import (ModelWeights, StepMap, infer_step_map, load_weights,
                      make_random_weights, read_step_map, save_weights,
                      softplus, write_step_map)
from .toysim import RdPoint, encode_image, golomb_bits

__all__ = [
    "__version__",
    "AllocConfig", "BlockAllocation", "LinearityReport",
    "bit_ratios", "block_mean_step", "build_allocation",
    "lambda_adapt", "linearity_fit", "qp_offset",
    "RdCurve", "bd_quality", "bd_rate",
    "BlockGrid", "RasterImage", "YuvFrame", "block_partition",
    "load_ppm", "rgb_to_gray", "rgb_to_yuv420", "save_ppm", "write_yuv420",
    "MetricReport", "lpips_to_db", "metric_report", "ms_ssim", "psnr", "ssim",
    "ModelWeights", "StepMap", "infer_step_map", "load_weights",
    "make_random_weights", "read_step_map", "save_weights",
    "softplus", "write_step_map",
    "RdPoint", "encode_image", "golomb_bits",
]
