"""qpalloc: block-level QP offset maps from learned quantization-step maps.

The pipeline: infer (or load) a positive step map at 1/16 image
resolution, average it per 64x64 block, normalize the reciprocals into a
bit-ratio map, and round the ratios into clamped integer QP offsets plus
matching rate-distortion multiplier scales. Companion modules score
image pairs (PSNR/SSIM/MS-SSIM), compute BD-rate between rate-quality
curves, and verify rate effects with a toy DCT codec.

Each public name is imported from the module that defines it, for
example ``from qpalloc.alloc import build_allocation``. Importing the
package itself loads no submodule and no numpy.
"""

__version__ = "0.1.0"
