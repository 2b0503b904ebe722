"""Forward inference for the quantization-step generation network.

The network maps an RGB image to a positive step map at 1/16 spatial
resolution: a strided convolutional stem, residual blocks, and a single
channel head passed through softplus. Weights travel in the text QSNW1
format. Convolutions run in float32 as one matrix product per band of
output rows; the same image and weights give byte-identical results
run to run on one host. The softplus head runs in float64.

No trained weights ship with the package. ``make_random_weights`` builds
a seeded instance of the reference layer plan for tests and demos;
production step maps come from externally trained weights or directly
from QSMAP files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text, lax_reals, parse_ints
from .errors import FormatError, InferenceError
from .imageio import RasterImage

__all__ = [
    "ConvLayer",
    "ResBlock",
    "ModelWeights",
    "StepMap",
    "load_weights",
    "save_weights",
    "conv2d",
    "softplus",
    "infer_step_map",
    "read_step_map",
    "write_step_map",
    "make_random_weights",
]

DOWNSAMPLE_FACTOR = 16
_BAND_FLOATS = 1 << 18  # float32 columns per conv2d band, about 1 MB


@dataclass(frozen=True)
class ConvLayer:
    """One convolution: float32 weights (out, in, k, k) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int

    def __post_init__(self):
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ValueError("weights must be (out, in, k, k)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must equal the output channel count")
        if self.stride < 1:
            raise ValueError("stride must be positive")

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class ResBlock:
    """conv3x3 -> ReLU -> conv3x3 plus identity skip, stride 1 throughout."""

    conv1: ConvLayer
    conv2: ConvLayer

    def __post_init__(self):
        ch = self.conv1.in_channels
        for conv in (self.conv1, self.conv2):
            if conv.in_channels != ch or conv.out_channels != ch:
                raise ValueError("residual convolutions must preserve the channel count")
            if conv.kernel_size != 3 or conv.stride != 1:
                raise ValueError("residual convolutions are 3x3 stride 1")

    @property
    def channels(self) -> int:
        return self.conv1.in_channels


@dataclass(frozen=True)
class ModelWeights:
    """Ordered layer stack (ConvLayer or ResBlock entries)."""

    layers: tuple

    @property
    def total_stride(self) -> int:
        s = 1
        for layer in self.layers:
            if isinstance(layer, ConvLayer):
                s *= layer.stride
        return s

    @property
    def in_channels(self) -> int:
        first = self.layers[0]
        return first.in_channels if isinstance(first, ConvLayer) else first.channels

    @property
    def out_channels(self) -> int:
        last = self.layers[-1]
        return last.out_channels if isinstance(last, ConvLayer) else last.channels


@dataclass(frozen=True)
class StepMap:
    """Positive step values at 1/16 image resolution, row-major."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("step map must be 2-D")
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise ValueError("step map values must be finite and positive")

    @property
    def grid_h(self) -> int:
        return self.values.shape[0]

    @property
    def grid_w(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# QSNW1 weight format
# ---------------------------------------------------------------------------

def load_weights(path: str | os.PathLike) -> ModelWeights:
    """Parse a QSNW1 text weight file.

    Layout: magic line ``QSNW1``, a ``layers N`` line, then per layer a
    ``conv IN OUT K STRIDE`` or ``resblock CH`` header followed by its
    parameters (out-channel-major weights, then biases; a resblock
    carries its two convolutions in order). Values parse as float64 and
    are stored as float32.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens, lax = text.split(), lax_reals(text)
    del text  # the tokens are all the parse needs; this keeps peak memory down
    cursor = 0

    def take(n: int) -> list[str]:
        nonlocal cursor
        if cursor + n > len(tokens):
            raise FormatError(f"{path}: parameter count mismatch, file ends early")
        out = tokens[cursor:cursor + n]
        cursor += n
        return out

    magic = take(1)[0]
    if magic != "QSNW1":
        if magic.startswith("QSNW"):
            raise FormatError(f"{path}: unsupported version {magic!r}")
        raise FormatError(f"{path}: bad magic {magic!r}, expected QSNW1")
    kw, count = take(2)
    if kw != "layers" or not count.isdigit() or int(count) < 1:
        raise FormatError(f"{path}: expected 'layers N' after the magic")
    n_layers = int(count)

    def take_floats(n: int, what: str) -> np.ndarray:
        raw = take(n)
        try:
            arr = np.array([float(t) for t in raw], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric value in {what}") from exc
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite value in {what}")
        return arr

    def take_conv(c_in: int, c_out: int, k: int, stride: int, what: str) -> ConvLayer:
        w = take_floats(c_out * c_in * k * k, what + " weights")
        b = take_floats(c_out, what + " bias")
        return ConvLayer(weights=w.reshape(c_out, c_in, k, k).astype(np.float32),
                         bias=b.astype(np.float32), stride=stride)

    layers = []
    for idx in range(n_layers):
        kind = take(1)[0]
        if kind == "conv":
            dims = take(4)
            try:
                c_in, c_out, k, stride = parse_ints(dims)
            except ValueError as exc:
                raise FormatError(f"{path}: bad conv header in layer {idx}") from exc
            if min(c_in, c_out, k, stride) < 1:
                raise FormatError(f"{path}: bad conv header in layer {idx}")
            layers.append(take_conv(c_in, c_out, k, stride, f"layer {idx}"))
        elif kind == "resblock":
            try:
                (ch,) = parse_ints(take(1))
            except ValueError as exc:
                raise FormatError(f"{path}: bad resblock header in layer {idx}") from exc
            if ch < 1:
                raise FormatError(f"{path}: bad resblock header in layer {idx}")
            conv1 = take_conv(ch, ch, 3, 1, f"layer {idx} (resblock conv1)")
            conv2 = take_conv(ch, ch, 3, 1, f"layer {idx} (resblock conv2)")
            layers.append(ResBlock(conv1=conv1, conv2=conv2))
        else:
            raise FormatError(f"{path}: unknown layer kind {kind!r} in layer {idx}")
    if lax:  # every header field parsed above, so a weight or bias holds it
        raise FormatError(f"{path}: non-numeric value ('_' or a leading '+')")
    if cursor != len(tokens):
        raise FormatError(
            f"{path}: parameter count mismatch, {len(tokens) - cursor} trailing values")
    return ModelWeights(layers=tuple(layers))


def save_weights(weights: ModelWeights, path: str | os.PathLike) -> None:
    """Write QSNW1 text; float32 parameters serialize exactly via repr."""
    lines = ["QSNW1", f"layers {len(weights.layers)}"]

    def emit_params(conv: ConvLayer) -> None:
        lines.append(" ".join(repr(float(v)) for v in conv.weights.reshape(-1)))
        lines.append(" ".join(repr(float(v)) for v in conv.bias))

    for layer in weights.layers:
        if isinstance(layer, ConvLayer):
            lines.append(f"conv {layer.in_channels} {layer.out_channels} "
                         f"{layer.kernel_size} {layer.stride}")
            emit_params(layer)
        else:
            lines.append(f"resblock {layer.channels}")
            emit_params(layer.conv1)
            emit_params(layer.conv2)
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Strided convolution with same-ceil geometry and replicate padding.

    Output dims are ceil(input/stride); the total pad per axis is
    max((out-1)*stride + k - in, 0) with floor(pad/2) on the leading
    side. The padded input is split into stride x stride flattened phase
    planes, so each kernel tap over a band of output rows is a contiguous
    slice; the k*k slices of a band are stacked into a bounded columns
    buffer for one float32 GEMM with the weights, and the bias is added.
    The same input and layer give byte-identical results run to run on
    one host.
    """
    if x.ndim != 3 or x.shape[0] != layer.in_channels:
        raise InferenceError(
            f"channel mismatch: input has {x.shape[0] if x.ndim == 3 else '?'} "
            f"channels, layer expects {layer.in_channels}")
    x = np.asarray(x, dtype=np.float32)
    c, h, w = x.shape
    s, k = layer.stride, layer.kernel_size
    out_h, out_w = -(-h // s), -(-w // s)
    pad_h = max((out_h - 1) * s + k - h, 0)
    pad_w = max((out_w - 1) * s + k - w, 0)
    qh, qw = -(-(h + pad_h) // s), -(-(w + pad_w) // s)  # whole phase planes
    planes = np.pad(x, ((0, 0), (pad_h // 2, qh * s - h - pad_h // 2),
                        (pad_w // 2, qw * s - w - pad_w // 2)), mode="edge")
    planes = planes.reshape(c, qh, s, qw, s).transpose(2, 4, 0, 1, 3).reshape(s, s, c, -1)
    weights = layer.weights.transpose(0, 2, 3, 1).reshape(layer.out_channels, -1)
    out = np.empty((layer.out_channels, out_h * qw), np.float32)
    rows = max(1, min(out_h, _BAND_FLOATS // (k * k * c * qw)))
    buf = np.empty(k * k * c * ((rows - 1) * qw + out_w), np.float32)
    for r0 in range(0, out_h, rows):
        # The band's last row stops at out_w, so no slice reads past a plane.
        n = (min(rows, out_h - r0) - 1) * qw + out_w
        cols = buf[:k * k * c * n].reshape(k, k, c, n)
        for kr, kc in np.ndindex(k, k):
            off = (kr // s + r0) * qw + kc // s
            cols[kr, kc] = planes[kr % s, kc % s, :, off:off + n]
        band = np.matmul(weights, cols.reshape(-1, n), out=out[:, r0 * qw:r0 * qw + n])
        band += layer.bias[:, None]
    return out.reshape(layer.out_channels, out_h, qw)[:, :, :out_w]


def softplus(x):
    """ln(1 + e^x), overflow-safe: for large x this is x + ln(1 + e^-x)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(arr > 30.0,
                   arr + np.log1p(np.exp(-np.abs(arr))),
                   np.log1p(np.exp(np.minimum(arr, 30.0))))
    return float(out) if np.ndim(x) == 0 else out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0.0))


def _forward(img: RasterImage, weights: ModelWeights) -> np.ndarray:
    """Pre-activation head output (single channel, float32)."""
    if img.channels != 3:
        raise InferenceError("inference requires a 3-channel image")
    if weights.total_stride != DOWNSAMPLE_FACTOR:
        raise InferenceError(
            f"layer strides compose to x{weights.total_stride}, "
            f"need exactly x{DOWNSAMPLE_FACTOR}")
    if weights.out_channels != 1:
        raise InferenceError("final layer must produce a single channel")

    x = np.ascontiguousarray(
        img.pixels.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0))
    for layer in weights.layers:
        if isinstance(layer, ConvLayer):
            x = conv2d(x, layer)
        else:
            x = x + conv2d(_relu(conv2d(x, layer.conv1)), layer.conv2)
    return x[0]


def infer_step_map(img: RasterImage, weights: ModelWeights) -> StepMap:
    """Run the network; softplus keeps every output strictly positive."""
    return StepMap(values=softplus(_forward(img, weights)))


# ---------------------------------------------------------------------------
# QSMAP step-map files
# ---------------------------------------------------------------------------

def read_step_map(path: str | os.PathLike) -> StepMap:
    """Read a QSMAP file: 'QSMAP 1', then 'W H', then H rows of W values."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "QSMAP" or tokens[1] != "1":
        raise FormatError(f"{path}: expected 'QSMAP 1' header")
    try:
        w, h = parse_ints(tokens[2:4])
    except ValueError as exc:
        raise FormatError(f"{path}: bad dimensions line") from exc
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    if len(tokens) != 4 + w * h:
        raise FormatError(f"{path}: expected {w * h} values, found {len(tokens) - 4}")
    if lax_reals(text):
        raise FormatError(f"{path}: non-numeric step value")
    try:
        values = np.array([float(t) for t in tokens[4:]], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric step value") from exc
    if not np.all(np.isfinite(values)) or not np.all(values > 0):
        raise FormatError(f"{path}: step values must be finite and positive")
    return StepMap(values=values.reshape(h, w))


def write_step_map(step_map: StepMap, path: str | os.PathLike) -> None:
    lines = ["QSMAP 1", f"{step_map.grid_w} {step_map.grid_h}"]
    for row in step_map.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reference layer plan with seeded parameters (tests, demos)
# ---------------------------------------------------------------------------

def make_random_weights(seed: int, width: int = 64) -> ModelWeights:
    """Seeded weights for the reference plan: a stride-2 stem, three
    (resblock, stride-2 conv) stages, a final resblock, and a 1-channel
    head. Strides compose to x16.

    Weights are normal with 1/sqrt(fan-in) scale and zero biases, which
    keeps pre-activations small enough that softplus stays well away
    from float underflow.
    """
    rng = np.random.default_rng(seed)

    def conv(c_in, c_out, k, stride):
        scale = 1.0 / np.sqrt(c_in * k * k)
        w = rng.normal(0.0, scale, size=(c_out, c_in, k, k))
        return ConvLayer(weights=w.astype(np.float32),
                         bias=np.zeros(c_out, np.float32), stride=stride)

    def res(ch):
        return ResBlock(conv1=conv(ch, ch, 3, 1), conv2=conv(ch, ch, 3, 1))

    layers = [conv(3, width, 3, 2)]
    for _ in range(3):
        layers.append(res(width))
        layers.append(conv(width, width, 3, 2))
    layers.append(res(width))
    layers.append(conv(width, 1, 3, 1))
    return ModelWeights(layers=tuple(layers))
