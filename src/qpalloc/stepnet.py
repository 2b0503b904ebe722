"""Forward inference for the quantization-step generation network.

The network maps an RGB image to a positive step map at 1/16 spatial
resolution: a strided convolutional stem, residual blocks, and a single
channel head passed through softplus. Weights travel in the text QSNW1
format, which the loader reads a few lines at a time. Convolutions run
in float32 as one matrix product per band of output rows, and a forward
pass allocates one workspace that every layer reuses; the same image
and weights give byte-identical results run to run on one host. The
softplus head runs in float64.

No trained weights ship with the package. ``make_random_weights`` builds
a seeded instance of the reference layer plan for tests and demos;
production step maps come from externally trained weights or directly
from QSMAP files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._fileio import TokenReader, atomic_write_text, parse_ints, parse_reals, read_text
from .errors import FormatError, InferenceError
from .imageio import DOWNSAMPLE_FACTOR, RasterImage

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
    carries its two convolutions in order). Each block of values parses
    as finite float64 in one parse_reals pass and is stored as float32.

    Tokens stream in through a TokenReader, whole lines about 64 KB at a
    time, so the loader holds the arrays parsed so far and the tokens of
    the lines in hand, not the file. save_weights writes one block per
    line, so such a file peaks at about its largest block. Any other
    whitespace layout loads to the same bits; a file written all on one
    line holds all its tokens at once and peaks as high as splitting the
    whole file.
    """
    with TokenReader(path) as reader:

        def take(n: int) -> list[str]:
            out = reader.take(n)
            if len(out) < n:
                raise FormatError(f"{path}: parameter count mismatch, file ends early")
            return out

        magic = take(1)[0]
        if magic != "QSNW1":
            if magic.startswith("QSNW"):
                raise FormatError(f"{path}: unsupported version {magic!r}")
            raise FormatError(f"{path}: bad magic {magic!r}, expected QSNW1")
        kw, count = take(2)
        try:
            (n_layers,) = parse_ints([count])
        except ValueError as exc:
            raise FormatError(f"{path}: expected 'layers N' after the magic") from exc
        if kw != "layers" or n_layers < 1:
            raise FormatError(f"{path}: expected 'layers N' after the magic")

        def take_floats(n: int, what: str) -> np.ndarray:
            raw = take(n)
            try:
                return parse_reals(raw)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc} in {what}") from exc

        def take_conv(c_in: int, c_out: int, k: int, stride: int, what: str) -> ConvLayer:
            w = take_floats(c_out * c_in * k * k, what + " weights")
            b = take_floats(c_out, what + " bias")
            return ConvLayer(weights=w.reshape(c_out, c_in, k, k).astype(np.float32),
                             bias=b.astype(np.float32), stride=stride)

        layers = []
        for idx in range(n_layers):
            kind = take(1)[0]
            if kind not in ("conv", "resblock"):
                raise FormatError(f"{path}: unknown layer kind {kind!r} in layer {idx}")
            header = take(4 if kind == "conv" else 1)
            try:
                dims = parse_ints(header)
            except ValueError as exc:
                raise FormatError(f"{path}: bad {kind} header in layer {idx}") from exc
            if min(dims) < 1:
                raise FormatError(f"{path}: bad {kind} header in layer {idx}")
            if kind == "conv":  # IN OUT K STRIDE
                layers.append(take_conv(*dims, f"layer {idx}"))
            else:
                (ch,) = dims
                conv1 = take_conv(ch, ch, 3, 1, f"layer {idx} (resblock conv1)")
                conv2 = take_conv(ch, ch, 3, 1, f"layer {idx} (resblock conv2)")
                layers.append(ResBlock(conv1=conv1, conv2=conv2))
        trailing = reader.count_rest()
    if trailing:
        raise FormatError(f"{path}: parameter count mismatch, {trailing} trailing values")
    return ModelWeights(layers=tuple(layers))


def _float32_tokens(values: np.ndarray) -> list[str]:
    """Decimal tokens that load_weights reads back to the same float32 bits.

    Each is Python's correctly rounded 9-significant-digit form of the
    exact float64 widening; 9 digits is the binary32 round-trip bound
    (IEEE 754-2008 5.12.2, C11 FLT_DECIMAL_DIG). The token lies within
    5e-9 relative of the value, the float64 parse adds at most 2^-53, and
    the nearest float32 rounding midpoint is at least 2^-25 relative away
    (2^-24 for subnormals), so the float32 cast returns the original bits.
    """
    flat = np.asarray(values, dtype=np.float32).reshape(-1)
    return [format(v, ".9g") for v in flat.tolist()]


def save_weights(weights: ModelWeights, path: str | os.PathLike) -> None:
    """Write QSNW1 text, one header or block of values per line: each
    float32 parameter as a 9-significant-digit decimal that loads back to
    the same bits (see _float32_tokens)."""
    lines = ["QSNW1", f"layers {len(weights.layers)}"]

    def emit_params(conv: ConvLayer) -> None:
        lines.append(" ".join(_float32_tokens(conv.weights)))
        lines.append(" ".join(_float32_tokens(conv.bias)))

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

def _geometry(layer: ConvLayer, h: int, w: int) -> tuple[int, ...]:
    """(out_h, out_w, top, left, qh, qw, rows) of layer on an h x w input:
    output dims, leading pad rows and columns, phase-plane dims, and
    output rows per band."""
    s, k = layer.stride, layer.kernel_size
    out_h, out_w = -(-h // s), -(-w // s)
    pad_h = max((out_h - 1) * s + k - h, 0)
    pad_w = max((out_w - 1) * s + k - w, 0)
    qh, qw = -(-(h + pad_h) // s), -(-(w + pad_w) // s)  # whole phase planes
    rows = max(1, min(out_h, _BAND_FLOATS // (k * k * layer.in_channels * qw)))
    return out_h, out_w, pad_h // 2, pad_w // 2, qh, qw, rows


def _buffer_floats(layer: ConvLayer, h: int, w: int) -> tuple[int, int, int]:
    """Floats that _conv_into needs for its phase planes, its columns
    buffer and its output rows (which keep the phase-plane pitch)."""
    out_h, out_w, _, _, qh, qw, rows = _geometry(layer, h, w)
    s, k, c = layer.stride, layer.kernel_size, layer.in_channels
    return (s * s * c * qh * qw, k * k * c * ((rows - 1) * qw + out_w),
            layer.out_channels * out_h * qw)


def _phase_spans(first: int, s: int, q: int, n: int) -> list[tuple[slice, slice]]:
    """(plane, source) slice pairs along one axis of a phase plane whose
    entry i holds source index first + i*s clipped to [0, n): a lead that
    repeats index 0, the run inside the source, a tail that repeats n-1."""
    lead = min(q, max(0, -(first // s)))
    start = first + lead * s
    run = min(q - lead, max(0, -(-(n - start) // s)))
    return [(slice(0, lead), slice(0, 1)),
            (slice(lead, lead + run), slice(start, start + run * s, s)),
            (slice(lead + run, q), slice(n - 1, n))]


def _edge_pad(x: np.ndarray, planes: np.ndarray, top: int, left: int) -> None:
    """Replicate-pad x (c, h, w) straight into planes (s, s, c, qh, qw):
    the padded pixel (i*s + ph, j*s + pw) lands at [ph, pw, :, i, j]."""
    s, _, _, qh, qw = planes.shape
    _, h, w = x.shape
    for ph in range(s):
        rows = _phase_spans(ph - top, s, qh, h)
        for pw in range(s):
            cols = _phase_spans(pw - left, s, qw, w)
            for plane_r, src_r in rows:
                for plane_c, src_c in cols:
                    planes[ph, pw, :, plane_r, plane_c] = x[:, src_r, src_c]


def _conv_into(x: np.ndarray, layer: ConvLayer, planes_buf: np.ndarray,
               cols_buf: np.ndarray, out_buf: np.ndarray) -> np.ndarray:
    """conv2d of x (c, h, w) through float32 buffers the caller owns, each
    at least as long as _buffer_floats says. Returns the (out, out_h,
    out_w) view of out_buf. x is read only while the planes are filled,
    so out_buf may hold x."""
    c, h, w = x.shape
    s, k = layer.stride, layer.kernel_size
    out_h, out_w, top, left, qh, qw, rows = _geometry(layer, h, w)
    planes = planes_buf[:s * s * c * qh * qw].reshape(s, s, c, qh, qw)
    _edge_pad(x, planes, top, left)
    planes = planes.reshape(s, s, c, qh * qw)
    weights = layer.weights.transpose(0, 2, 3, 1).reshape(layer.out_channels, -1)
    out = out_buf[:layer.out_channels * out_h * qw].reshape(layer.out_channels, -1)
    for r0 in range(0, out_h, rows):
        # The band's last row stops at out_w, so no slice reads past a plane.
        n = (min(rows, out_h - r0) - 1) * qw + out_w
        cols = cols_buf[:k * k * c * n].reshape(k, k, c, n)
        for kr, kc in np.ndindex(k, k):
            off = (kr // s + r0) * qw + kc // s
            cols[kr, kc] = planes[kr % s, kc % s, :, off:off + n]
        band = np.matmul(weights, cols.reshape(-1, n), out=out[:, r0 * qw:r0 * qw + n])
        band += layer.bias[:, None]
    return out.reshape(layer.out_channels, out_h, qw)[:, :, :out_w]


def _channel_mismatch(has, layer: ConvLayer) -> InferenceError:
    return InferenceError(f"channel mismatch: input has {has} channels, "
                          f"layer expects {layer.in_channels}")


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Strided convolution with same-ceil geometry and replicate padding.

    Output dims are ceil(input/stride); the total pad per axis is
    max((out-1)*stride + k - in, 0) with floor(pad/2) on the leading
    side. The input is edge-padded straight into stride x stride
    flattened phase planes, so each kernel tap over a band of output
    rows is a contiguous slice; the k*k slices of a band are stacked into
    a bounded columns buffer for one float32 GEMM with the weights, and
    the bias is added. Each call allocates its own planes, columns and
    output; a forward pass runs the same kernel in one workspace. The
    same input and layer give byte-identical results run to run on one
    host.
    """
    if x.ndim != 3 or x.shape[0] != layer.in_channels:
        raise _channel_mismatch(x.shape[0] if x.ndim == 3 else "?", layer)
    x = np.asarray(x, dtype=np.float32)
    return _conv_into(x, layer, *(np.empty(n, np.float32)
                                  for n in _buffer_floats(layer, *x.shape[1:])))


def softplus(x):
    """ln(1 + e^x), overflow-safe: for large x this is x + ln(1 + e^-x)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(arr > 30.0,
                   arr + np.log1p(np.exp(-np.abs(arr))),
                   np.log1p(np.exp(np.minimum(arr, 30.0))))
    return float(out) if np.ndim(x) == 0 else out


def _forward(img: RasterImage, weights: ModelWeights) -> np.ndarray:
    """Pre-activation head output (single channel, float32).

    The pass allocates one float32 workspace: the largest phase planes,
    the largest columns buffer and two activation buffers. x lives in the
    first activation buffer throughout: a plain convolution overwrites
    its own input there, and a residual block runs its first convolution
    into the second buffer, applies ReLU there in place, runs its second
    convolution over it in place and adds the result into x.
    """
    if img.channels != 3:
        raise InferenceError("inference requires a 3-channel image")
    if weights.total_stride != DOWNSAMPLE_FACTOR:
        raise InferenceError(
            f"layer strides compose to x{weights.total_stride}, "
            f"need exactly x{DOWNSAMPLE_FACTOR}")
    if weights.out_channels != 1:
        raise InferenceError("final layer must produce a single channel")

    c, h, w = 3, img.height, img.width
    need = [0, 0, c * h * w]  # planes, columns, one activation
    for layer in weights.layers:
        for conv in (layer,) if isinstance(layer, ConvLayer) else (layer.conv1, layer.conv2):
            if conv.in_channels != c:
                raise _channel_mismatch(c, conv)
            need = [max(a, b) for a, b in zip(need, _buffer_floats(conv, h, w))]
            c, h, w = conv.out_channels, -(-h // conv.stride), -(-w // conv.stride)
    planes_n, cols_n, act_n = need
    ws = np.empty(planes_n + cols_n + 2 * act_n, np.float32)
    planes, cols = ws[:planes_n], ws[planes_n:planes_n + cols_n]
    act, scratch = ws[planes_n + cols_n:-act_n], ws[-act_n:]

    x = act[:3 * img.height * img.width].reshape(3, img.height, img.width)
    np.divide(img.pixels.transpose(2, 0, 1), np.float32(255.0), out=x, dtype=np.float32)
    for layer in weights.layers:
        if isinstance(layer, ConvLayer):
            x = _conv_into(x, layer, planes, cols, act)
        else:
            y = _conv_into(x, layer.conv1, planes, cols, scratch)
            np.maximum(y, np.float32(0.0), out=y)
            x += _conv_into(y, layer.conv2, planes, cols, scratch)
    return x[0].copy()


def infer_step_map(img: RasterImage, weights: ModelWeights) -> StepMap:
    """Run the network; softplus keeps every output strictly positive."""
    return StepMap(values=softplus(_forward(img, weights)))


# ---------------------------------------------------------------------------
# QSMAP step-map files
# ---------------------------------------------------------------------------

def read_step_map(path: str | os.PathLike) -> StepMap:
    """Read a QSMAP file: 'QSMAP 1', then 'W H', then H rows of W values."""
    tokens = read_text(path).split()
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
    try:
        values = parse_reals(tokens[4:])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc} among the step values") from exc
    if not np.all(values > 0):
        raise FormatError(f"{path}: step values must be positive")
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
