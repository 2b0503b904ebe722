"""Forward inference for the quantization-step generation network.

The network maps an RGB image to a positive step map at 1/16 spatial
resolution: a strided convolutional stem, residual blocks, and a single
channel head passed through softplus. Weights travel in the QSNW2
format: ASCII lines giving the layer shapes, then every parameter as
raw little-endian float32. Convolutions run channels-last in float32
as one matrix product per band of output rows. The bands of a layer are
dealt round-robin to one lane per CPU the process may run on, lane 0 in
the caller and the others on worker threads, each lane with its own
columns buffer. One driver runs the layers of both conv2d and
infer_step_map: it allocates its buffers once, in two blocks that every
layer reuses, and starts its worker threads once. Each band is the same
matrix product at any lane count, so the same image and weights give
byte-identical results run to run on one host. The softplus head runs
in float64.

No trained weights ship with the package. ``make_random_weights`` builds
a seeded instance of the reference layer plan for tests and demos;
production step maps come from externally trained weights or directly
from QSMAP files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._fileio import atomic_write_bytes, parse_ints, read_grid, write_grid
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

_BAND_FLOATS = 1 << 18  # float32 columns per band of output rows (1 MB), one row at least


@dataclass(frozen=True)
class ConvLayer:
    """One convolution: float32 weights (out, in, k, k) and bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int

    def __post_init__(self):
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ValueError("weights must be (out, in, k, k)")
        if 0 in self.weights.shape:
            raise ValueError(f"weights of shape {self.weights.shape} have an empty axis")
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

    @cached_property
    def _gemm_matrix(self) -> np.ndarray:
        """The (k*k*in, out) matrix of one output pixel's channels-last
        window, built on first use and read-only; the layer's weights
        must not change after that."""
        matrix = np.ascontiguousarray(
            self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels))
        matrix.flags.writeable = False
        return matrix


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


@dataclass(frozen=True)
class ModelWeights:
    """Ordered layer stack (ConvLayer or ResBlock entries)."""

    layers: tuple


def _convs(layers) -> list:
    """The convolutions of layers in order, a ResBlock's two in turn."""
    return [conv for layer in layers for conv in
            ((layer,) if isinstance(layer, ConvLayer) else (layer.conv1, layer.conv2))]


@dataclass(frozen=True)
class StepMap:
    """(rows, cols) positive step values at 1/16 image resolution."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("step map must be 2-D")
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise ValueError("step map values must be finite and positive")


# ---------------------------------------------------------------------------
# QSNW2 weight format
# ---------------------------------------------------------------------------

_HEADER_LINE_BYTES = 256  # the most one header line may take, newline included


def load_weights(path: str | os.PathLike) -> ModelWeights:
    """Read a QSNW2 weight file.

    Layout: ASCII header lines, each one record: the magic ``QSNW2``,
    ``layers N``, one ``conv IN OUT K STRIDE`` or ``resblock CH`` line
    per layer, then ``data``. A line may end in CRLF and its tokens may
    be split by any spaces or tabs; any other layout, such as a blank
    line or two records on one line, is a FormatError. Every parameter
    follows the data line as a little-endian float32, layer by layer:
    out-channel-major weights, then biases, and a resblock carries its
    two convolutions in order. Nothing follows the last parameter.

    Each header line is one bounded readline, so a file of another kind
    is rejected at its first line. The payload must hold exactly the
    parameters the header declares, each one finite; they are returned
    as native float32 copies.
    """
    with open(path, "rb") as fh:

        def fields() -> list[str]:
            raw = fh.readline(_HEADER_LINE_BYTES)
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not ASCII text") from exc
            if not line.endswith("\n"):
                if len(raw) < _HEADER_LINE_BYTES:
                    raise FormatError(f"{path}: file ends early in the header")
                raise FormatError(f"{path}: header line longer than "
                                  f"{_HEADER_LINE_BYTES} bytes")
            return line.split()

        magic = fields()
        if magic != ["QSNW2"]:
            if magic and magic[0] != "QSNW2" and magic[0].startswith("QSNW"):
                raise FormatError(f"{path}: unsupported version {magic[0]!r}")
            raise FormatError(f"{path}: bad magic {' '.join(magic)!r}, expected QSNW2")
        kw = fields()
        try:
            (n_layers,) = parse_ints(kw[1:])
        except ValueError as exc:
            raise FormatError(f"{path}: expected 'layers N' after the magic") from exc
        if kw[0] != "layers" or n_layers < 1:
            raise FormatError(f"{path}: expected 'layers N' after the magic")

        # (c_in, c_out, k, stride) of each layer's convolutions, in file order
        plan = []
        for idx in range(n_layers):
            kind, *header = fields() or [""]
            if kind not in ("conv", "resblock"):
                raise FormatError(f"{path}: unknown layer kind {kind!r} in layer {idx}")
            try:
                dims = parse_ints(header)
            except ValueError as exc:
                raise FormatError(f"{path}: bad {kind} header in layer {idx}") from exc
            if len(dims) != (4 if kind == "conv" else 1) or min(dims) < 1:
                raise FormatError(f"{path}: bad {kind} header in layer {idx}")
            plan.append([tuple(dims)] if kind == "conv" else [(dims[0], dims[0], 3, 1)] * 2)
        if fields() != ["data"]:
            raise FormatError(f"{path}: expected 'data' after the layer headers")
        payload = fh.read()

    # out-channel-major weights, then biases, of each convolution in turn
    sizes = [n for convs in plan for c_in, c_out, k, _ in convs
             for n in (c_out * c_in * k * k, c_out)]
    extra = len(payload) - 4 * sum(sizes)
    if extra < 0:
        raise FormatError(f"{path}: parameter count mismatch, file ends early")
    if extra:
        raise FormatError(f"{path}: parameter count mismatch, {extra} trailing bytes")
    values = np.frombuffer(payload, "<f4")
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite parameter")
    pieces = iter(np.split(values, np.cumsum(sizes)[:-1]))

    def conv(c_in: int, c_out: int, k: int, stride: int) -> ConvLayer:
        w = next(pieces).astype(np.float32).reshape(c_out, c_in, k, k)
        return ConvLayer(weights=w, bias=next(pieces).astype(np.float32), stride=stride)

    layers = []
    for convs in plan:
        built = [conv(*dims) for dims in convs]
        layers.append(built[0] if len(built) == 1 else ResBlock(*built))
    return ModelWeights(layers=tuple(layers))


def save_weights(weights: ModelWeights, path: str | os.PathLike) -> None:
    """Write QSNW2: the ASCII header, then every parameter as a
    little-endian float32 in the order load_weights reads them. A
    parameter that is not finite as a float32 is a ValueError."""
    lines = ["QSNW2", f"layers {len(weights.layers)}"]
    for layer in weights.layers:
        if isinstance(layer, ConvLayer):
            lines.append(f"conv {layer.in_channels} {layer.out_channels} "
                         f"{layer.kernel_size} {layer.stride}")
        else:
            lines.append(f"resblock {layer.conv1.in_channels}")
    lines.append("data\n")
    params = [a.reshape(-1) for c in _convs(weights.layers) for a in (c.weights, c.bias)]
    with np.errstate(over="ignore"):  # a float64 beyond float32 range is refused below
        payload = np.concatenate(params, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError("non-finite parameter; load_weights would refuse the file")
    payload = payload.tobytes()  # frees the array before the header is joined on
    atomic_write_bytes(path, "\n".join(lines).encode("ascii") + payload)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _geometry(layer: ConvLayer, h: int, w: int) -> tuple[int, ...]:
    """(out_h, out_w, pad_h, pad_w, rows) of layer on an h x w input:
    output dims, total pad rows and columns, and output rows per band."""
    s, k = layer.stride, layer.kernel_size
    out_h, out_w = -(-h // s), -(-w // s)
    pad_h = max((out_h - 1) * s + k - h, 0)
    pad_w = max((out_w - 1) * s + k - w, 0)
    rows = max(1, min(out_h, _BAND_FLOATS // (k * k * layer.in_channels * out_w)))
    return out_h, out_w, pad_h, pad_w, rows


def _plan(convs, h: int, w: int, c: int) -> tuple[int, ...]:
    """Walk convs in order from an h x w input of c channels; a
    convolution that does not take the channels reaching it is an
    InferenceError. Returns (padded, cols, act, bands, stride): the
    floats of the largest padded input, columns buffer (one lane's) and
    convolution output that _conv_into needs, the most bands of any
    convolution and the strides composed."""
    padded = cols = act = bands = 0
    stride = 1
    for conv in convs:
        if conv.in_channels != c:
            raise InferenceError(f"channel mismatch: input has {c} channels, "
                                 f"layer expects {conv.in_channels}")
        out_h, out_w, pad_h, pad_w, rows = _geometry(conv, h, w)
        k = conv.kernel_size
        padded = max(padded, (h + pad_h) * (w + pad_w) * c)
        cols = max(cols, rows * out_w * k * k * c)
        bands = max(bands, -(-out_h // rows))
        c, h, w = conv.out_channels, out_h, out_w
        act, stride = max(act, c * h * w), stride * conv.stride
    return padded, cols, act, bands, stride


def _lane_count(bands: int) -> int:
    """Lanes for work of this many bands: one per CPU the process may
    run on, and no more than there are bands."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, bands)


def _workers(lanes: int):
    """A pool of up to lanes - 1 worker threads, closed on exit. A thread
    starts only when a lane is submitted, so one lane starts none.
    concurrent.futures is imported here, so that importing this module
    does not pay for it."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(1, lanes - 1), thread_name_prefix="qpalloc-lane")


def _conv_into(x: np.ndarray, layer: ConvLayer, padded_buf: np.ndarray,
               cols_bufs: np.ndarray, out_buf: np.ndarray, pool) -> np.ndarray:
    """conv2d of a channels-last x (h, w, c) through float32 buffers the
    caller owns, each at least as long as _plan says: cols_bufs
    holds one columns buffer per lane in its rows. The bands are dealt
    round-robin to one lane per row, and no more lanes than bands: lane
    0 runs here and the others on pool's threads, so with one row every
    band runs here and pool starts no thread. Each lane ignores float
    overflow and invalid results; infer_step_map checks the steps they
    lead to. Returns the (out_h, out_w, out) view of out_buf. x is read
    only while the padded input is filled, so out_buf may hold x."""
    h, w, c = x.shape
    s, k = layer.stride, layer.kernel_size
    out_h, out_w, pad_h, pad_w, rows = _geometry(layer, h, w)
    top, left = pad_h // 2, pad_w // 2
    padded = padded_buf[:(h + pad_h) * (w + pad_w) * c].reshape(h + pad_h, w + pad_w, c)
    padded[top:top + h, left:left + w] = x
    padded[:top, left:left + w] = padded[top, left:left + w]
    padded[top + h:, left:left + w] = padded[top + h - 1, left:left + w]
    padded[:, :left] = padded[:, left:left + 1]
    padded[:, left + w:] = padded[:, left + w - 1:left + w]
    # taps[i, j, kr] is the k*c floats of padded row i*s + kr from column j*s
    row, col, one = padded.strides
    taps = np.lib.stride_tricks.as_strided(
        padded, (out_h, out_w, k, k * c), (s * row, s * col, row, one), writeable=False)
    weights = layer._gemm_matrix
    # the biases of a whole output row: added per pixel, numpy loops out floats at a time
    bias = np.tile(layer.bias, out_w)
    out = out_buf[:out_h * out_w * layer.out_channels].reshape(out_h, -1)
    lanes = min(len(cols_bufs), -(-out_h // rows))

    def lane(i: int) -> None:
        # numpy's error state is per thread, so each lane sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            for r0 in range(i * rows, out_h, lanes * rows):
                m = min(rows, out_h - r0)
                cols = cols_bufs[i, :m * out_w * k * k * c].reshape(m, out_w, k, k * c)
                cols[...] = taps[r0:r0 + m]
                band = out[r0:r0 + m]
                np.matmul(cols.reshape(m * out_w, -1), weights,
                          out=band.reshape(m * out_w, layer.out_channels))
                band += bias

    others = [pool.submit(lane, i) for i in range(1, lanes)]
    lane(0)
    for done in others:
        done.result()
    return out.reshape(out_h, out_w, layer.out_channels)


def _run(x: np.ndarray, layers) -> np.ndarray:
    """Run layers (ConvLayer or ResBlock entries) over a channels-last
    float32 x (h, w, c) and return the (h, w, c) view of the last
    layer's output.

    The run allocates two blocks that every layer reuses, a workspace
    (the largest padded input, one largest columns buffer per lane and,
    for a plan with a residual block, a scratch activation buffer) and
    the activation buffer, and starts its lanes' worker threads once,
    for every layer (lanes: one per CPU the process may run on, at most
    the most bands of any layer). A plain convolution writes the
    activation buffer, over its own input when that lies there. A
    residual block runs its first convolution into the scratch, applies
    ReLU there in place, runs its second convolution over it in place
    and adds the result into x, so a plan that starts with a residual
    block adds into x itself.
    """
    padded_n, cols_n, act_n, bands, _ = _plan(_convs(layers), *x.shape)
    lanes = _lane_count(bands)
    # One block for the padded input, the residual scratch and every
    # lane's columns: glibc hands the heap back to the OS on a free once
    # its free top reaches twice the largest block it freed from mmap,
    # and the next call faults it back in. Allocated apart, with two
    # lanes, they took about 1,000 faults per call (64 channels at
    # 64x64), and so did one lane at 128x128 with the scratch in the
    # activation buffer's block. The activation buffer, which the result
    # views, is a block of its own, so that a result does not keep the
    # workspace alive.
    scratch_n = act_n if any(isinstance(layer, ResBlock) for layer in layers) else 0
    ws = np.empty(padded_n + scratch_n + lanes * cols_n, np.float32)
    padded, scratch = ws[:padded_n], ws[padded_n:padded_n + scratch_n]
    cols = ws[padded_n + scratch_n:].reshape(lanes, cols_n)
    act = np.empty(act_n, np.float32)
    with _workers(lanes) as pool:
        for layer in layers:
            if isinstance(layer, ConvLayer):
                x = _conv_into(x, layer, padded, cols, act, pool)
            else:
                y = _conv_into(x, layer.conv1, padded, cols, scratch, pool)
                np.maximum(y, np.float32(0.0), out=y)
                x += _conv_into(y, layer.conv2, padded, cols, scratch, pool)
    return x


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Strided convolution with same-ceil geometry and replicate padding.

    Output dims are ceil(input/stride); the total pad per axis is
    max((out-1)*stride + k - in, 0) with floor(pad/2) on the leading
    side. x (c, h, w) is edge-padded channels-last, so each kernel row
    of an output pixel's window is k*c consecutive floats; a band of
    output rows copies its windows into a bounded columns buffer in one
    step for one float32 GEMM with the weights, and the bias is added.
    The bands run on one lane per CPU the process may run on, each lane
    with its own columns buffer; a layer of one band runs here and
    starts no thread. An x with an empty spatial axis is an
    InferenceError, and a layer that is not a ConvLayer a TypeError.
    Returns an (out, out_h, out_w) view of a channels-last result that
    holds the output alone. This is the driver of a forward pass run
    over one layer, so each call allocates its own workspace and starts
    its own worker threads. The same input
    and layer give byte-identical results run to run on one host, at
    any lane count. A float32 overflow gives inf or nan and no warning.
    """
    if not isinstance(layer, ConvLayer):
        raise TypeError(f"conv2d runs one ConvLayer, got {type(layer).__name__}")
    if np.ndim(x) != 3:
        raise InferenceError("conv2d input must be (channels, height, width), "
                             f"got shape {np.shape(x)}")
    if 0 in np.shape(x)[1:]:
        raise InferenceError(f"conv2d input of shape {np.shape(x)} has an empty spatial axis")
    x = np.asarray(x, dtype=np.float32).transpose(1, 2, 0)
    return _run(x, (layer,)).transpose(2, 0, 1)


def softplus(x):
    """ln(1 + e^x) in float64, as np.logaddexp(0, x), which neither
    overflows for large x nor loses the tail for very negative x."""
    out = np.logaddexp(0.0, np.asarray(x, np.float64))
    return float(out) if np.ndim(x) == 0 else out


def infer_step_map(img: RasterImage, weights: ModelWeights) -> StepMap:
    """Run the network; softplus of the head's output gives the steps.

    The pixels, divided by 255 into a float32 copy of their own, run
    channels-last through one forward pass of every layer (see _run),
    and softplus in float64 turns the head's single channel into steps.
    Weights that do not fit the image raise InferenceError before the
    pass runs, and weights whose pass gives a step value that is not
    finite and positive raise it after: a float32 overflow, or a head
    output so negative that softplus underflows to 0. Neither warns. The
    convolutions already run one lane per CPU, and BLAS threads
    multiply with the lanes: a library caller should set
    OPENBLAS_NUM_THREADS=1 before numpy is first imported, as the CLI
    does."""
    if img.channels != 3:
        raise InferenceError("inference requires a 3-channel image")
    convs = _convs(weights.layers)
    stride = _plan(convs, img.height, img.width, 3)[-1]
    if stride != DOWNSAMPLE_FACTOR:
        raise InferenceError(
            f"layer strides compose to x{stride}, need exactly x{DOWNSAMPLE_FACTOR}")
    if convs[-1].out_channels != 1:
        raise InferenceError("final layer must produce a single channel")
    x = np.divide(img.pixels, np.float32(255.0), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        values = softplus(_run(x, weights.layers)[:, :, 0])
        if not (np.isfinite(values) & (values > 0)).all():
            raise InferenceError("weights give step values that are not finite and positive")
    return StepMap(values=values)


# ---------------------------------------------------------------------------
# QSMAP step-map files
# ---------------------------------------------------------------------------

def read_step_map(path: str | os.PathLike) -> StepMap:
    """Read a QSMAP file: 'QSMAP 1', then 'W H', then H rows of W values."""
    _, _, values = read_grid(path, ("QSMAP",), 0)
    if not np.all(values > 0):
        raise FormatError(f"{path}: step values must be positive")
    return StepMap(values=values)


def write_step_map(step_map: StepMap, path: str | os.PathLike) -> None:
    write_grid(path, "QSMAP", (), step_map.values, integer=False)


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
