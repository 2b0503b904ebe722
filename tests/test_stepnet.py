import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpalloc import stepnet
from qpalloc.errors import FormatError, InferenceError
from qpalloc.imageio import RasterImage, save_ppm
from qpalloc.stepnet import (ConvLayer, ModelWeights, ResBlock, StepMap, conv2d,
                             infer_step_map, load_weights,
                             make_random_weights, read_step_map, save_weights,
                             softplus, write_step_map)

from _oracles import port_qsnw1, reference_conv2d, write_qsnw2
from conftest import textured_pixels

MINIMAL_HEADER = ["QSNW2", "layers 1", "conv 3 1 1 1", "data"]
MINIMAL_VALUES = [0.25, 0.5, 0.25, 0.0]
# strict-integer cases first written as QSNW1 literals: each is ported to
# QSNW2 by port_qsnw1 and keeps its literal as its test id
LEGACY_STRICT_HEADERS = [
    ("QSNW1\nlayers 1\nconv 3 1 1 +1\n0.25 0.5 0.25\n0.0\n", "bad conv header"),
    ("QSNW1\nlayers 1\nconv 3 1 1 0_1\n0.25 0.5 0.25\n0.0\n", "bad conv header"),
    ("QSNW1\nlayers 1\nresblock 0_1\n" + "0 " * 20, "bad resblock header"),
]
STRICT_HEADERS = [port_qsnw1(text) + (match,) for text, match in LEGACY_STRICT_HEADERS] + [
    (["QSNW2", "layers 1", "conv 3 1 1", "data"], MINIMAL_VALUES, "bad conv header"),
    (["QSNW2", "layers +1", "conv 3 1 1 1", "data"], MINIMAL_VALUES, "expected 'layers N'"),
    (["QSNW2", "layers 0_1", "conv 3 1 1 1", "data"], MINIMAL_VALUES, "expected 'layers N'"),
]
STRICT_IDS = ([text for text, _ in LEGACY_STRICT_HEADERS]
              + ["conv-short", "layers-plus", "layers-underscore"])
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def reference_plan():
    return make_random_weights(seed=7, width=64)


@pytest.fixture(scope="module")
def reference_plan_file(tmp_path_factory, reference_plan):
    path = tmp_path_factory.mktemp("plan") / "w64.qsnw"
    save_weights(reference_plan, path)
    return path


class TestWeightFormat:
    def test_minimal_single_conv(self, tmp_path):
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, MINIMAL_HEADER, MINIMAL_VALUES)
        weights = load_weights(path)
        assert len(weights.layers) == 1
        layer = weights.layers[0]
        assert (layer.in_channels, layer.out_channels) == (3, 1)
        assert layer.weights.dtype == np.float32 and layer.weights.flags.writeable
        np.testing.assert_array_equal(layer.weights.reshape(-1), [0.25, 0.5, 0.25])
        np.testing.assert_array_equal(layer.bias, [0.0])

    def test_unsupported_version(self, tmp_path):
        # a QSNW1 text file, as the earlier writer made it
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, ["QSNW1", "layers 1", "conv 3 1 1 1", "0.25 0.5 0.25", "0.0"], [])
        with pytest.raises(FormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: unsupported version 'QSNW1'"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text("WEIGHTS\n")
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(path)

    def test_ppm_is_rejected_at_its_first_line(self, tmp_path):
        # every pixel byte is outside ASCII, so reading past "P6" would
        # report "not ASCII text" instead
        path = tmp_path / "frame.ppm"
        save_ppm(RasterImage(pixels=np.full((64, 64, 3), 200, np.uint8)), path)
        with pytest.raises(FormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: bad magic 'P6', expected QSNW2"

    def test_header_lines_are_bounded(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_bytes(b"QSNW2" + b" " * (1 << 20) + b"\n")
        with pytest.raises(FormatError, match="header line longer than 256 bytes"):
            load_weights(path)

    def test_parameter_count_mismatch(self, tmp_path):
        # ten parameters declared; eight given, then nine and three quarters
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, ["QSNW2", "layers 1", "conv 1 1 3 1", "data"], range(1, 9))
        eight = path.read_bytes()
        for data in (eight, eight + b"\x00" * 7):
            path.write_bytes(data)
            with pytest.raises(FormatError) as info:
                load_weights(path)
            assert str(info.value) == f"{path}: parameter count mismatch, file ends early"

    def test_header_claim_allocates_nothing_before_the_payload_is_checked(self, tmp_path):
        # 9.8e13 parameters declared, one given
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, ["QSNW2", "layers 1", "conv 100000 100000 99 1", "data"], [1.0])
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="file ends early"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    @pytest.mark.parametrize("lines,message", [
        (["layers 2", "conv 3 1 1 1"], "unknown layer kind 'data' in layer 1"),
        (["layers 1", "pool 2"], "unknown layer kind 'pool' in layer 0"),
    ], ids=["fewer-layers-than-declared", "unknown-kind"])
    def test_layer_kinds_checked(self, tmp_path, lines, message):
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, ["QSNW2"] + lines + ["data"], MINIMAL_VALUES)
        with pytest.raises(FormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header", ["conv 1 1 1", "resblock"])
    def test_file_ending_in_a_layer_header(self, tmp_path, header):
        path = tmp_path / "w.qsnw"
        path.write_bytes(f"QSNW2\nlayers 1\n{header}".encode("ascii"))
        with pytest.raises(FormatError, match="file ends early"):
            load_weights(path)

    def test_trailing_values_rejected(self, tmp_path):
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, MINIMAL_HEADER, MINIMAL_VALUES)
        exact = path.read_bytes()
        for stray in (1, 3, 4):
            path.write_bytes(exact + b"\x00" * stray)
            with pytest.raises(FormatError) as info:
                load_weights(path)
            assert str(info.value) == f"{path}: parameter count mismatch, {stray} trailing bytes"

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "w.qsnw"
        for value in (math.nan, math.inf, -math.inf):
            write_qsnw2(path, MINIMAL_HEADER, [0.25, value, 0.25, 0.0])
            with pytest.raises(FormatError, match="non-finite"):
                load_weights(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e39])
    def test_save_refuses_non_finite(self, tmp_path, value):
        # load_weights refuses these (above); 1e39 is finite only as a float64
        path = tmp_path / "w.qsnw"
        layer = ConvLayer(weights=np.full((1, 1, 1, 1), value), bias=np.zeros(1), stride=1)
        with pytest.raises(ValueError, match="non-finite parameter"):
            save_weights(ModelWeights(layers=(layer,)), path)
        assert not path.exists()

    @pytest.mark.parametrize("lines,values,match", STRICT_HEADERS, ids=STRICT_IDS)
    def test_layer_headers_are_strict_integers(self, tmp_path, lines, values, match):
        path = tmp_path / "w.qsnw"
        write_qsnw2(path, lines, values)
        with pytest.raises(FormatError, match=match):
            load_weights(path)

    # the payload of the minimal conv holds a byte outside ASCII, so a
    # missing data line is read on into the payload, which is not text; a
    # blank line or one with more than 'data' on it is a wrong record
    @pytest.mark.parametrize("line,match", [
        (None, "not ASCII text"), ("Data", "expected 'data'"),
        ("data 4", "expected 'data' after the layer headers"),
        ("", "expected 'data' after the layer headers")],
        ids=["missing", "capitalised", "with-count", "blank"])
    def test_data_line_required(self, tmp_path, line, match):
        path = tmp_path / "w.qsnw"
        header = MINIMAL_HEADER[:-1] + ([] if line is None else [line])
        write_qsnw2(path, header, MINIMAL_VALUES)
        with pytest.raises(FormatError, match=match):
            load_weights(path)

    def test_byte_order_is_pinned(self, tmp_path):
        path = tmp_path / "w.qsnw"
        save_weights(ModelWeights(layers=(_conv(np.ones((1, 1, 1, 1)), [0.0], 1),)), path)
        assert path.read_bytes() == (b"QSNW2\nlayers 1\nconv 1 1 1 1\ndata\n"
                                     b"\x00\x00\x80\x3f\x00\x00\x00\x00")
        assert load_weights(path).layers[0].weights.item() == 1.0

    def test_resblock_parse_and_roundtrip(self, tmp_path, fixture_weights):
        path = tmp_path / "w.qsnw"
        save_weights(fixture_weights, path)
        again = load_weights(path)
        assert len(again.layers) == len(fixture_weights.layers)
        for a, b in zip(again.layers, fixture_weights.layers):
            if isinstance(a, ConvLayer):
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.bias, b.bias)
            else:
                assert isinstance(b, ResBlock)
                np.testing.assert_array_equal(a.conv1.weights, b.conv1.weights)
                np.testing.assert_array_equal(a.conv2.weights, b.conv2.weights)
        second = tmp_path / "w2.qsnw"
        save_weights(again, second)
        assert path.read_bytes() == second.read_bytes()


FINITE = 0x7F800000  # the non-negative finite patterns are [0, FINITE)
SIGN = 0x80000000
# zero, the smallest and largest subnormal, the smallest normal, the
# largest finite value
EDGE_BITS = [0, 1, 0x007FFFFF, 0x00800000, 0x7F7FFFFF]


def _one_layer(bits) -> ModelWeights:
    """A 1x1 conv holding the float32 values with these bit patterns."""
    values = np.asarray(bits, np.uint32).view(np.float32)
    return ModelWeights(layers=(ConvLayer(weights=values[:-1].reshape(1, -1, 1, 1),
                                          bias=values[-1:], stride=1),))


def _param_bits(weights: ModelWeights) -> np.ndarray:
    convs = [c for layer in weights.layers
             for c in ((layer,) if isinstance(layer, ConvLayer) else (layer.conv1, layer.conv2))]
    return np.concatenate([a.reshape(-1).view(np.uint32)
                           for c in convs for a in (c.weights, c.bias)])


class TestFloat32Tokens:
    """Each parameter is stored as its four float32 bytes and loads back
    to the same bits, whichever writer made the file."""

    @staticmethod
    def _assert_bits_round_trip(tmp_path, bits):
        saved, built = tmp_path / "saved.qsnw", tmp_path / "built.qsnw"
        save_weights(_one_layer(bits), saved)
        write_qsnw2(built, ["QSNW2", "layers 1", f"conv {bits.size - 1} 1 1 1", "data"],
                    bits.view(np.float32).tolist())
        assert saved.read_bytes() == built.read_bytes()
        assert np.array_equal(_param_bits(load_weights(saved)), bits)

    def test_strided_bit_patterns_round_trip_exactly(self, tmp_path):
        half = np.arange(0, FINITE, 1 << 14, dtype=np.uint32)
        bits = np.concatenate((half, half | np.uint32(SIGN)))
        assert bits.size == 261_120
        self._assert_bits_round_trip(tmp_path, bits)

    def test_edges_round_trip_exactly(self, tmp_path):
        bits = np.array(EDGE_BITS + [b | SIGN for b in EDGE_BITS], np.uint32)
        self._assert_bits_round_trip(tmp_path, bits)

    def test_bytes_do_not_depend_on_print_options(self, tmp_path):
        weights = _one_layer(np.array(EDGE_BITS + [0x3DCCCCCD, 0x4B3C614E], np.uint32))
        default, legacy = tmp_path / "default.qsnw", tmp_path / "legacy.qsnw"
        save_weights(weights, default)
        options = np.get_printoptions()
        try:
            np.set_printoptions(legacy="1.13")
            save_weights(weights, legacy)
        finally:
            np.set_printoptions(**options)
        assert legacy.read_bytes() == default.read_bytes()

    def test_reference_plan_load_peak_memory(self, reference_plan_file):
        # The loader holds the 1.63 MB payload and the float32 copies it
        # returns, 3.3 MB traced; the text format it replaced peaked at 5.2 MB.
        tracemalloc.start()
        try:
            load_weights(reference_plan_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# the width-16 plan's header, one record per line, as one line of tokens
ONE_LINE_HEADER = ("QSNW2 layers 9 conv 3 16 3 2" + " resblock 16 conv 16 16 3 2" * 3
                   + " resblock 16 conv 16 1 3 1 data")


class TestHeaderLines:
    """Each header line is one record, as save_weights writes it: CRLF
    endings and extra spaces or tabs between tokens load to the same
    bits, and any other layout of the same tokens is a FormatError."""

    @staticmethod
    def _relay(tmp_path, layout) -> tuple[ModelWeights, Path]:
        """The width-16 plan, and a file of it whose header text, the
        data line included, layout has rewritten."""
        weights = make_random_weights(seed=3, width=16)
        path, relaid = tmp_path / "w.qsnw", tmp_path / "relaid.qsnw"
        save_weights(weights, path)
        head, payload = path.read_bytes().split(b"data\n", 1)
        relaid.write_bytes(layout((head + b"data\n").decode("ascii")).encode("ascii") + payload)
        assert relaid.read_bytes() != path.read_bytes()
        return weights, relaid

    @pytest.mark.parametrize("layout", [
        lambda head: head.replace("\n", "\r\n"),
        lambda head: head.replace(" ", " \t  ").replace("\n", " \t\n"),
    ], ids=["crlf", "spaces-and-tabs"])
    def test_layout_loads_to_the_same_bits(self, tmp_path, layout):
        weights, relaid = self._relay(tmp_path, layout)
        assert np.array_equal(_param_bits(load_weights(relaid)), _param_bits(weights))

    @pytest.mark.parametrize("layout,message", [
        (lambda head: "\n".join(head.split()) + "\n", "expected 'layers N' after the magic"),
        (lambda head: " ".join(head.split()) + "\n",
         f"bad magic {ONE_LINE_HEADER!r}, expected QSNW2"),
        (lambda head: "\n" + head[:-1].replace("\n", "\n\n \t\n") + "\n",
         "bad magic '', expected QSNW2"),
    ], ids=["token-per-line", "one-line", "blank-lines"])
    def test_other_layouts_are_refused(self, tmp_path, layout, message):
        _, relaid = self._relay(tmp_path, layout)
        with pytest.raises(FormatError) as info:
            load_weights(relaid)
        # the one-line header starts with the right magic: not a version fault
        assert str(info.value) == f"{relaid}: {message}"
        assert "unsupported version" not in str(info.value)


def _conv(weights, bias, stride):
    w = np.asarray(weights, np.float32)
    return ConvLayer(weights=w, bias=np.asarray(bias, np.float32), stride=stride)


class TestConstructorChecks:
    @pytest.mark.parametrize("values,match", [(np.ones(4), "2-D"),
                                              (np.array([[1.0, 0.0]]), "positive")],
                             ids=["1-d", "zero"])
    def test_step_map(self, values, match):
        with pytest.raises(ValueError, match=match):
            StepMap(values=values)

    @pytest.mark.parametrize("shape,bias,stride,match", [
        ((1, 3, 3), [0.0], 1, r"\(out, in, k, k\)"),
        ((2, 3, 3, 3), [0.0], 1, "bias length"),
        ((1, 3, 3, 3), [0.0], 0, "stride must be positive"),
        ((1, 3, 0, 0), [0.0], 1, "empty axis"),
        ((0, 3, 3, 3), [], 1, "empty axis"),
        ((1, 0, 3, 3), [0.0], 1, "empty axis"),
    ], ids=["3-d-weights", "bias-length", "stride-0", "empty-kernel",
            "no-output-channel", "no-input-channel"])
    def test_conv_layer(self, shape, bias, stride, match):
        with pytest.raises(ValueError, match=match):
            _conv(np.ones(shape), bias, stride)

    def test_zero_width_plan_refused_where_built(self):
        # its first convolution would have no output channel
        with pytest.raises(ValueError, match="empty axis"):
            make_random_weights(0, width=0)

    @pytest.mark.parametrize("shape,match", [((4, 3, 3, 3), "preserve the channel count"),
                                             ((3, 3, 1, 1), "3x3 stride 1")],
                             ids=["channel-change", "1x1-kernel"])
    def test_res_block(self, shape, match):
        conv = _conv(np.ones(shape), np.zeros(shape[0]), 1)
        with pytest.raises(ValueError, match=match):
            ResBlock(conv1=conv, conv2=conv)


class TestConv2d:
    def test_identity_kernel(self):
        layer = _conv(np.ones((1, 1, 1, 1)), [0.0], stride=1)
        x = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
        np.testing.assert_array_equal(conv2d(x, layer)[0], x[0])

    def test_zero_kernel_gives_bias(self):
        layer = _conv(np.zeros((2, 1, 3, 3)), [1.5, -2.0], stride=1)
        x = np.random.default_rng(0).normal(size=(1, 5, 7)).astype(np.float32)
        out = conv2d(x, layer)
        np.testing.assert_array_equal(out[0], np.full((5, 7), 1.5, np.float32))
        np.testing.assert_array_equal(out[1], np.full((5, 7), -2.0, np.float32))

    def test_center_tap_stride2_on_ones(self):
        kernel = np.zeros((1, 1, 3, 3), np.float32)
        kernel[0, 0, 1, 1] = 1.0
        layer = _conv(kernel, [0.0], stride=2)
        out = conv2d(np.ones((1, 4, 4), np.float32), layer)
        np.testing.assert_array_equal(out, np.ones((1, 2, 2), np.float32))

    def test_channel_mismatch(self):
        layer = _conv(np.ones((1, 2, 1, 1)), [0.0], stride=1)
        with pytest.raises(InferenceError, match="channel mismatch"):
            conv2d(np.ones((1, 4, 4), np.float32), layer)

    def test_input_must_be_three_dimensional(self):
        layer = _conv(np.ones((1, 1, 1, 1)), [0.0], stride=1)
        with pytest.raises(InferenceError,
                           match=r"must be \(channels, height, width\), got shape \(5, 4\)"):
            conv2d(np.ones((5, 4), np.float32), layer)

    @pytest.mark.parametrize("shape", [(3, 5, 0), (3, 0, 5)], ids=["no-columns", "no-rows"])
    def test_empty_spatial_axis_is_refused(self, shape):
        layer = _conv(np.ones((1, 3, 1, 1)), [0.0], stride=1)
        with pytest.raises(InferenceError,
                           match=rf"shape {re.escape(str(shape))} has an empty spatial axis"):
            conv2d(np.zeros(shape, np.float32), layer)

    def test_same_ceil_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 30, 2))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2, 4]))
            layer = _conv(rng.normal(size=(1, 1, k, k)), [0.0], stride=s)
            out = conv2d(rng.normal(size=(1, h, w)).astype(np.float32), layer)
            assert out.shape == (1, math.ceil(h / s), math.ceil(w / s))

    @staticmethod
    def _random_layer(rng, c_in, c_out, k, s):
        # Weights scaled by 1/sqrt(fan-in) keep outputs at unit scale.
        return _conv(rng.normal(0.0, 1.0 / math.sqrt(c_in * k * k),
                                size=(c_out, c_in, k, k)),
                     rng.normal(size=c_out), stride=s)

    @staticmethod
    def _assert_matches_oracle(x, layer):
        out = conv2d(x, layer)
        s, k = layer.stride, layer.kernel_size
        h, w = x.shape[1:]
        out_h, out_w = out.shape[1:]
        pad_h = max((out_h - 1) * s + k - h, 0)
        pad_w = max((out_w - 1) * s + k - w, 0)
        padded = np.pad(x, ((0, 0), (pad_h // 2, pad_h - pad_h // 2),
                            (pad_w // 2, pad_w - pad_w // 2)), mode="edge")
        ref = reference_conv2d(padded, layer.weights, layer.bias, s, out_h, out_w)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=0, atol=5e-5)

    def test_matches_fixed_order_oracle(self):
        # The GEMM form sums the same float32 terms in another order;
        # over 600 such shapes the worst absolute difference was 8.1e-6.
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2, 4]))
            c_in = int(rng.integers(1, 65))
            c_out = int(rng.integers(1, 9))
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            x = rng.normal(size=(c_in, h, w)).astype(np.float32)
            self._assert_matches_oracle(x, self._random_layer(rng, c_in, c_out, k, s))

    # (c_in, k, stride, h, w): many bands with a ragged last one; k < stride;
    # single-pixel and single-row inputs
    EDGE_SHAPES = [(64, 3, 1, 71, 90), (64, 5, 2, 70, 90), (5, 1, 4, 13, 18),
                   (3, 3, 1, 1, 1), (4, 3, 2, 1, 1), (4, 5, 1, 1, 1),
                   (3, 3, 1, 1, 17), (6, 3, 2, 1, 17), (2, 1, 4, 1, 9)]

    @pytest.mark.parametrize("c_in,k,s,h,w", EDGE_SHAPES)
    def test_edge_shapes_match_oracle(self, c_in, k, s, h, w):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(c_in, h, w)).astype(np.float32)
        self._assert_matches_oracle(x, self._random_layer(rng, c_in, 8, k, s))

    @pytest.mark.parametrize("c_in,k,s,h,w", EDGE_SHAPES[:2])
    def test_wide_shapes_span_ragged_bands(self, c_in, k, s, h, w):
        # Keeps the first two EDGE_SHAPES meaningful if the band budget moves.
        layer = _conv(np.zeros((1, c_in, k, k)), [0.0], stride=s)
        out_h, *_, rows = stepnet._geometry(layer, h, w)
        assert -(-out_h // rows) >= 3 and out_h % rows

    def test_peak_memory_is_bounded_by_the_band_budget(self):
        # The columns buffers are bounded, so a call holds the padded input
        # (258 x 258 x 64), the output and little more: the input is the
        # caller's and sits outside the activation buffer, which holds the
        # output alone. The bound allows the output at the padded width.
        # The band budget is counted once per lane, for its columns
        # buffer, and twice more: the layer's weight matrix (147 KB),
        # built on this first call, and the biases of one output row
        # (64 KB). A per-tap window copy plus its matmul temporary would
        # add two outputs.
        c, n, k = 64, 256, 3
        layer = _conv(np.zeros((c, c, k, k)), np.zeros(c), stride=1)
        x = np.zeros((c, n, n), np.float32)
        pad = n + k - 1  # padded width
        lanes = stepnet._lane_count(stepnet._plan((layer,), n, n, c)[3])
        bound = 4 * (c * pad * pad + c * n * pad + (lanes + 2) * stepnet._BAND_FLOATS)
        tracemalloc.start()
        try:
            conv2d(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("stride", [1, 2])
    def test_result_holds_only_its_output_and_leaves_the_input(self, stride):
        # The padded input and the columns are a block apart from the
        # output, so they are freed on return. What stays traced is the
        # output, the layer's weight matrix (147 KB), built on this first
        # call, and less than the biases of one output row.
        c, n = 64, 256
        rng = np.random.default_rng(17)
        layer = self._random_layer(rng, c, c, 3, stride)
        x = rng.normal(size=(c, n, n)).astype(np.float32)
        before = x.copy()
        # what a first call imports is not the result's
        conv2d(np.zeros((1, 1, 1), np.float32), _conv(np.ones((1, 1, 1, 1)), [0.0], stride=1))
        tracemalloc.start()
        try:
            out = conv2d(x, layer)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.shape == (c, n // stride, n // stride)
        assert held <= out.nbytes + layer._gemm_matrix.nbytes + 4 * c * out.shape[2]
        assert x.tobytes() == before.tobytes()



def _softplus_longdouble(x: np.ndarray) -> np.ndarray:
    """max(x, 0) + ln(1 + e^-|x|) in extended precision."""
    x = x.astype(np.longdouble)
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


class TestSoftplus:
    def test_zero(self):
        for zero in (0.0, -0.0):
            assert softplus(zero) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_positive_asymptote(self):
        # ln(1 + e^20) to full double precision
        assert softplus(20.0) == pytest.approx(20.000000002061153, abs=1e-12)

    def test_large_negative_stays_positive(self):
        # arbitrary-precision value of ln(1 + e^-20)
        expected = 2.0611536203143807e-09
        value = softplus(-20.0)
        assert value > 0
        assert value == pytest.approx(expected, rel=1e-12)

    def test_no_overflow_far_out(self):
        for x in (710.0, 1000.0, 1e308):
            assert softplus(x) == x
        assert softplus(np.array([-50.0, 0.0, 50.0])).shape == (3,)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("x", [
        -745.0, -0.0, 0.0, np.nextafter(30.0, 0.0), 30.0, np.nextafter(30.0, 31.0),
        709.8, 710.0, 1e308,
        np.linspace(-750.0, 750.0, 150_001), np.linspace(-40.0, 40.0, 160_001),
    ], ids=["-745", "-0", "0", "below-30", "30", "above-30", "709.8", "710", "1e308",
            "grid-750", "grid-40"])
    def test_within_one_ulp_of_extended_precision(self, x):
        # against the double nearest the extended-precision value; both
        # are positive, so their bit patterns count ulps
        x = np.atleast_1d(np.asarray(x, np.float64))
        out = np.atleast_1d(softplus(x))
        ref = _softplus_longdouble(x).astype(np.float64)
        assert np.abs(out.view(np.int64) - ref.view(np.int64)).max() <= 1

    @pytest.mark.parametrize("x", [1.5, np.float32(1.5), np.float64(1.5), np.array(1.5)],
                             ids=["float", "float32", "float64", "0-d"])
    def test_scalar_gives_a_python_float(self, x):
        value = softplus(x)
        assert type(value) is float
        assert value == softplus(1.5)

    def test_float32_is_promoted_to_float64(self):
        x = np.array([-3.25, 0.1, 17.0], np.float32)
        out = softplus(x)
        assert out.dtype == np.float64
        assert out.tobytes() == softplus(x.astype(np.float64)).tobytes()


def _uniform_head_weights(base: ModelWeights, bias: float) -> ModelWeights:
    head = base.layers[-1]
    zero = ConvLayer(weights=np.zeros_like(head.weights),
                     bias=np.array([bias], np.float32), stride=head.stride)
    return ModelWeights(layers=base.layers[:-1] + (zero,))


def _resblock_first_plan() -> ModelWeights:
    """A seeded 3-channel residual block, four stride-2 convolutions and
    a 1-channel head."""
    rng = np.random.default_rng(13)

    def conv(c_in, c_out, stride):
        w = rng.normal(0.0, 1.0 / math.sqrt(9 * c_in), size=(c_out, c_in, 3, 3))
        return _conv(w, rng.normal(0.0, 0.1, size=c_out), stride)

    return ModelWeights(layers=(ResBlock(conv(3, 3, 1), conv(3, 3, 1)), conv(3, 8, 2),
                                conv(8, 8, 2), conv(8, 8, 2), conv(8, 8, 2), conv(8, 1, 1)))


def _signed_weights(base: ModelWeights, magnitude: float) -> ModelWeights:
    """base with every convolution weight replaced by +-magnitude, its sign kept."""
    def conv(c: ConvLayer) -> ConvLayer:
        signed = np.where(c.weights < 0, -magnitude, magnitude).astype(np.float32)
        return ConvLayer(weights=signed, bias=c.bias, stride=c.stride)

    return ModelWeights(layers=tuple(
        conv(layer) if isinstance(layer, ConvLayer)
        else ResBlock(conv(layer.conv1), conv(layer.conv2)) for layer in base.layers))


class TestInference:
    def test_zero_head_gives_uniform_softplus_of_bias(self, fixture_weights):
        weights = _uniform_head_weights(fixture_weights, bias=0.75)
        img = RasterImage(pixels=np.random.default_rng(3)
                          .integers(0, 256, (64, 64, 3)).astype(np.uint8))
        step_map = infer_step_map(img, weights)
        assert step_map.values.shape == (4, 4)
        np.testing.assert_allclose(step_map.values,
                                   softplus(np.float32(0.75)), rtol=0, atol=0)

    def test_sixteenth_resolution(self, fixture_weights):
        img = RasterImage(pixels=np.random.default_rng(4)
                          .integers(0, 256, (64, 64, 3)).astype(np.uint8))
        assert infer_step_map(img, fixture_weights).values.shape == (4, 4)

    def test_deterministic_bits(self, fixture_weights, textured_image):
        a = infer_step_map(textured_image, fixture_weights)
        b = infer_step_map(textured_image, fixture_weights)
        assert np.array_equal(a.values, b.values)

    def test_requires_three_channels(self, fixture_weights):
        img = RasterImage(pixels=np.zeros((32, 32, 1), np.uint8))
        with pytest.raises(InferenceError):
            infer_step_map(img, fixture_weights)

    def test_rejects_wrong_total_stride(self):
        layer = _conv(np.ones((1, 3, 1, 1)), [0.0], stride=1)
        weights = ModelWeights(layers=(layer,))
        img = RasterImage(pixels=np.zeros((16, 16, 3), np.uint8))
        with pytest.raises(InferenceError, match="stride"):
            infer_step_map(img, weights)

    def test_preactivation_is_homogeneous(self):
        # one conv, zero bias: doubling the input doubles the output
        rng = np.random.default_rng(5)
        layer = _conv(rng.normal(size=(1, 3, 3, 3)), [0.0], stride=16)
        weights = ModelWeights(layers=(layer,))
        half = rng.integers(0, 128, (48, 48, 3)).astype(np.uint8)

        def head(pixels):  # the pass of infer_step_map, before softplus
            x = np.divide(pixels, np.float32(255.0), dtype=np.float32)
            return stepnet._run(x, weights.layers)

        np.testing.assert_allclose(head(half * 2), 2.0 * head(half), rtol=1e-9)


    def test_rejects_mismatched_channels_before_running(self):
        first = _conv(np.ones((4, 3, 1, 1)), np.zeros(4), stride=16)
        head = _conv(np.ones((1, 5, 1, 1)), [0.0], stride=1)
        img = RasterImage(pixels=np.zeros((16, 16, 3), np.uint8))
        with pytest.raises(InferenceError, match="input has 4 channels, layer expects 5"):
            infer_step_map(img, ModelWeights(layers=(first, head)))

    def test_channel_mismatch_is_reported_before_the_stride(self):
        # strides compose to x8 as well; the one walk over the plan meets
        # the mismatch first
        stem = _conv(np.ones((4, 3, 1, 1)), np.zeros(4), stride=8)
        head = _conv(np.ones((1, 5, 1, 1)), [0.0], stride=1)
        img = RasterImage(pixels=np.zeros((16, 16, 3), np.uint8))
        with pytest.raises(InferenceError, match="input has 4 channels, layer expects 5"):
            infer_step_map(img, ModelWeights(layers=(stem, head)))

    # Each set loads, but its pass gives step values that are not finite
    # and positive: a head bias whose softplus underflows to 0, and
    # weights whose float32 products overflow to inf and then nan. At
    # 256x256 the width-16 plan's first six convolutions have 2 to 10
    # bands, so they run on two lanes where two CPUs are free; numpy's
    # warnings are errors under pytest, and one raised on any lane fails
    # the case.
    @pytest.mark.parametrize("make", [
        lambda base: _uniform_head_weights(base, bias=-800.0),
        lambda base: _signed_weights(base, 3e37),
    ], ids=["head-underflow", "overflow"])
    def test_numeric_failure_is_an_inference_error(self, make):
        weights = make(make_random_weights(seed=3, width=16))
        img = RasterImage(pixels=textured_pixels(256, 256, seed=11))
        with pytest.raises(InferenceError, match="finite and positive"):
            infer_step_map(img, weights)

    # ragged frames: odd sizes, padding on the leading and the trailing
    # side of both axes, and a frame only one step-map block wide; and a
    # plan whose first residual block adds into the pass's float copy of
    # the pixels
    @pytest.mark.parametrize("plan,h,w", [
        ("reference", 131, 77), ("reference", 61, 203), ("reference", 16, 16),
        ("resblock-first", 131, 77),
    ], ids=["131-77", "61-203", "16-16", "resblock-first-131-77"])
    def test_equals_public_composition(self, reference_plan, plan, h, w):
        # pipebench's traced run composes the pass this way to time each
        # convolution; its result must not depend on the workspace
        weights = reference_plan if plan == "reference" else _resblock_first_plan()
        img = RasterImage(pixels=textured_pixels(h, w, seed=h))
        pixels = img.pixels.copy()
        x = img.pixels.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0)
        for layer in weights.layers:
            if isinstance(layer, ConvLayer):
                x = conv2d(x, layer)
            else:
                x = x + conv2d(np.maximum(conv2d(x, layer.conv1), np.float32(0.0)),
                               layer.conv2)
        values = infer_step_map(img, weights).values
        assert np.array_equal(img.pixels, pixels)
        assert values.tobytes() == softplus(x[0]).tobytes()

    def test_forward_peak_is_two_activations_one_padded_input_and_the_bands(
            self, reference_plan):
        # The workspace of a 256x256 pass: the first residual block's
        # padded input (130 x 130 x 64), two 128 x 128 x 64 activations,
        # which the bound allows at the 130-column padded width, and one
        # columns buffer per lane. The band budget is counted once more
        # for the biases of one output row (32 KB). The input, the
        # pixels' float copy (256 x 256 x 3, 768 KB), sits outside the
        # activation buffers, in what that count and the padded width
        # leave over. The layers' weight matrices (147 KB each) are built
        # by a first pass and kept. Fresh arrays per layer held three
        # outputs at once.
        img = RasterImage(pixels=textured_pixels(256, 256, seed=9))
        infer_step_map(img, reference_plan)
        c, n, pad = 64, 128, 130
        lanes = stepnet._lane_count(stepnet._plan((reference_plan.layers[1].conv1,), n, n, c)[3])
        bound = 4 * (2 * c * n * pad + c * pad * pad + (lanes + 1) * stepnet._BAND_FLOATS)
        tracemalloc.start()
        try:
            infer_step_map(img, reference_plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestLanes:
    """A convolution's bands run on one lane per CPU the process may run
    on; each band is the same matrix product at any lane count."""

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="pinning to one CPU changes the lane count only "
                               "where two are available")
    @pytest.mark.parametrize("h,w", [(256, 256), (131, 77)])
    def test_pinned_to_one_cpu_gives_the_same_bytes(self, reference_plan, monkeypatch, h, w):
        # At 256x256 the first residual block has 43 bands of 3 rows, the
        # last of 2; at 131x77 it has 6 bands of 11 rows, and the stride-2
        # convolution after it a band of 22 rows and one of 11
        img = RasterImage(pixels=textured_pixels(h, w, seed=w))
        unpinned = infer_step_map(img, reference_plan).values
        # one lane takes the pool path too, but submits nothing to it
        lane_starts = []
        start = threading.Thread.start

        def counted_start(thread):
            if thread.name.startswith("qpalloc-lane"):
                lane_starts.append(thread.name)
            start(thread)

        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            assert stepnet._lane_count(64) == 1
            monkeypatch.setattr(threading.Thread, "start", counted_start)
            pinned = infer_step_map(img, reference_plan).values
        finally:
            monkeypatch.undo()
            os.sched_setaffinity(0, cpus)
        assert stepnet._lane_count(64) >= 2
        assert lane_starts == []
        assert pinned.tobytes() == unpinned.tobytes()

    @pytest.mark.parametrize("cpus,bands,lanes", [(None, 64, 1), (8, 64, 8), (8, 3, 3)])
    def test_without_cpu_affinity_counts_cpus(self, monkeypatch, cpus, bands, lanes):
        # where os has no sched_getaffinity, the lanes come from
        # os.cpu_count(), which may not know the count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert stepnet._lane_count(bands) == lanes

    def test_concurrent_passes_give_the_serial_bytes(self, reference_plan):
        # Four passes at once, each with its own lanes, under a short
        # switch interval so that the threads interleave often
        frames = [RasterImage(pixels=textured_pixels(h, w, seed=h))
                  for h, w in [(128, 128), (131, 77), (61, 203), (96, 160)]]
        serial = [infer_step_map(f, reference_plan).values.tobytes() for f in frames]
        results = [None] * len(frames)

        def run(i):
            try:
                for _ in range(3):
                    results[i] = infer_step_map(frames[i], reference_plan).values.tobytes()
                    if results[i] != serial[i]:
                        return
            except Exception as exc:  # reported below as a mismatch
                results[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(frames))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert not [t for t in threading.enumerate() if t.name.startswith("qpalloc-lane")]

    def test_import_starts_no_thread(self):
        code = ("import sys, threading; import qpalloc.stepnet; "
                "assert threading.active_count() == 1, threading.enumerate(); "
                "assert 'concurrent.futures' not in sys.modules")
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_steady_inference_takes_no_page_faults():
    # A fresh process whose weights come from make_random_weights frees no
    # large block first. The first pass maps its workspace fresh; freeing
    # it raises glibc's dynamic mmap threshold, so the second pass grows
    # the heap once; from then on each pass reuses those pages. Fresh
    # arrays per layer took about 1,500 faults per 128x128 pass.
    code = textwrap.dedent("""
        import json, resource
        import numpy as np
        from qpalloc.imageio import RasterImage, save_ppm
        from qpalloc.stepnet import infer_step_map, make_random_weights
        weights = make_random_weights(seed=7, width=64)
        img = RasterImage(pixels=np.random.default_rng(1)
                          .integers(0, 256, (128, 128, 3), dtype=np.uint8))
        faults = []
        for _ in range(4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            infer_step_map(img, weights)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps(faults))
    """)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert sum(faults[-2:]) < 2 * 50, faults


class TestStepMapFiles:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.01, 9.0, (5, 3))
        values[0, 0] = 1e16  # repr writes 1e+16
        step_map = StepMap(values=values)
        first = tmp_path / "a.qsmap"
        second = tmp_path / "b.qsmap"
        write_step_map(step_map, first)
        write_step_map(read_step_map(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_counts_checked(self, tmp_path):
        path = tmp_path / "bad.qsmap"
        path.write_text("QSMAP 2\n1 1\n1.0\n")
        with pytest.raises(FormatError, match="unsupported QSMAP version '2'"):
            read_step_map(path)
        path.write_text("QSMAP 1\n2 2\n1.0 2.0 3.0\n")
        with pytest.raises(FormatError, match="expected 4 values"):
            read_step_map(path)

    # the last two are good dimensions whose first step values only
    # float() accepts; an exponent sign is fine
    STRICT_DIMENSIONS = [("2_0 1", "bad header line"), ("+2 1", "bad header line"),
                         ("2 1_0", "bad header line"), ("3 7 1_0", "non-numeric"),
                         ("11 2 1e+1 +1.0", "non-numeric")]

    @pytest.mark.parametrize("dims,match", STRICT_DIMENSIONS,
                             ids=[dims for dims, _ in STRICT_DIMENSIONS])
    def test_dimensions_are_strict_integers(self, tmp_path, dims, match):
        path = tmp_path / "bad.qsmap"
        path.write_text(f"QSMAP 1\n{dims}\n" + "1.0 " * 20 + "\n")
        with pytest.raises(FormatError, match=match):
            read_step_map(path)

    def test_nonpositive_values_rejected(self, tmp_path):
        path = tmp_path / "bad.qsmap"
        path.write_text("QSMAP 1\n2 1\n1.0 0.0\n")
        with pytest.raises(FormatError, match="step values must be positive"):
            read_step_map(path)

    def test_writer_refuses_an_empty_map(self, tmp_path):
        # "QSMAP 1\n3 0\n" would not read back: a dimension below 1
        path = tmp_path / "empty.qsmap"
        with pytest.raises(ValueError, match="at least 1x1"):
            write_step_map(StepMap(values=np.zeros((0, 3))), path)
        assert not path.exists()


class TestReferencePlan:
    def test_saved_plan_loads_to_the_same_bits_and_step_maps(self, reference_plan,
                                                             reference_plan_file):
        loaded = load_weights(reference_plan_file)
        assert np.array_equal(_param_bits(loaded), _param_bits(reference_plan))
        img = RasterImage(pixels=textured_pixels(128, 96, seed=4))
        assert (infer_step_map(img, loaded).values.tobytes()
                == infer_step_map(img, reference_plan).values.tobytes())

    def test_seeded_weights_are_usable_and_stable(self):
        weights = make_random_weights(seed=7, width=4)
        img = RasterImage(pixels=textured_pixels(48, 64, seed=7))
        values = infer_step_map(img, weights).values
        assert values.shape == (3, 4) and (values > 0).all()
        again = make_random_weights(seed=7, width=4)
        for a, b in zip(weights.layers, again.layers):
            if isinstance(a, ConvLayer):
                np.testing.assert_array_equal(a.weights, b.weights)
