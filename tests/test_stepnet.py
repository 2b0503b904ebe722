import math
import tracemalloc

import numpy as np
import pytest

from qpalloc import stepnet
from qpalloc.errors import FormatError, InferenceError
from qpalloc.imageio import RasterImage
from qpalloc.stepnet import (ConvLayer, ModelWeights, ResBlock, StepMap, conv2d,
                             _forward, infer_step_map, load_weights,
                             make_random_weights, read_step_map, save_weights,
                             softplus, write_step_map)

from _oracles import reference_conv2d

MINIMAL_QSNW1 = "QSNW1\nlayers 1\nconv 3 1 1 1\n0.25 0.5 0.25\n0.0\n"


class TestWeightFormat:
    def test_minimal_single_conv(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text(MINIMAL_QSNW1)
        weights = load_weights(path)
        assert len(weights.layers) == 1
        layer = weights.layers[0]
        assert (layer.in_channels, layer.out_channels) == (3, 1)
        assert layer.weights.dtype == np.float32
        np.testing.assert_array_equal(layer.weights.reshape(-1), [0.25, 0.5, 0.25])

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text(MINIMAL_QSNW1.replace("QSNW1", "QSNW2"))
        with pytest.raises(FormatError, match="unsupported version"):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text("WEIGHTS\n")
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(path)

    def test_parameter_count_mismatch(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text("QSNW1\nlayers 1\nconv 1 1 3 1\n1 2 3 4 5 6 7 8\n")
        with pytest.raises(FormatError, match="parameter count mismatch"):
            load_weights(path)

    def test_trailing_values_rejected(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text(MINIMAL_QSNW1 + "42.0\n")
        with pytest.raises(FormatError, match="parameter count mismatch"):
            load_weights(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text(MINIMAL_QSNW1.replace("0.5", "nan"))
        with pytest.raises(FormatError, match="non-finite"):
            load_weights(path)

    # the last two spell a weight and a bias the way only float() allows
    STRICT_TOKENS = [
        (MINIMAL_QSNW1.replace("conv 3 1 1 1", "conv 3 1 1 +1"), "header"),
        (MINIMAL_QSNW1.replace("conv 3 1 1 1", "conv 3 1 1 0_1"), "header"),
        ("QSNW1\nlayers 1\nresblock 0_1\n" + "0 " * 20, "header"),
        (MINIMAL_QSNW1.replace("0.5", "0_5"), "non-numeric"),
        (MINIMAL_QSNW1.replace("0.0", "+0.0"), "non-numeric")]

    @pytest.mark.parametrize("text,match", STRICT_TOKENS,
                             ids=[text for text, _ in STRICT_TOKENS])
    def test_layer_headers_are_strict_integers(self, tmp_path, text, match):
        path = tmp_path / "w.qsnw"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_weights(path)

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


def _conv(weights, bias, stride):
    w = np.asarray(weights, np.float32)
    return ConvLayer(weights=w, bias=np.asarray(bias, np.float32), stride=stride)


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
    EDGE_SHAPES = [(64, 3, 1, 70, 90), (64, 5, 2, 70, 90), (5, 1, 4, 13, 18),
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
        out_h, out_w = -(-h // s), -(-w // s)
        pitch = -(-max((out_w - 1) * s + k, w) // s)  # phase-plane row pitch
        rows = max(1, stepnet._BAND_FLOATS // (k * k * c_in * pitch))
        assert -(-out_h // rows) >= 3 and out_h % rows

    def test_peak_memory_is_bounded_by_the_band_budget(self):
        # The columns buffer is bounded, so a call holds the padded input,
        # the output with its pitch columns and little more. A per-tap
        # window copy plus its matmul temporary would add two outputs.
        c, n, k = 64, 256, 3
        layer = _conv(np.zeros((c, c, k, k)), np.zeros(c), stride=1)
        x = np.zeros((c, n, n), np.float32)
        pitch = n + k - 1
        bound = 4 * (c * pitch * pitch + c * n * pitch + 3 * stepnet._BAND_FLOATS)
        tracemalloc.start()
        try:
            conv2d(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestSoftplus:
    def test_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

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
        assert softplus(1000.0) == 1000.0
        assert softplus(np.array([-50.0, 0.0, 50.0])).shape == (3,)


def _uniform_head_weights(base: ModelWeights, bias: float) -> ModelWeights:
    head = base.layers[-1]
    zero = ConvLayer(weights=np.zeros_like(head.weights),
                     bias=np.array([bias], np.float32), stride=head.stride)
    return ModelWeights(layers=base.layers[:-1] + (zero,))


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
        single = _forward(RasterImage(pixels=half), weights)
        double = _forward(RasterImage(pixels=(half * 2).astype(np.uint8)), weights)
        np.testing.assert_allclose(double, 2.0 * single, rtol=1e-9)


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
        with pytest.raises(FormatError):
            read_step_map(path)
        path.write_text("QSMAP 1\n2 2\n1.0 2.0 3.0\n")
        with pytest.raises(FormatError, match="expected 4 values"):
            read_step_map(path)

    # the last two are good dimensions whose first step values only
    # float() accepts; an exponent sign is fine
    STRICT_DIMENSIONS = [("2_0 1", "dimensions"), ("+2 1", "dimensions"),
                         ("2 1_0", "dimensions"), ("3 7 1_0", "non-numeric"),
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
        with pytest.raises(FormatError, match="positive"):
            read_step_map(path)


class TestReferencePlan:
    def test_seeded_weights_are_usable_and_stable(self):
        weights = make_random_weights(seed=7, width=4)
        assert weights.total_stride == 16
        assert weights.out_channels == 1
        again = make_random_weights(seed=7, width=4)
        for a, b in zip(weights.layers, again.layers):
            if isinstance(a, ConvLayer):
                np.testing.assert_array_equal(a.weights, b.weights)
