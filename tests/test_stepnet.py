import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpalloc import stepnet
from qpalloc.errors import FormatError, InferenceError
from qpalloc.imageio import RasterImage
from qpalloc.stepnet import (ConvLayer, ModelWeights, ResBlock, StepMap, conv2d,
                             _forward, infer_step_map, load_weights,
                             make_random_weights, read_step_map, save_weights,
                             softplus, write_step_map)

from _oracles import reference_conv2d, write_qsnw1_repr
from conftest import textured_pixels

MINIMAL_QSNW1 = "QSNW1\nlayers 1\nconv 3 1 1 1\n0.25 0.5 0.25\n0.0\n"
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

    @pytest.mark.parametrize("header", ["conv 1 1 1", "resblock"])
    def test_file_ending_in_a_layer_header(self, tmp_path, header):
        path = tmp_path / "w.qsnw"
        path.write_text(f"QSNW1\nlayers 1\n{header}\n")
        with pytest.raises(FormatError, match="file ends early"):
            load_weights(path)

    def test_trailing_values_rejected(self, tmp_path):
        path = tmp_path / "w.qsnw"
        path.write_text(MINIMAL_QSNW1 + "42.0\n\n1 2\n")
        with pytest.raises(FormatError) as info:
            load_weights(path)
        assert str(info.value) == f"{path}: parameter count mismatch, 3 trailing values"

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


# the one non-negative float32 whose shortest decimal, 7.038531e-26, reads
# back through float64 one ulp up (a sweep of every finite pattern found
# only this one); its 9-digit token must read back exactly
DOUBLE_ROUNDED = 363742205
FINITE = 0x7F800000  # the non-negative finite patterns are [0, FINITE)
SIGN = 0x80000000
# zero, the smallest and largest subnormal, the smallest normal, the
# largest finite value
EDGE_BITS = [0, 1, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, DOUBLE_ROUNDED]


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
    def test_strided_bit_patterns_round_trip_exactly(self, tmp_path):
        half = np.arange(0, FINITE, 1 << 14, dtype=np.uint32)
        bits = np.concatenate((half, half | np.uint32(SIGN)))
        assert bits.size == 261_120
        path = tmp_path / "w.qsnw"
        save_weights(_one_layer(bits), path)
        assert np.array_equal(_param_bits(load_weights(path)), bits)

    def test_edges_round_trip_exactly(self, tmp_path):
        bits = np.array(EDGE_BITS + [b | SIGN for b in EDGE_BITS], np.uint32)
        path = tmp_path / "w.qsnw"
        save_weights(_one_layer(bits), path)
        assert np.array_equal(_param_bits(load_weights(path)), bits)
        tokens = path.read_text().split()
        assert tokens[8:14] == ["0", "1.40129846e-45", "1.17549421e-38", "1.17549435e-38",
                                "3.40282347e+38", "7.03853069e-26"]
        assert tokens[14] == "-0" and tokens[-1] == "-7.03853069e-26"

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

    def test_repr_files_load_to_the_same_bits(self, tmp_path, fixture_weights):
        rng = np.random.default_rng(8)
        wide = rng.integers(0, 0x7F800000, 4096, dtype=np.uint32)
        wide[::2] |= np.uint32(SIGN)
        weights = ModelWeights(layers=fixture_weights.layers + _one_layer(wide).layers)
        old, new, again = (tmp_path / f"{name}.qsnw" for name in ("old", "new", "again"))
        write_qsnw1_repr(weights, old)
        save_weights(weights, new)
        from_old = load_weights(old)
        assert np.array_equal(_param_bits(from_old), _param_bits(weights))
        assert np.array_equal(_param_bits(load_weights(new)), _param_bits(weights))
        save_weights(from_old, again)
        assert again.read_bytes() == new.read_bytes()
        assert new.stat().st_size < 0.7 * old.stat().st_size

    def test_reference_plan_load_peak_memory(self, reference_plan_file):
        # The loader holds the 1.6 MB of float32 parameters and the tokens
        # of one block (36,864 for a 64-channel 3x3 convolution); it peaked
        # at 5.2 MB traced. Splitting the whole file peaked at 34.0 MB.
        tracemalloc.start()
        try:
            load_weights(reference_plan_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestWeightLayouts:
    """save_weights writes one block per line; any other whitespace
    layout of the same tokens loads to the same bits."""

    LAYOUTS = {
        "token_per_line": lambda text: "\n".join(text.split()) + "\n",
        "one_line": lambda text: " ".join(text.split()),
        "blank_lines": lambda text: "\n" + text.replace("\n", "\n\n \t\n"),
        "crlf": lambda text: text.replace("\n", "\r\n"),
    }

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_layout_loads_to_the_same_bits(self, tmp_path, layout):
        # width 16 spans several of the reader's 64 KB batches
        weights = make_random_weights(seed=3, width=16)
        path, relaid = tmp_path / "w.qsnw", tmp_path / "relaid.qsnw"
        save_weights(weights, path)
        relaid.write_bytes(self.LAYOUTS[layout](path.read_text()).encode("ascii"))
        assert relaid.stat().st_size > 4 << 16
        assert np.array_equal(_param_bits(load_weights(relaid)), _param_bits(weights))

    def test_token_per_line_loads_in_linear_time(self, tmp_path, reference_plan_file):
        # a buffer that copied its tokens on every line would be quadratic
        # in the 36,864 lines of a 64-channel block
        split = tmp_path / "split.qsnw"
        split.write_text("\n".join(reference_plan_file.read_text().split()) + "\n")
        best = {reference_plan_file: math.inf, split: math.inf}
        for _ in range(3):
            for path in best:
                start = time.perf_counter()
                load_weights(path)
                best[path] = min(best[path], time.perf_counter() - start)
        assert best[split] <= 2 * best[reference_plan_file]


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


    def test_rejects_mismatched_channels_before_running(self):
        first = _conv(np.ones((4, 3, 1, 1)), np.zeros(4), stride=16)
        head = _conv(np.ones((1, 5, 1, 1)), [0.0], stride=1)
        img = RasterImage(pixels=np.zeros((16, 16, 3), np.uint8))
        with pytest.raises(InferenceError, match="input has 4 channels, layer expects 5"):
            infer_step_map(img, ModelWeights(layers=(first, head)))

    # ragged frames: odd sizes, phase planes with a lead and a tail on
    # both axes, and a frame only one step-map block wide
    @pytest.mark.parametrize("h,w", [(131, 77), (61, 203), (16, 16)])
    def test_equals_public_composition(self, reference_plan, h, w):
        # pipebench's traced run composes the pass this way to time each
        # convolution; its result must not depend on the workspace
        img = RasterImage(pixels=textured_pixels(h, w, seed=h))
        x = img.pixels.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0)
        for layer in reference_plan.layers:
            if isinstance(layer, ConvLayer):
                x = conv2d(x, layer)
            else:
                x = x + conv2d(np.maximum(conv2d(x, layer.conv1), np.float32(0.0)),
                               layer.conv2)
        values = infer_step_map(img, reference_plan).values
        assert values.tobytes() == softplus(x[0]).tobytes()

    def test_forward_peak_is_two_activations_one_padded_input_and_the_bands(
            self, reference_plan):
        # The workspace of a 256x256 pass: the first residual block's
        # phase plane (64 x 130 x 130), two outputs at its 130-column
        # pitch, and the columns buffer. The band budget is counted twice:
        # a convolution also holds its transposed weight matrix (147 KB)
        # and the copy numpy makes of a strided band to add the bias
        # (99 KB). Fresh arrays per layer held three outputs at once.
        img = RasterImage(pixels=textured_pixels(256, 256, seed=9))
        c, n, pitch = 64, 128, 130
        bound = 4 * (2 * c * n * pitch + c * pitch * pitch + 2 * stepnet._BAND_FLOATS)
        tracemalloc.start()
        try:
            infer_step_map(img, reference_plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


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
        from qpalloc.imageio import RasterImage
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
