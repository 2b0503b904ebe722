import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpalloc.alloc import DEFAULT_BETA
from qpalloc.bdrate import METRIC_TAGS, bd_quality, bd_rate, quality_overlap, read_rd_csv
from qpalloc.cli import _DEFAULT_BETA, _METRIC_TAGS, _build_parser, main
from qpalloc.gridfile import read_grid_file, write_grid_file
from qpalloc.imageio import RasterImage, load_ppm, save_ppm
from qpalloc.stepnet import make_random_weights, save_weights

from conftest import textured_pixels
from _oracles import write_qsnw2

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err
    return _run


@pytest.fixture()
def ppm_64(tmp_path):
    path = tmp_path / "img64.ppm"
    save_ppm(RasterImage(pixels=textured_pixels(64, 64, seed=20)), path)
    return path


@pytest.fixture()
def weights_file(tmp_path, fixture_weights):
    path = tmp_path / "net.qsnw"
    save_weights(fixture_weights, path)
    return path


def write_qsmap(path, values):
    values = np.asarray(values, float)
    h, w = values.shape
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in values)
    path.write_text(f"QSMAP 1\n{w} {h}\n{rows}\n")


class TestStepmapCommand:
    def test_writes_map_and_reports_shape(self, run, tmp_path, ppm_64, weights_file):
        out = tmp_path / "map.qsmap"
        code, stdout, _ = run("stepmap", ppm_64, weights_file, out)
        assert code == 0
        assert out.read_text().startswith("QSMAP 1\n4 4\n")
        assert "stepmap 4x4" in stdout

    def test_missing_weights_is_input_error(self, run, tmp_path, ppm_64):
        code, _, err = run("stepmap", ppm_64, tmp_path / "nope.qsnw",
                           tmp_path / "map.qsmap")
        assert code == 2
        assert "nope.qsnw" in err

    def test_non_ascii_last_line_of_weights_is_input_error(self, run, tmp_path, ppm_64,
                                                             weights_file):
        # the last header line, the one before the payload
        write_qsnw2(weights_file, ["QSNW2", "layers 1", "conv 3 1 1 1", "d\u00e4ta"],
                    [0.25, 0.5, 0.25, 0.0])
        code, _, err = run("stepmap", ppm_64, weights_file, tmp_path / "map.qsmap")
        assert code == 2
        assert "not ASCII text" in err

    # header lines, values, message: every fault the weight loader reports
    MALFORMED_WEIGHTS = {
        "qsnw1": (["QSNW1", "layers 1", "conv 3 1 1 1", "0.25 0.5 0.25", "0.0"], [],
                  "unsupported version 'QSNW1'"),
        "short": (["QSNW2", "layers 1", "conv 3 1 1 1", "data"], [0.25, 0.5, 0.25],
                  "file ends early"),
        "trailing": (["QSNW2", "layers 1", "conv 3 1 1 1", "data"], [0.25, 0.5, 0.25, 0.0, 1.0],
                     "4 trailing bytes"),
        "non-finite": (["QSNW2", "layers 1", "conv 3 1 1 1", "data"], [0.25, math.inf, 0.25, 0.0],
                       "non-finite"),
        "misspelled-data": (["QSNW2", "layers 1", "conv 3 1 1 1", "payload"],
                            [0.25, 0.5, 0.25, 0.0], "expected 'data'"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED_WEIGHTS))
    def test_malformed_weights_are_input_error(self, run, tmp_path, ppm_64, case):
        lines, values, message = self.MALFORMED_WEIGHTS[case]
        path = tmp_path / "bad.qsnw"
        write_qsnw2(path, lines, values)
        code, _, err = run("stepmap", ppm_64, path, tmp_path / "map.qsmap")
        assert code == 2
        assert message in err

    def test_unwritable_output_is_io_error(self, run, tmp_path, ppm_64, weights_file):
        # parent of the output path is a file, not a directory
        code, _, err = run("stepmap", ppm_64, weights_file,
                           str(ppm_64) + "/map.qsmap")
        assert code == 4
        assert "cannot write" in err

    def test_incompatible_weights_is_inference_error(self, run, tmp_path, ppm_64):
        # parses fine but the strides do not compose to x16
        flat = tmp_path / "flat.qsnw"
        write_qsnw2(flat, ["QSNW2", "layers 1", "conv 3 1 1 1", "data"], [0.25, 0.5, 0.25, 0.0])
        code, _, err = run("stepmap", ppm_64, flat, tmp_path / "map.qsmap")
        assert code == 3
        assert "stride" in err

    def test_byte_identical_across_runs(self, run, tmp_path, ppm_64, weights_file):
        first = tmp_path / "a.qsmap"
        second = tmp_path / "b.qsmap"
        assert run("stepmap", ppm_64, weights_file, first)[0] == 0
        assert run("stepmap", ppm_64, weights_file, second)[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestQpmapCommand:
    def test_uniform_map_gives_zero_offsets(self, run, tmp_path):
        qsmap = tmp_path / "uniform.qsmap"
        write_qsmap(qsmap, np.full((4, 4), 2.0))
        out = tmp_path / "map.qpmap"
        code, _, _ = run("qpmap", "--stepmap", qsmap, "--base-qp", 37, out)
        assert code == 0
        qpm = read_grid_file(out, expect_tag="QPMAP")
        assert qpm.base_qp == 37
        np.testing.assert_array_equal(qpm.values, 0)
        lscale = read_grid_file(str(out) + ".lscale", expect_tag="LSCALE")
        np.testing.assert_array_equal(lscale.values, 1.0)

    def test_beta_variant_changes_rounding(self, run, tmp_path):
        # two block columns with steps {1, 2}: ratios {4/3, 2/3}; the raw
        # offsets are {-1.702, +2.399} at beta -1.367 and {-2.043, +2.879}
        # at beta -1.6404
        values = np.ones((4, 8))
        values[:, 4:] = 2.0
        qsmap = tmp_path / "two.qsmap"
        write_qsmap(qsmap, values)
        out1 = tmp_path / "b1.qpmap"
        out2 = tmp_path / "b2.qpmap"
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", 37,
                   "--beta", "-1.367", out1)[0] == 0
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", 37,
                   "--beta", "-1.6404", out2)[0] == 0
        np.testing.assert_array_equal(read_grid_file(out1).values[0], [-2, 2])
        np.testing.assert_array_equal(read_grid_file(out2).values[0], [-2, 3])

    REMOVED_FLAGS = {"slope": ["--slope", "1.2"], "beta-map": ["--beta-map", "b.bmap"],
                     "image": ["--image", "x.ppm", "--weights", "w"]}

    @pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
    def test_removed_flags_are_usage_errors(self, run, tmp_path, flag):
        # the allocation takes one scalar beta, and step maps come from a
        # QSMAP only: stepmap is the one inference path
        qsmap = tmp_path / "u.qsmap"
        write_qsmap(qsmap, np.ones((4, 4)))
        code, out, err = run("qpmap", "--stepmap", qsmap, "--base-qp", 32,
                             *self.REMOVED_FLAGS[flag], tmp_path / "o.qpmap")
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err
        assert not list(tmp_path.glob("o.*"))

    def test_source_required(self, run, tmp_path):
        code, _, err = run("qpmap", "--base-qp", 32, tmp_path / "o.qpmap")
        assert code == 2
        assert "--stepmap" in err

    @pytest.mark.parametrize("base_qp,lam", [(22, 16.0), (27, 8.0), (32, 4.0), (37, 1.0)])
    def test_manifest_echoes_alignment_lambda(self, run, tmp_path, base_qp, lam):
        qsmap = tmp_path / "u.qsmap"
        write_qsmap(qsmap, np.full((2, 2), 1.0))
        out = tmp_path / "o.qpmap"
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", base_qp, out)[0] == 0
        manifest = json.loads((tmp_path / "o.qpmap.manifest.json").read_text())
        assert manifest["alignment_lambda"] == lam
        assert manifest["config"]["base_qp"] == base_qp
        assert manifest["config"]["beta"] == -1.367
        assert set(manifest["config"]) == {"base_qp", "beta", "clamp", "n_const",
                                           "block_size", "eps", "lambda_table"}
        assert manifest["inputs"] == {"stepmap": str(qsmap)}
        assert str(out) in manifest["outputs"]

    def test_steps_near_the_float64_limit(self, run, tmp_path):
        # a block of 1e308 steps used to overflow its mean and exit 2 with
        # "step means must be finite"; its ratio is about 2e-308, the other
        # block's 2, so the raw offsets are about +4191 and -4.101
        values = np.ones((4, 8))
        values[:, :4] = 1e308
        qsmap = tmp_path / "big.qsmap"
        write_qsmap(qsmap, values)
        out = tmp_path / "o.qpmap"
        code, stdout, err = run("qpmap", "--stepmap", qsmap, "--base-qp", 32, out)
        assert (code, err) == (0, "")
        assert stdout == "qpmap 2x1 base 32 offsets [-4, 4]\n"
        np.testing.assert_array_equal(read_grid_file(out).values[0], [4, -4])

    def test_explicit_frame_dims_change_edge_weighting(self, run, tmp_path):
        qsmap = tmp_path / "m.qsmap"
        write_qsmap(qsmap, np.arange(1, 36, dtype=float).reshape(5, 7))
        out = tmp_path / "o.qpmap"
        code, _, _ = run("qpmap", "--stepmap", qsmap, "--base-qp", 32,
                         "--width", 100, "--height", 80, out)
        assert code == 0
        qpm = read_grid_file(out)
        assert (qpm.blocks_x, qpm.blocks_y) == (2, 2)

    def test_invalid_base_qp(self, run, tmp_path):
        qsmap = tmp_path / "u.qsmap"
        write_qsmap(qsmap, np.full((2, 2), 1.0))
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", 99,
                   tmp_path / "o.qpmap")[0] == 2

    @pytest.mark.parametrize("base_qp,offsets", [(0, [0, 2]), (63, [-2, 0])])
    def test_block_qps_clipped_to_legal_range(self, run, tmp_path, base_qp, offsets):
        # unclipped offsets {-2, +2}; at base 63 or 0 they used to give block
        # QPs of 65 or -2, which simulate rejects
        values = np.ones((4, 8))
        values[:, 4:] = 2.0
        qsmap = tmp_path / "two.qsmap"
        write_qsmap(qsmap, values)
        image = tmp_path / "img.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(64, 128, seed=3)), image)
        out = tmp_path / "o.qpmap"
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", base_qp, out)[0] == 0
        np.testing.assert_array_equal(read_grid_file(out).values[0], offsets)
        np.testing.assert_array_equal(read_grid_file(str(out) + ".lscale").values[0],
                                      2.0 ** (np.array(offsets) / 3))
        code, _, err = run("simulate", image, "--qpmap", out, tmp_path / "sim")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("flags,code", [
        (["--beta", "inf"], 2), (["--beta", "nan"], 2),
        (["--clamp", "64"], 2), (["--clamp", "-1"], 2),
        (["--beta", "1e308"], 0),
    ], ids=["beta-inf", "beta-nan", "clamp-64", "clamp-neg", "overflow-saturates"])
    def test_knob_domain(self, run, tmp_path, flags, code):
        # ratios {4/3, 2/3}; 3 * 1e308 overflows to inf, which saturates
        # at the clamp instead of failing
        values = np.ones((4, 8))
        values[:, 4:] = 2.0
        qsmap = tmp_path / "two.qsmap"
        write_qsmap(qsmap, values)
        out = tmp_path / "o.qpmap"
        got, _, err = run("qpmap", "--stepmap", qsmap, "--base-qp", 32, *flags, out)
        assert got == code
        if code:
            assert err.startswith("error:")
            assert not list(tmp_path.glob("o.*"))
        else:
            np.testing.assert_array_equal(read_grid_file(out).values[0], [4, -4])

    @pytest.mark.parametrize("flags", [["--width", "0"], ["--height", "0"],
                                       ["--width", "-64"], ["--height", "-1"]],
                             ids=["width-0", "height-0", "width-neg", "height-neg"])
    def test_non_positive_frame_size_is_exit_2(self, run, tmp_path, flags):
        # a zero size used to read as "not given" and fall back to 16 x grid
        qsmap = tmp_path / "two.qsmap"
        write_qsmap(qsmap, np.ones((1, 2)))
        code, out, err = run("qpmap", "--stepmap", qsmap, "--base-qp", 32, *flags,
                             tmp_path / "o.qpmap")
        assert (code, out) == (2, "")
        assert "at least 1" in err
        assert not list(tmp_path.glob("o.*"))

    def test_outputs_byte_identical_across_runs(self, run, tmp_path):
        qsmap = tmp_path / "u.qsmap"
        write_qsmap(qsmap, np.linspace(0.5, 3.0, 16).reshape(4, 4))
        for name in ("a.qpmap", "b.qpmap"):
            assert run("qpmap", "--stepmap", qsmap, "--base-qp", 27,
                       tmp_path / name)[0] == 0
        for suffix in ("", ".lscale"):
            assert (tmp_path / ("a.qpmap" + suffix)).read_bytes() == \
                (tmp_path / ("b.qpmap" + suffix)).read_bytes()
        a = json.loads((tmp_path / "a.qpmap.manifest.json").read_text())
        b = json.loads((tmp_path / "b.qpmap.manifest.json").read_text())
        assert a["config"] == b["config"]


class TestMetricsCommand:
    @pytest.fixture()
    def ppm_192(self, tmp_path):
        path = tmp_path / "img192.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(192, 192, seed=21)), path)
        return path

    def test_identical_images(self, run, ppm_192):
        code, stdout, _ = run("metrics", ppm_192, ppm_192)
        assert code == 0
        assert stdout.strip().endswith("inf,1.0,1.0")

    def test_lpips_column(self, run, ppm_192):
        code, stdout, _ = run("metrics", ppm_192, ppm_192, "--lpips", "0.1")
        assert code == 0
        assert stdout.strip().endswith("inf,1.0,1.0,10.0")

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_lpips_out_of_domain_is_exit_2(self, run, ppm_192, value):
        code, stdout, err = run("metrics", ppm_192, ppm_192, "--lpips", value)
        assert (code, stdout) == (2, "")
        assert "finite and positive" in err

    def test_dimension_mismatch(self, run, tmp_path, ppm_192):
        other = tmp_path / "other.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(32, 32, seed=1)), other)
        assert run("metrics", ppm_192, other)[0] == 2

    def test_pair_below_ms_ssim_minimum_is_exit_2(self, run, ppm_64):
        code, stdout, err = run("metrics", ppm_64, ppm_64)
        assert (code, stdout) == (2, "")
        assert "176" in err

    def test_trailing_bytes_is_exit_2(self, run, tmp_path, ppm_192):
        long = tmp_path / "long.ppm"
        long.write_bytes(ppm_192.read_bytes() + b"garbage")
        code, stdout, err = run("metrics", ppm_192, long)
        assert code == 2
        assert stdout == ""
        assert "bytes after" in err

    def test_luma_only_mode(self, run, tmp_path):
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(200, 200, seed=2)), a)
        save_ppm(RasterImage(pixels=textured_pixels(200, 200, seed=3)), b)
        code, stdout, _ = run("metrics", a, b, "--luma-only")
        assert code == 0
        fields = stdout.strip().split(",")
        assert len(fields) == 4
        assert 0.0 < float(fields[2]) < 1.0

    def test_luma_only_scores_the_encoded_plane(self, run, tmp_path):
        # scoring limited-range 4:2:0 Y instead gave 33.50 dB here, where
        # simulate encoded the gray plane at 32.23 dB
        image = tmp_path / "img.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(200, 240, seed=4)), image)
        code, sim_out, _ = run("simulate", image, "--qp", 37, tmp_path / "sim")
        assert code == 0
        code, met_out, _ = run("metrics", image, tmp_path / "sim.recon.ppm",
                               "--luma-only")
        assert code == 0
        assert met_out.strip().split(",")[1] == sim_out.split()[3]


class TestBdrateCommand:
    RATES = [0.25, 0.55, 1.1, 2.3]
    QUALS = [30.4, 33.1, 35.9, 38.6]

    def write_curve(self, path, rates, quals):
        path.write_text("rate_bpp,quality\n"
                        + "".join(f"{r},{q}\n" for r, q in zip(rates, quals)))

    def test_identical_curves(self, run, tmp_path):
        csv = tmp_path / "c.csv"
        self.write_curve(csv, self.RATES, self.QUALS)
        code, stdout, _ = run("bdrate", csv, csv, "--metric", "psnr")
        assert code == 0
        result = json.loads(stdout)
        assert result["bd_rate_percent"] == pytest.approx(0.0, abs=1e-9)
        assert result["overlap"] == [30.4, 38.6]

    def test_rate_shift_fixture(self, run, tmp_path):
        anchor = tmp_path / "anchor.csv"
        test = tmp_path / "test.csv"
        self.write_curve(anchor, self.RATES, self.QUALS)
        self.write_curve(test, [r * 0.9 for r in self.RATES], self.QUALS)
        code, stdout, _ = run("bdrate", anchor, test)
        assert code == 0
        assert json.loads(stdout)["bd_rate_percent"] == pytest.approx(-10.0, abs=1e-6)

    def test_three_rows_rejected(self, run, tmp_path):
        short = tmp_path / "short.csv"
        self.write_curve(short, self.RATES[:3], self.QUALS[:3])
        assert run("bdrate", short, short)[0] == 2

    def test_disjoint_quality_is_exit_6(self, run, tmp_path):
        low = tmp_path / "low.csv"
        high = tmp_path / "high.csv"
        self.write_curve(low, self.RATES, [10, 11, 12, 13])
        self.write_curve(high, self.RATES, [20, 21, 22, 23])
        assert run("bdrate", low, high)[0] == 6

    def test_raw_lpips_conversion(self, run, tmp_path):
        anchor = tmp_path / "anchor.csv"
        test = tmp_path / "test.csv"
        # raw LPIPS decreases with rate; dB conversion flips it
        self.write_curve(anchor, self.RATES, [0.31, 0.22, 0.15, 0.09])
        self.write_curve(test, [r * 0.9 for r in self.RATES],
                         [0.31, 0.22, 0.15, 0.09])
        code, stdout, _ = run("bdrate", anchor, test, "--metric", "lpips")
        assert code == 0
        assert json.loads(stdout)["bd_rate_percent"] == pytest.approx(-10.0, abs=1e-6)

    @pytest.mark.parametrize("interp", ["cubic", "pchip"])
    def test_overflowing_rate_ratio_is_exit_2(self, run, tmp_path, interp):
        # a rate ratio of about 10^448 used to print "bd_rate_percent": Infinity,
        # which is not JSON, and exit 0
        anchor = tmp_path / "a.csv"
        test = tmp_path / "t.csv"
        self.write_curve(anchor, [1e-300, 1e-299, 1e-298, 1e300], [1, 2, 3, 4])
        self.write_curve(test, [1e-300, 1e298, 1e299, 1e300], [1, 2, 3, 4])
        code, out, err = run("bdrate", anchor, test, "--interp", interp)
        assert (code, out) == (2, "")
        assert "not finite" in err

    @pytest.mark.parametrize("interp", ["cubic", "pchip"])
    def test_quality_span_beyond_float64_is_exit_2(self, run, tmp_path, interp):
        # used to print overflow RuntimeWarnings, then "Singular matrix"
        # (cubic) or "rate ratio 10^nan is not finite" (pchip)
        anchor = tmp_path / "a.csv"
        test = tmp_path / "t.csv"
        self.write_curve(anchor, [1, 2, 3, 4], [-1e308, 0, 1, 1e308])
        self.write_curve(test, [1, 2, 3, 4], [-1e308, 1e307, 1e308, 1.5e308])
        code, out, err = run("bdrate", anchor, test, "--interp", interp)
        assert (code, out) == (2, "")
        assert "quality span" in err and "exceeds float64" in err

    @pytest.mark.parametrize("interp", ["cubic", "pchip"])
    def test_qualities_near_the_float64_limit(self, run, tmp_path, interp):
        # every statistic used to overflow in the fits
        anchor = tmp_path / "a.csv"
        test = tmp_path / "t.csv"
        self.write_curve(anchor, [1, 2, 3, 4], [1e308, 1.5e308, 1.6e308, 1.7e308])
        self.write_curve(test, [1, 2, 3, 4], [1e308, 1.55e308, 1.6e308, 1.7e308])
        code, out, err = run("bdrate", anchor, test, "--interp", interp)
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert np.isfinite([result["bd_rate_percent"], result["bd_quality"]]).all()

    @pytest.mark.parametrize("interp", ["cubic", "pchip"])
    def test_subresolution_quality_spacing_is_exit_2(self, run, tmp_path, interp):
        # used to print "Singular matrix" (cubic), or four RuntimeWarnings
        # and then "rate ratio 10^nan is not finite" (pchip)
        anchor = tmp_path / "a.csv"
        test = tmp_path / "t.csv"
        self.write_curve(anchor, [1, 2, 3, 4], [0, 5e-324, 1, 2])
        self.write_curve(test, [1, 2, 3, 4], [0, 0.5, 1, 2])
        code, out, err = run("bdrate", anchor, test, "--interp", interp)
        assert (code, out) == (2, "")
        assert "coincide at float64 resolution" in err
        assert "RuntimeWarning" not in err


class TestSimulateCommand:
    def test_black_image_is_lossless(self, run, tmp_path):
        ppm = tmp_path / "black.ppm"
        save_ppm(RasterImage(pixels=np.zeros((64, 64, 3), np.uint8)), ppm)
        for qp in (22, 37):
            code, stdout, _ = run("simulate", ppm, "--qp", qp,
                                  tmp_path / f"out{qp}")
            assert code == 0
            assert "mse 0.0" in stdout
            assert "psnr inf" in stdout

    def test_zero_offset_map_matches_scalar(self, run, tmp_path, ppm_64):
        qpmap = tmp_path / "zero.qpmap"
        qpmap.write_text("QPMAP 1\n1 1 64 32\n0\n")
        assert run("simulate", ppm_64, "--qp", 32, tmp_path / "scalar")[0] == 0
        assert run("simulate", ppm_64, "--qpmap", qpmap, tmp_path / "mapped")[0] == 0
        for suffix in (".rd.csv", ".bits", ".recon.ppm"):
            assert (tmp_path / ("scalar" + suffix)).read_bytes() == \
                (tmp_path / ("mapped" + suffix)).read_bytes()

    def test_outputs_are_consistent(self, run, tmp_path, ppm_64):
        code, _, _ = run("simulate", ppm_64, "--qp", 30, tmp_path / "sim")
        assert code == 0
        csv = (tmp_path / "sim.rd.csv").read_text().splitlines()
        assert csv[0] == "rate_bpp,quality"
        rate = float(csv[1].split(",")[0])
        bits = read_grid_file(tmp_path / "sim.bits", expect_tag="BITS")
        assert rate == bits.values.sum() / (64 * 64)
        recon = load_ppm(tmp_path / "sim.recon.ppm")
        assert (recon.width, recon.height) == (64, 64)

    def test_grid_mismatch_is_exit_5(self, run, tmp_path, ppm_64):
        qpmap = tmp_path / "wrong.qpmap"
        qpmap.write_text("QPMAP 1\n4 4 64 32\n" + "\n".join(["0 0 0 0"] * 4) + "\n")
        assert run("simulate", ppm_64, "--qpmap", qpmap, tmp_path / "x")[0] == 5
        # grids that tile the 64x64 frame, but not in 64-px blocks
        for bx, size in ((2, 32), (1, 128), (6, 12)):
            rows = "\n".join([" ".join(["0"] * bx)] * bx)
            qpmap.write_text(f"QPMAP 1\n{bx} {bx} {size} 32\n{rows}\n")
            code, stdout, _ = run("simulate", ppm_64, "--qpmap", qpmap, tmp_path / "x")
            assert (code, stdout) == (5, ""), size
            assert not list(tmp_path.glob("x.*"))

    def test_conflicting_qp_is_exit_2(self, run, tmp_path, ppm_64):
        qpmap = tmp_path / "zero.qpmap"
        qpmap.write_text("QPMAP 1\n1 1 64 32\n0\n")
        assert run("simulate", ppm_64, "--qpmap", qpmap, "--qp", 37,
                   tmp_path / "x")[0] == 2

    @pytest.mark.parametrize("token", ["1_0", "+1"])
    def test_non_decimal_offset_is_exit_2(self, run, tmp_path, ppm_64, token):
        qpmap = tmp_path / "odd.qpmap"
        qpmap.write_text(f"QPMAP 1\n1 1 64 32\n{token}\n")
        assert run("simulate", ppm_64, "--qpmap", qpmap, tmp_path / "x")[0] == 2
        assert not list(tmp_path.glob("x.*"))
        # the same spellings are no real value either: a QSMAP step
        qsmap = tmp_path / "odd.qsmap"
        qsmap.write_text(f"QSMAP 1\n1 1\n{token}\n")
        assert run("qpmap", "--stepmap", qsmap, "--base-qp", 32, tmp_path / "x")[0] == 2
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("qp_arg,qpmap_text", [
        (-50, None),
        (None, "QPMAP 1\n1 1 64 32\n-200\n"),
        (None, "QPMAP 1\n1 1 64 999\n0\n"),
    ], ids=["scalar-qp", "offset", "base-qp"])
    def test_out_of_range_qp_is_exit_2(self, run, tmp_path, ppm_64, qp_arg, qpmap_text):
        argv = ["simulate", ppm_64]
        if qp_arg is not None:
            argv += ["--qp", qp_arg]
        if qpmap_text is not None:
            qpmap = tmp_path / "bad.qpmap"
            qpmap.write_text(qpmap_text)
            argv += ["--qpmap", qpmap]
        code, _, err = run(*argv, tmp_path / "x")
        assert code == 2
        assert "outside [0, 63]" in err
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("qp_arg,qpmap_text,span", [
        (10 ** 23, None, [10 ** 23] * 2),
        (None, f"QPMAP 1\n2 1 64 {10 ** 29}\n0 0\n", [10 ** 29] * 2),
        (None, "QPMAP 1\n2 1 64 32\n0 9223372036854775807\n", [32, 2 ** 63 + 31]),
    ], ids=["scalar-qp", "base-qp", "offset"])
    def test_qp_beyond_int64_is_exit_2(self, run, tmp_path, qp_arg, qpmap_text, span):
        # these used to exit 1 with an OverflowError traceback (the first
        # two) or to wrap in int64 and report the span [-9223372036854775777, 32]
        image = tmp_path / "img.ppm"
        save_ppm(RasterImage(pixels=textured_pixels(64, 128, seed=24)), image)
        argv = ["simulate", image]
        if qp_arg is not None:
            argv += ["--qp", qp_arg]
        if qpmap_text is not None:
            qpmap = tmp_path / "big.qpmap"
            qpmap.write_text(qpmap_text)
            argv += ["--qpmap", qpmap]
        code, out, err = run(*argv, tmp_path / "x")
        assert (code, out) == (2, "")
        assert err == f"error: block QPs span [{span[0]}, {span[1]}], outside [0, 63]\n"
        assert not list(tmp_path.glob("x.*"))


def test_outputs_byte_identical_across_blas_threads(tmp_path):
    """stepmap (width 16 and the width-64 reference plan, whose K = 576
    products BLAS may split across threads), simulate (a flat QP and a
    mapped one) and metrics (RGB and --luma-only), each run in fresh
    processes under one and two OpenBLAS threads, write the same bytes
    every time. The metrics frame is 2432 px wide so that the SSIM
    filter's tile products are large enough to be split across threads;
    metrics prints its scores with repr."""
    image = tmp_path / "img.ppm"
    save_ppm(RasterImage(pixels=textured_pixels(128, 128, seed=21)), image)
    wide = tmp_path / "wide.ppm"
    save_ppm(RasterImage(pixels=textured_pixels(176, 2432, seed=22)), wide)
    for width in (16, 64):
        save_weights(make_random_weights(seed=3, width=width), tmp_path / f"w{width}.qsnw")
    # the wide frame's 38x3 blocks, offsets spanning QP 15..45
    offsets = np.random.default_rng(23).integers(-15, 16, (3, 38))
    qpmap = tmp_path / "wide.qpmap"
    write_grid_file(qpmap, "QPMAP", 64, 30, offsets)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def outputs(threads: str, tag: str) -> dict:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        prefix = tmp_path / tag
        recon = f"{prefix}.wide.recon.ppm"
        stdout = []
        for argv in (["stepmap", image, tmp_path / "w16.qsnw", f"{prefix}.w16.qsmap"],
                     ["stepmap", image, tmp_path / "w64.qsnw", f"{prefix}.w64.qsmap"],
                     ["simulate", image, "--qp", "27", prefix],
                     ["simulate", wide, "--qp", "27", f"{prefix}.wide"],
                     ["simulate", wide, "--qpmap", qpmap, f"{prefix}.mapped"],
                     ["metrics", wide, recon],
                     ["metrics", wide, recon, "--luma-only"]):
            proc = subprocess.run([sys.executable, "-m", "qpalloc.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            if argv[0] == "metrics":
                stdout.append(proc.stdout.replace(recon, "recon"))
        files = {suffix: Path(f"{prefix}{suffix}").read_bytes()
                 for suffix in (".w16.qsmap", ".w64.qsmap", ".rd.csv", ".bits",
                                ".recon.ppm", ".wide.recon.ppm", ".mapped.rd.csv",
                                ".mapped.bits", ".mapped.recon.ppm")}
        return {"metrics": stdout, **files}

    first = outputs("1", "t1")
    assert outputs("2", "t2a") == first
    assert outputs("2", "t2b") == first


def test_import_leaves_scipy_unloaded(tmp_path, fixture_weights):
    """Every command runs in a fresh process that imports qpalloc.cli,
    which loads no scipy; and with scipy made unimportable, every command
    runs, bdrate --interp pchip included, and prints what the library
    computes in-process. scipy serves the tests only, as an oracle. Each
    command also loads only the qpalloc modules it runs, and the front
    door (the import, --version, --help, usage errors) loads no numpy."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    # at exit, the last stderr line lists the numpy, scipy and qpalloc modules loaded
    listing = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
               "m for m, mod in list(sys.modules.items()) if mod is not None "
               "and m.split('.')[0] in ('numpy', 'scipy', 'qpalloc'))), file=sys.stderr)); ")

    def loaded(code, *argv, returncode=0):
        """Run code in a fresh process; return its stdout and the
        qpalloc submodules it loaded, after checking that it loaded no
        scipy."""
        proc = subprocess.run([sys.executable, "-c", listing + code, *map(str, argv)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == returncode, (argv, proc.stderr)
        modules = json.loads(proc.stderr.splitlines()[-1])
        assert not [m for m in modules if m.split(".")[0] == "scipy"], argv
        return proc.stdout, {m for m in modules if m.split(".")[0] != "qpalloc"} | {
            m.split(".")[1] for m in modules if m.startswith("qpalloc.")}

    def cli(*argv, returncode=0):
        return loaded("sys.modules['scipy'] = None; "
                      "from qpalloc.cli import main; sys.exit(main(sys.argv[1:]))",
                      *argv, returncode=returncode)

    anchor, test = tmp_path / "anchor.csv", tmp_path / "test.csv"
    front_door = [loaded("import qpalloc, qpalloc.cli")[1], cli("--version")[1],
                  cli("--help")[1], cli(returncode=2)[1],
                  cli("qpmap", "--base-qp", 32, returncode=2)[1],
                  cli("bdrate", anchor, test, "--metric", "mse", returncode=2)[1]]
    for modules in front_door:
        assert modules <= {"cli", "errors"}, modules

    image, weights, prefix = tmp_path / "img.ppm", tmp_path / "w.qsnw", tmp_path / "run"
    save_ppm(RasterImage(pixels=textured_pixels(176, 176, seed=23)), image)
    save_weights(fixture_weights, weights)
    _, modules = cli("stepmap", image, weights, f"{prefix}.qsmap")
    assert not modules & {"alloc", "toysim", "metrics", "bdrate", "gridfile"}, modules
    _, modules = cli("qpmap", "--stepmap", f"{prefix}.qsmap", "--base-qp", 32,
                     f"{prefix}.qpmap")
    assert not modules & {"toysim", "metrics", "bdrate"}, modules
    _, modules = cli("simulate", image, "--qpmap", f"{prefix}.qpmap", prefix)
    assert not modules & {"stepnet", "metrics", "bdrate"}, modules
    _, modules = cli("metrics", image, f"{prefix}.recon.ppm", "--luma-only")
    assert not modules & {"stepnet", "alloc", "toysim", "bdrate", "gridfile"}, modules
    anchor.write_text("rate_bpp,quality\n0.25,30.4\n0.55,33.1\n1.1,35.9\n2.3,38.6\n")
    test.write_text("rate_bpp,quality\n0.2,29.0\n0.3,31.8\n0.9,35.0\n1.6,36.1\n2.8,39.7\n")
    a, t = read_rd_csv(anchor), read_rd_csv(test)
    for interp in ("cubic", "pchip"):
        stdout, modules = cli("bdrate", anchor, test, "--interp", interp)
        assert not modules & {"imageio", "metrics", "stepnet", "alloc", "toysim",
                              "gridfile"}, modules
        assert json.loads(stdout) == {
            "bd_rate_percent": bd_rate(a, t, mode=interp),
            "bd_quality": bd_quality(a, t, mode=interp),
            "overlap": list(quality_overlap(a, t))}
    raw = tmp_path / "raw.csv"
    raw.write_text("rate_bpp,quality\n0.25,0.31\n0.55,0.22\n1.1,0.15\n2.3,0.09\n")
    _, modules = cli("bdrate", raw, raw, "--metric", "lpips")
    assert "metrics" in modules
    assert not modules & {"stepnet", "alloc", "toysim", "gridfile"}, modules


def test_readme_cli_examples_parse():
    """Every qpalloc line in README's CLI block parses with the current
    parser, so a flag that is removed but still documented fails here.
    Only the arguments are parsed; no command runs and no file opens."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = _build_parser()
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["qpalloc"]]
    assert {argv[1] for argv in commands} == {"stepmap", "qpmap", "metrics", "bdrate",
                                              "simulate"}
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_parser_constants_match_their_modules():
    """The parser writes these two out so that building it imports
    neither alloc nor bdrate."""
    assert _DEFAULT_BETA == DEFAULT_BETA
    assert _METRIC_TAGS == METRIC_TAGS
