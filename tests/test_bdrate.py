import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpalloc.bdrate import RdCurve, bd_quality, bd_rate, quality_overlap, read_rd_csv
from qpalloc.errors import CurveError, FormatError, OverlapError

from _oracles import reference_bd_quality, reference_bd_rate


def curve(rates, qualities):
    return RdCurve(rates=np.asarray(rates, float), qualities=np.asarray(qualities, float))


RATES = [0.25, 0.55, 1.1, 2.3]
QUALS = [30.4, 33.1, 35.9, 38.6]


class TestCurveValidation:
    def test_three_points_rejected(self):
        with pytest.raises(CurveError, match="4 points"):
            curve(RATES[:3], QUALS[:3])

    @pytest.mark.parametrize("rates,quals,match", [
        ([RATES], [QUALS], "1-D"),
        (RATES, [30.4, np.nan, 35.9, 38.6], "finite"),
    ], ids=["2-d", "nan-quality"])
    def test_malformed_arrays_rejected(self, rates, quals, match):
        with pytest.raises(CurveError, match=match):
            curve(rates, quals)

    def test_sorted_internally(self):
        shuffled = curve(RATES[::-1], QUALS[::-1])
        np.testing.assert_array_equal(shuffled.rates, RATES)
        np.testing.assert_array_equal(shuffled.qualities, QUALS)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(CurveError, match="positive"):
            curve([0.0, 0.5, 1.0, 2.0], QUALS)

    def test_non_monotone_quality_rejected(self):
        with pytest.raises(CurveError, match="increase"):
            curve(RATES, [30.0, 35.0, 33.0, 38.0])

    def test_duplicate_rates_rejected(self):
        with pytest.raises(CurveError, match="strictly increasing"):
            curve([0.25, 0.25, 1.0, 2.0], QUALS)

    # each quality is finite but the span is not; both used to reach the
    # fits and fail there with overflow warnings and an unrelated message
    @pytest.mark.parametrize("quals", [[-1e308, 0.0, 1.0, 1e308],
                                       [-1e308, 1e307, 1e308, 1.5e308]])
    def test_quality_span_beyond_float64_rejected(self, quals):
        with pytest.raises(CurveError, match="exceeds float64"):
            curve([1.0, 2.0, 3.0, 4.0], quals)

    def test_widest_finite_quality_span_accepted(self):
        quals = [-8e307, 0.0, 1.0, 8e307]  # span 1.6e308
        np.testing.assert_array_equal(curve([1.0, 2.0, 3.0, 4.0], quals).qualities, quals)


class TestBdRate:
    def test_identical_curves(self):
        assert bd_rate(curve(RATES, QUALS), curve(RATES, QUALS)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_constant_rate_scaling(self):
        anchor = curve(RATES, QUALS)
        test = curve([r * 0.9 for r in RATES], QUALS)
        assert bd_rate(anchor, test) == pytest.approx(-10.0, abs=1e-6)

    def test_point_order_is_irrelevant(self):
        anchor = curve(RATES, QUALS)
        shuffled = curve(RATES[::-1], QUALS[::-1])
        test = curve([r * 1.15 for r in RATES], QUALS)
        assert bd_rate(anchor, test) == bd_rate(shuffled, test)

    def test_antisymmetry_product(self):
        anchor = curve(RATES, QUALS)
        test = curve([0.22, 0.5, 1.3, 2.1], [30.9, 33.4, 36.4, 38.2])
        a = bd_rate(anchor, test)
        b = bd_rate(test, anchor)
        assert (1 + a / 100.0) * (1 + b / 100.0) == pytest.approx(1.0, abs=1e-6)

    def test_rate_scale_equivariance(self):
        anchor = curve(RATES, QUALS)
        test = curve([0.22, 0.5, 1.3, 2.1], [30.9, 33.4, 36.4, 38.2])
        baseline = bd_rate(anchor, test)
        for factor in (0.01, 3.0, 1000.0):
            scaled = bd_rate(curve([r * factor for r in RATES], QUALS),
                             curve([r * factor for r in (0.22, 0.5, 1.3, 2.1)],
                                   [30.9, 33.4, 36.4, 38.2]))
            assert scaled == pytest.approx(baseline, abs=1e-9)

    def test_no_quality_overlap(self):
        low = curve(RATES, [10.0, 11.0, 12.0, 13.0])
        high = curve(RATES, [20.0, 21.0, 22.0, 23.0])
        with pytest.raises(OverlapError):
            bd_rate(low, high)

    def test_overflowing_rate_ratio_is_curve_error(self):
        # the mean log10-rate gap is about 448 decades; 10^448 used to
        # come back as inf (printed as JSON "Infinity") after a RuntimeWarning
        quals = [1.0, 2.0, 3.0, 4.0]
        anchor = curve([1e-300, 1e-299, 1e-298, 1e300], quals)
        test = curve([1e-300, 1e298, 1e299, 1e300], quals)
        with pytest.raises(CurveError, match="not finite"):
            bd_rate(anchor, test)


class TestBdQuality:
    def test_identical_curves(self):
        assert bd_quality(curve(RATES, QUALS), curve(RATES, QUALS)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_constant_quality_shift(self):
        anchor = curve(RATES, QUALS)
        test = curve(RATES, [q + 1.0 for q in QUALS])
        assert bd_quality(anchor, test) == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_rate_ranges(self):
        anchor = curve(RATES, QUALS)
        test = curve([r * 100 for r in RATES], QUALS)
        # the message names both log10-rate ranges, as quality_overlap does
        ranges = (f"[{np.log10(0.25)}, {np.log10(2.3)}] vs "
                  f"[{np.log10(0.25 * 100)}, {np.log10(2.3 * 100)}]")
        with pytest.raises(OverlapError, match=re.escape(f"log10 rate ranges do not "
                                                         f"overlap ({ranges})")):
            bd_quality(anchor, test)


class TestHugeSpans:
    """The fits run on the quality (or log-rate) axis mapped onto [-1, 1]
    and on qualities divided by a power of two, so curves near the float64
    limit give the statistics of the same curves at an ordinary scale:
    BD-rate does not change under an affine map of quality, and BD-quality
    scales with it. Each of these used to overflow."""

    RATES = [1.0, 2.0, 3.0, 4.0]
    CASES = [  # (anchor, test, scale): the qualities are scale * a small curve
        ([0.0, 1e300, 2e300, 3e300], [0.0, 1.5e300, 2e300, 3e300], 1e300),
        ([-8e307, -7e307, 1.0, 8e307], [-8e307, 1e307, 2e307, 8e307], 1e307),
        ([1e308, 1.5e308, 1.6e308, 1.7e308], [1e308, 1.55e308, 1.6e308, 1.7e308], 1e308),
    ]

    @pytest.mark.parametrize("anchor,test,scale", CASES, ids=["1e300", "8e307", "1.7e308"])
    def test_match_the_same_curves_at_unit_scale(self, anchor, test, scale):
        big = curve(self.RATES, anchor), curve(self.RATES, test)
        small = (curve(self.RATES, [q / scale for q in anchor]),
                 curve(self.RATES, [q / scale for q in test]))
        assert bd_rate(*big) == pytest.approx(bd_rate(*small), rel=1e-12)
        assert bd_quality(*big) == pytest.approx(scale * bd_quality(*small), rel=1e-12)

    def test_quality_difference_beyond_float64_is_curve_error(self):
        anchor = curve(self.RATES, [-1.7e308, -1.6e308, -1.5e308, -1.4e308])
        test = curve(self.RATES, [1.4e308, 1.5e308, 1.6e308, 1.7e308])
        with pytest.raises(CurveError, match="quality difference"):
            bd_quality(anchor, test)


class TestCoincidingPoints:
    """Strictly increasing points that are equal at float64 resolution of
    their span: the fit cannot tell them apart. These used to raise
    "Singular matrix"."""

    RATES = [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("statistic", [bd_rate, bd_quality])
    def test_subresolution_qualities(self, statistic):
        anchor = curve(self.RATES, [0.0, 5e-324, 1.0, 2.0])
        test = curve(self.RATES, [0.0, 0.5, 1.0, 2.0])
        with pytest.raises(CurveError, match="coincide at float64 resolution"):
            statistic(anchor, test)

    def test_rates_with_equal_log10(self):
        anchor = curve([1e300, np.nextafter(1e300, 2e300), 2e300, 3e300], [1, 2, 3, 4])
        test = curve([1e300, 1.5e300, 2e300, 3e300], [1, 2, 3, 4])
        assert np.log10(anchor.rates[0]) == np.log10(anchor.rates[1])
        with pytest.raises(CurveError, match="coincide at float64 resolution"):
            bd_quality(anchor, test)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("rate_bpp,quality\n"
                        + "".join(f"{r},{q}\n" for r, q in zip(RATES, QUALS)))
        loaded = read_rd_csv(path)
        np.testing.assert_array_equal(loaded.rates, RATES)
        np.testing.assert_array_equal(loaded.qualities, QUALS)

    def test_header_required(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("bpp,psnr\n0.2,30\n")
        with pytest.raises(FormatError, match=": expected header"):
            read_rd_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "curve.csv"
        for row in ("0.2,30,9", "0.2,3_0", "+0.2,30"):
            path.write_text(f"rate_bpp,quality\n{row}\n")
            # the message starts with the path, which holds the test's name
            with pytest.raises(FormatError, match=f": .*row {re.escape(repr(row))}"):
                read_rd_csv(path)


class TestDiagnostics:
    def test_overlap_reported(self):
        lo, hi = quality_overlap(curve(RATES, QUALS),
                                 curve(RATES, [31.0, 34.0, 36.0, 39.0]))
        assert (lo, hi) == (31.0, 38.6)


@st.composite
def overlapping_curves(draw):
    """Two strictly increasing 4-8 point curves, 20-60 dB over 0.01-400
    bpp, whose quality and log10-rate ranges overlap by at least 5 % of
    the wider span: the means divide by the overlap, so the rounding of
    either implementation grows as its inverse."""
    quality, log_rate = draw(st.floats(20.0, 30.0)), draw(st.floats(-2.0, -1.0))

    def one():
        n = draw(st.integers(4, 8))

        def axis(start, shift, lo, hi):
            gaps = draw(st.lists(st.floats(lo, hi), min_size=n - 1, max_size=n - 1))
            return start + draw(st.floats(0.0, shift)) + np.concatenate(([0.0], np.cumsum(gaps)))

        return curve(10.0 ** axis(log_rate, 0.1, 0.1, 0.5), axis(quality, 1.0, 1.0, 4.0))

    return one(), one()


class TestReferenceFit:
    """The closed-form fit on mapped axes against the textbook VCEG-M33
    route, np.polyfit and np.polyint on the raw axes. Over 11 runs of
    5,000 pairs from this strategy the two differed by at most 7.9e-9 %
    in BD-rate and 1.6e-11 dB in BD-quality; the bounds allow about 12
    times that."""

    BD_RATE_TOL = 1e-7  # %
    BD_QUALITY_TOL = 2e-10  # dB

    @settings(max_examples=300, deadline=None)
    @given(pair=overlapping_curves())
    def test_matches_polyfit_oracle(self, pair):
        anchor, test = pair
        assert abs(bd_rate(anchor, test) - reference_bd_rate(anchor, test)) <= self.BD_RATE_TOL
        assert abs(bd_quality(anchor, test) - reference_bd_quality(anchor, test)) \
            <= self.BD_QUALITY_TOL
