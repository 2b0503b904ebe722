import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpalloc.errors import FormatError
from qpalloc.imageio import BlockGrid, RasterImage, load_ppm, rgb_to_gray, save_ppm

# the six bytes that bytes.isspace() accepts
WHITESPACE = b" \t\n\r\x0b\x0c"


def ppm_bytes(width, height, payload):
    return f"P6\n{width} {height}\n255\n".encode() + bytes(payload)


@st.composite
def spaced_ppms(draw):
    """A P6 file of 1-8 px per side whose magic and fields are separated by
    runs of whitespace and "#" comments (any bytes but CR and LF, then CR
    or LF), with one whitespace byte, or a comment and its CR or LF, after
    maxval; returns (file bytes, (h, w, 3) pixels)."""
    space = st.sampled_from(WHITESPACE).map(lambda b: bytes([b]))
    comment = st.tuples(st.binary(max_size=12), st.sampled_from([b"\r", b"\n"])).map(
        lambda t: b"#" + t[0].replace(b"\n", b"").replace(b"\r", b"") + t[1])
    # the gap after the magic starts with whitespace, as the magic needs;
    # a comment may follow a field directly
    gaps = [b"".join(draw(st.lists(st.one_of(space, comment), min_size=1, max_size=4)))
            for _ in range(3)]
    gaps[0] = draw(space) + gaps[0]
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    fields = [str(width).encode(), str(height).encode(), b"255"]
    payload = draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
    header = b"P6" + b"".join(gap + field for gap, field in zip(gaps, fields))
    pixels = np.frombuffer(payload, np.uint8).reshape(height, width, 3)
    return header + draw(st.one_of(space, comment)) + payload, pixels


class TestPpm:
    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "red.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_ppm(path)
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]

    def test_2x2_known_bytes_row_major(self, tmp_path):
        payload = list(range(12))
        path = tmp_path / "four.ppm"
        path.write_bytes(ppm_bytes(2, 2, payload))
        img = load_ppm(path)
        assert img.pixels.reshape(-1).tolist() == payload

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match=": unsupported magic"):
            load_ppm(path)

    def test_magic_must_be_followed_by_whitespace(self, tmp_path):
        # this used to load as a 12x12 image, reading "12" off the magic
        path = tmp_path / "glued.ppm"
        path.write_bytes(b"P612 12 255\n" + bytes(432))
        with pytest.raises(FormatError, match="bad magic 'P61'"):
            load_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n1023\n" + bytes(6))
        with pytest.raises(FormatError, match=": maxval"):
            load_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError, match=": truncated payload"):
            load_ppm(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(ppm_bytes(2, 2, range(12)) + b"garbage")
        with pytest.raises(FormatError, match="7 bytes after"):
            load_ppm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ppm(tmp_path / "absent.ppm")

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "commented.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        img = load_ppm(path)
        assert (img.width, img.height) == (2, 1)

    @settings(max_examples=200, deadline=None)
    @given(case=spaced_ppms())
    @example(case=(b"P6\r#a\r\n2#b\r\x0b#\x0c\n\x0c1\t#\n\n255\x0c#\n\x00\x01\x02\x03",
                   np.array([[[35, 10, 0], [1, 2, 3]]], np.uint8)))
    def test_spaced_and_commented_headers_load(self, tmp_path_factory, case):
        data, pixels = case
        path = tmp_path_factory.mktemp("spaced") / "frame.ppm"
        path.write_bytes(data)
        loaded = load_ppm(path).pixels
        assert loaded.shape == pixels.shape
        assert loaded.tobytes() == pixels.tobytes()

    def test_netpbm_comment_rule(self, tmp_path):
        # a comment ends at CR as at LF, and a "#" ends the token before it;
        # after maxval, the comment's CR or LF is the one whitespace byte
        path = tmp_path / "frame.ppm"
        for header in (b"P6\n# made on a Mac\r2 1\r255\r", b"P6\n2 1#note\n255\n",
                       b"P6\n2#w\r1 255#m\r"):
            path.write_bytes(header + bytes(range(6)))
            assert load_ppm(path).pixels.tobytes() == bytes(range(6)), header

    @pytest.mark.parametrize("data,match", [
        (b"P6\n2 1\n# to the end of the file", ": truncated header$"),
        # the comment "#c 1" takes the height, so 255 is the height and
        # the payload is read as maxval
        (b"P6\n4#c 1\n255\n" + bytes(12), re.escape(": non-numeric header token b'" +
                                                      "\\x00" * 12 + "'")),
        (b"P6#x\n1 1\n255\n" + bytes(3), re.escape(": bad magic 'P6#'")),
    ], ids=["open-comment", "hash-in-field", "hash-after-magic"])
    def test_header_refusals(self, tmp_path, data, match):
        path = tmp_path / "frame.ppm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=match):
            load_ppm(path)

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        img = RasterImage(pixels=rng.integers(0, 256, (13, 7, 3)).astype(np.uint8))
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_ppm(img, first)
        save_ppm(load_ppm(first), second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("pixels,match", [
    (np.zeros((2, 2, 3)), "uint8 array"),
    (np.zeros((2, 2, 2), np.uint8), "channels must be 1 or 3"),
    (np.zeros((0, 2, 3), np.uint8), "at least 1x1"),
], ids=["float", "two-channels", "zero-rows"])
def test_raster_image_rejects(pixels, match):
    with pytest.raises(ValueError, match=match):
        RasterImage(pixels=pixels)


class TestGray:
    def test_black_maps_to_zero(self):
        img = RasterImage(pixels=np.zeros((3, 3, 3), np.uint8))
        assert np.all(rgb_to_gray(img) == 0)

    def test_white_maps_to_255(self):
        img = RasterImage(pixels=np.full((3, 3, 3), 255, np.uint8))
        assert np.all(rgb_to_gray(img) == 255)

    def test_single_channel_passthrough(self):
        plane = np.arange(12, dtype=np.uint8).reshape(3, 4, 1)
        assert np.array_equal(rgb_to_gray(RasterImage(pixels=plane)), plane[:, :, 0])


class TestBlockPartition:
    def test_exact_tiling(self):
        grid = BlockGrid(128, 128)
        assert (grid.blocks_x, grid.blocks_y) == (2, 2)
        np.testing.assert_array_equal(grid.pixel_counts(), 64 * 64)

    def test_partial_edges(self):
        grid = BlockGrid(100, 80)
        assert (grid.blocks_x, grid.blocks_y) == (2, 2)
        # right column 36 px wide, bottom row 16 px tall
        np.testing.assert_array_equal(grid.pixel_counts(),
                                      [[64 * 64, 36 * 64], [64 * 16, 36 * 16]])

    def test_identity_case(self):
        grid = BlockGrid(64, 64)
        assert grid.n_blocks == 1
        np.testing.assert_array_equal(grid.pixel_counts(), [[64 * 64]])

    def test_extents_tile_the_frame(self):
        rng = np.random.default_rng(4)
        b = 64
        for _ in range(50):
            w, h = rng.integers(1, 300, 2)
            grid = BlockGrid(int(w), int(h))
            counts = grid.pixel_counts()
            assert counts.shape == (grid.blocks_y, grid.blocks_x)
            assert counts.sum() == w * h
            covered = np.zeros((h, w), np.int32)
            for by, bx in np.ndindex(counts.shape):
                block = covered[by * b:(by + 1) * b, bx * b:(bx + 1) * b]
                block += 1
                assert counts[by, bx] == block.size
            assert np.all(covered == 1)

    def test_block_sums_pool_cells_into_blocks(self):
        grid = BlockGrid(100, 80)
        # one sum per block of its real pixels, and of its 16-px cells
        np.testing.assert_array_equal(
            grid.block_sums(np.ones((80, 100), np.int64), 1), grid.pixel_counts())
        np.testing.assert_array_equal(grid.block_sums(np.ones((5, 7)), 16),
                                      [[16, 12], [4, 3]])
        # leading axes are carried through
        stacked = grid.block_sums(np.arange(70.0).reshape(2, 5, 7), 16)
        assert stacked.shape == (2, 2, 2)
        assert stacked[1, 1, 1] == np.arange(35.0, 70.0).reshape(5, 7)[4:, 4:].sum()

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            BlockGrid(width=0, height=4)
        with pytest.raises(TypeError):  # blocks are always 64 px
            BlockGrid(64, 64, 64)
