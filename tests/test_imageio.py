import numpy as np
import pytest

from qpalloc.errors import FormatError
from qpalloc.imageio import (BlockGrid, RasterImage, block_partition, load_ppm,
                             rgb_to_gray, rgb_to_yuv420, save_ppm, write_yuv420)


def ppm_bytes(width, height, payload):
    return f"P6\n{width} {height}\n255\n".encode() + bytes(payload)


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
        assert img.samples.tolist() == payload

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="magic"):
            load_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n1023\n" + bytes(6))
        with pytest.raises(FormatError, match="maxval"):
            load_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
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

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        img = RasterImage(pixels=rng.integers(0, 256, (13, 7, 3)).astype(np.uint8))
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_ppm(img, first)
        save_ppm(load_ppm(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestYuv420:
    @pytest.mark.parametrize("rgb,expected_y", [
        ((0, 0, 0), 16), ((255, 255, 255), 235), ((128, 128, 128), 126)])
    def test_primaries(self, rgb, expected_y):
        pixels = np.full((4, 4, 3), rgb, np.uint8)
        frame = rgb_to_yuv420(RasterImage(pixels=pixels))
        assert np.all(frame.luma == expected_y)
        assert np.all(frame.chroma_u == 128)
        assert np.all(frame.chroma_v == 128)

    def test_single_channel_rejected(self):
        img = RasterImage(pixels=np.zeros((4, 4, 1), np.uint8))
        with pytest.raises(ValueError):
            rgb_to_yuv420(img)

    def test_legal_range_for_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            h, w = rng.integers(1, 40, 2)
            img = RasterImage(pixels=rng.integers(0, 256, (h, w, 3)).astype(np.uint8))
            frame = rgb_to_yuv420(img)
            assert frame.luma.min() >= 16 and frame.luma.max() <= 235
            for plane in (frame.chroma_u, frame.chroma_v):
                assert plane.shape == ((h + 1) // 2, (w + 1) // 2)
                assert plane.min() >= 16 and plane.max() <= 240

    def test_odd_edge_chroma_averages_available_samples(self):
        # 1x3 row: the last chroma sample covers only one source column
        pixels = np.zeros((1, 3, 3), np.uint8)
        pixels[0, 0] = (255, 0, 0)
        pixels[0, 1] = (0, 0, 255)
        pixels[0, 2] = (0, 255, 0)
        frame = rgb_to_yuv420(RasterImage(pixels=pixels))
        u = 128 + np.array([-37.797 * 255, 112.0 * 255, -74.203 * 255]) / 255
        assert frame.chroma_u[0, 0] == int(np.floor((u[0] + u[1]) / 2 + 0.5))
        assert frame.chroma_u[0, 1] == int(np.floor(u[2] + 0.5))

    def test_planar_file_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        img = RasterImage(pixels=rng.integers(0, 256, (6, 4, 3)).astype(np.uint8))
        frame = rgb_to_yuv420(img)
        path = tmp_path / "out.yuv"
        write_yuv420(frame, path)
        data = path.read_bytes()
        assert data == (frame.luma.tobytes() + frame.chroma_u.tobytes()
                        + frame.chroma_v.tobytes())
        assert len(data) == 6 * 4 + 2 * (3 * 2)


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
        grid = block_partition(128, 128, 64)
        assert (grid.blocks_x, grid.blocks_y) == (2, 2)
        assert all(grid.block_extent(k)[2:] == (64, 64) for k in range(4))

    def test_partial_edges(self):
        grid = block_partition(100, 80, 64)
        assert (grid.blocks_x, grid.blocks_y) == (2, 2)
        # right column 36 px wide, bottom row 16 px tall
        assert grid.block_extent(1)[2] == 36
        assert grid.block_extent(2)[3] == 16
        assert grid.block_extent(3)[2:] == (36, 16)

    def test_identity_case(self):
        grid = block_partition(64, 64, 64)
        assert grid.n_blocks == 1
        assert grid.block_extent(0) == (0, 0, 64, 64)

    def test_extents_tile_the_frame(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w, h = rng.integers(1, 300, 2)
            b = int(rng.integers(1, 80))
            grid = block_partition(int(w), int(h), b)
            counts = grid.pixel_counts()
            assert counts.sum() == w * h
            covered = np.zeros((h, w), np.int32)
            for k in range(grid.n_blocks):
                x0, y0, bw, bh = grid.block_extent(k)
                covered[y0:y0 + bh, x0:x0 + bw] += 1
                assert counts[k] == bw * bh
            assert np.all(covered == 1)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            BlockGrid(width=0, height=4, block_size=64)
