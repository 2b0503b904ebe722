import numpy as np
import pytest

from qpalloc.errors import FormatError
from qpalloc.gridfile import GridFile, read_grid_file, write_grid_file


class TestRoundTrip:
    @pytest.mark.parametrize("tag", ["QPMAP", "LSCALE", "BITS"])
    def test_write_read_write_is_byte_identical(self, tmp_path, tag):
        rng = np.random.default_rng(hash(tag) % 2 ** 31)
        for trial in range(10):
            bx, by = (int(v) for v in rng.integers(1, 12, 2))
            if tag in ("QPMAP", "BITS"):
                values = rng.integers(-4, 4000, (by, bx))
            else:
                values = rng.uniform(-3.0, 9.0, (by, bx))
                values[0, 0] = 2.5e16  # repr writes 2.5e+16
            first = tmp_path / f"{tag}_{trial}_a.txt"
            second = tmp_path / f"{tag}_{trial}_b.txt"
            write_grid_file(first, tag, 64, 32, values)
            loaded = read_grid_file(first, expect_tag=tag)
            write_grid_file(second, loaded.tag, loaded.block_size,
                            loaded.base_qp, loaded.values)
            assert first.read_bytes() == second.read_bytes()

    def test_header_fields_survive(self, tmp_path):
        path = tmp_path / "g.txt"
        write_grid_file(path, "QPMAP", 64, 37, np.zeros((2, 3), np.int64))
        loaded = read_grid_file(path)
        assert isinstance(loaded, GridFile)
        assert (loaded.blocks_x, loaded.blocks_y) == (3, 2)
        assert (loaded.block_size, loaded.base_qp) == (64, 37)
        assert loaded.values.dtype == np.int64


class TestValidation:
    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QMAP 1\n1 1 64 32\n0\n")
        with pytest.raises(FormatError, match="unknown tag"):
            read_grid_file(path)
        with pytest.raises(ValueError, match="unknown grid tag"):
            write_grid_file(path, "QMAP", 64, 32, np.zeros((1, 1)))
        # the per-block beta map is gone: beta is one scalar per frame
        path.write_text("BMAP 1\n1 1 64 0\n-1.0\n")
        with pytest.raises(FormatError, match="unknown tag 'BMAP'"):
            read_grid_file(path)

    def test_unexpected_tag(self, tmp_path):
        path = tmp_path / "g.txt"
        write_grid_file(path, "LSCALE", 64, 32, np.ones((1, 1)))
        with pytest.raises(FormatError, match="expected a QPMAP"):
            read_grid_file(path, expect_tag="QPMAP")

    def test_bad_version(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QPMAP 2\n1 1 64 32\n0\n")
        with pytest.raises(FormatError, match="version"):
            read_grid_file(path)

    def test_value_count_checked(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QPMAP 1\n2 2 64 32\n0 0 0\n")
        with pytest.raises(FormatError, match="expected 4 values"):
            read_grid_file(path)

    def test_integer_tags_reject_reals(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QPMAP 1\n1 1 64 32\n1.5\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_grid_file(path)

    # integer headers and QPMAP values, then LSCALE reals, which may
    # carry an exponent sign but no separator or leading sign
    STRICT_TOKENS = [
        ("QPMAP", "1 1 64 32", "1_0"), ("QPMAP", "1 1 64 32", "+3"),
        ("QPMAP", "1 1 64 32", "99999999999999999999"),
        ("QPMAP", "1_0 1 64 32", " ".join(["0"] * 10)), ("QPMAP", "1 1 6_4 32", "0"),
        ("QPMAP", "1 1 64 +32", "0"),
        ("LSCALE", "1 1 64 32", "1_0.5"), ("LSCALE", "1 1 64 32", "+0.5"),
        ("LSCALE", "2 1 64 0", "1e+3 +1.5"), ("LSCALE", "2 1 64 0", "1e+3 -1.0_1")]

    @pytest.mark.parametrize("tag,header,body", STRICT_TOKENS,
                             ids=[f"{header}-{body}" for _, header, body in STRICT_TOKENS])
    def test_integer_tokens_are_strict(self, tmp_path, tag, header, body):
        path = tmp_path / "g.txt"
        path.write_text(f"{tag} 1\n{header}\n{body}\n")
        with pytest.raises(FormatError):
            read_grid_file(path)
