import numpy as np
import pytest

from qpalloc.errors import FormatError
from qpalloc.gridfile import GridFile, read_grid_file, write_grid_file
from qpalloc.stepnet import StepMap, write_step_map


class TestRoundTrip:
    # a fixed seed per tag: hash(tag) is salted per process
    SEEDS = {"QPMAP": 2501, "LSCALE": 2502, "BITS": 2503}

    @pytest.mark.parametrize("tag", list(SEEDS))
    def test_write_read_write_is_byte_identical(self, tmp_path, tag):
        rng = np.random.default_rng(self.SEEDS[tag])
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
        assert loaded.values.shape == (2, 3)
        assert (loaded.block_size, loaded.base_qp) == (64, 37)
        assert loaded.values.dtype == np.int64

    def test_integer_like_header_fields_are_written_as_ints(self, tmp_path):
        # True is written as 1: the reader refuses the token "True"
        path = tmp_path / "g.bits"
        write_grid_file(path, "BITS", True, np.int64(32), np.array([[3]]))
        assert path.read_text() == "BITS 1\n1 1 1 32\n3\n"
        loaded = read_grid_file(path)
        assert (loaded.block_size, loaded.base_qp) == (1, 32)

    def test_writers_pin_repr_and_int_tokens(self, tmp_path):
        # the expected text is spelled out here: the writers print each
        # value as str() of a Python int or float, which is its repr
        reals = [2.0, 1e16, 5e-324, 0.1]
        write_step_map(StepMap(values=np.array([reals])), tmp_path / "s.qsmap")
        write_grid_file(tmp_path / "s.lscale", "LSCALE", 64, 32,
                        np.array([reals[:3], [reals[3], -0.0, 7.0]]))
        write_grid_file(tmp_path / "bool.qpmap", "QPMAP", 64, 32,
                        np.array([[True, False]]))
        write_grid_file(tmp_path / "uint8.qpmap", "QPMAP", 64, 32,
                        np.array([[0], [255]], np.uint8))
        assert (tmp_path / "s.qsmap").read_bytes() == b"QSMAP 1\n4 1\n2.0 1e+16 5e-324 0.1\n"
        assert (tmp_path / "s.lscale").read_bytes() == (
            b"LSCALE 1\n3 2 64 32\n2.0 1e+16 5e-324\n0.1 -0.0 7.0\n")
        assert (tmp_path / "bool.qpmap").read_bytes() == b"QPMAP 1\n2 1 64 32\n1 0\n"
        assert (tmp_path / "uint8.qpmap").read_bytes() == b"QPMAP 1\n1 2 64 32\n0\n255\n"


class TestValidation:
    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QMAP 1\n1 1 64 32\n0\n")
        with pytest.raises(FormatError, match="found tag 'QMAP'"):
            read_grid_file(path)
        with pytest.raises(ValueError, match="unknown grid tag"):
            write_grid_file(path, "QMAP", 64, 32, np.zeros((1, 1)))
        # the per-block beta map is gone: beta is one scalar per frame
        path.write_text("BMAP 1\n1 1 64 0\n-1.0\n")
        with pytest.raises(FormatError, match="found tag 'BMAP'"):
            read_grid_file(path)

    @pytest.mark.parametrize("tag", ["QPMAP", "BITS"])
    @pytest.mark.parametrize("values", [[[1.5, -2.7]], [[1.0, 2.0]], [[np.nan, 0.0]],
                                        np.array([[2 ** 63]], np.uint64)])
    def test_integer_tags_refuse_what_the_reader_refuses(self, tmp_path, tag, values):
        # int() would write [[1.5, -2.7]] as "1 -2"; the reader takes int64 only
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError, match="must be integers"):
            write_grid_file(path, tag, 64, 32, values)
        assert not path.exists()

    @pytest.mark.parametrize("block_size,base_qp,values", [
        (0, 32, [[0]]), (64, 32.5, [[0]]), (64.0, 32, [[0]]), (64, 32, np.zeros((0, 3), int))])
    def test_header_refuses_what_the_reader_refuses(self, tmp_path, block_size, base_qp,
                                                    values):
        path = tmp_path / "g.qpmap"
        with pytest.raises(ValueError, match="integer|at least 1x1"):
            write_grid_file(path, "QPMAP", block_size, base_qp, values)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lscale_refuses_non_finite_values(self, tmp_path, bad):
        # read_grid_file refuses a non-finite value
        path = tmp_path / "g.lscale"
        with pytest.raises(ValueError, match="must be finite"):
            write_grid_file(path, "LSCALE", 64, 32, [[1.0, bad]])
        assert not path.exists()

    def test_unexpected_tag(self, tmp_path):
        path = tmp_path / "g.txt"
        write_grid_file(path, "LSCALE", 64, 32, np.ones((1, 1)))
        with pytest.raises(FormatError, match="expected a QPMAP"):
            read_grid_file(path, expect_tag="QPMAP")

    @pytest.mark.parametrize("tag", ["QSMAP", "qpmap"])
    def test_unknown_expected_tag_is_refused_before_the_file_is_opened(self, tmp_path, tag):
        # the tag is the caller's fault, not the file's: the path need not exist
        with pytest.raises(ValueError, match=f"^unknown grid tag '{tag}'$") as info:
            read_grid_file(tmp_path / "missing.qpmap", expect_tag=tag)
        assert not isinstance(info.value, FormatError)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("QPMAP 2\n1 1 64 32\n0\n")
        with pytest.raises(FormatError, match="unsupported QPMAP version '2'"):
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
