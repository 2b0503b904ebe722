import os

import numpy as np
import pytest

from qpalloc._fileio import atomic_write_bytes, parse_ints, parse_reals
from qpalloc.bdrate import read_rd_csv
from qpalloc.errors import FormatError, OutputIOError
from qpalloc.gridfile import read_grid_file
from qpalloc.stepnet import load_weights, read_step_map

from _oracles import port_qsnw1, write_qsnw2


class TestAtomicWrite:
    def test_directory_named_like_a_fixed_temp_file(self, tmp_path):
        target = tmp_path / "out.bin"
        (tmp_path / "out.bin.tmp").mkdir()
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OutputIOError, match="cannot write"):
            atomic_write_bytes(target, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_overwrite_keeps_the_mode_open_would_give(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"")
        assert target.read_bytes() == b"second"
        assert os.stat(target).st_mode == os.stat(plain).st_mode


class TestParseInts:
    def test_decimal_tokens(self):
        assert parse_ints(["0", "-4", "0017", "4000"]) == [0, -4, 17, 4000]

    @pytest.mark.parametrize("token", ["1_0", "+1", " 1", "1.0", "", "-", "١"])
    def test_other_spellings_rejected(self, token):
        with pytest.raises(ValueError, match="not an integer"):
            parse_ints(["3", token])


class TestParseReals:
    SPELLINGS = ["nan", "NaN", "inf", "-inf", "Infinity", "0x10", "1e", ".", "1_0",
                 "+1", "1e400", "-1e400", "4.9e-324", "1e-400", "-0", "1.", "-.5",
                 "1E5", "1e+16", "0b1", "1.5f", "1,5", "e5", "--1", "", "١", "1e-05"]
    # float() reads these, but as a non-finite value or through a '_'
    # separator or a '+' that is not an exponent sign
    STRICTER = {"nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1_0", "+1"}

    @pytest.mark.parametrize("token", SPELLINGS)
    def test_matches_float_per_token(self, token):
        try:
            expected = np.array([float(token)], dtype=np.float64)
        except ValueError:
            expected = None
        if expected is None or token in self.STRICTER:
            with pytest.raises(ValueError):
                parse_reals(["1.0", token])
            return
        got = parse_reals([token])
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    READERS = {
        "QSMAP": (read_step_map, "QSMAP 1\n2 1\n1.0 {}\n"),
        "LSCALE": (read_grid_file, "LSCALE 1\n2 1 64 32\n1.0 {}\n"),
        "RD CSV": (read_rd_csv, "rate_bpp,quality\n0.1, {}\n0.2,30\n0.3,31\n0.4,32\n"),
    }

    @pytest.mark.parametrize("fmt", list(READERS))
    @pytest.mark.parametrize("token", ["nan", "inf", "1e400", "0x10", "1e", "1_0", "+1", "١"])
    def test_real_readers_reject(self, tmp_path, fmt, token):
        reader, template = self.READERS[fmt]
        path = tmp_path / "f.txt"
        path.write_text(template.format(token), encoding="utf-8")
        with pytest.raises(FormatError):
            reader(path)
        path.write_text(template.format("0.5"))
        reader(path)


class TestReadText:
    # a non-ASCII byte in an integer field, as in a real one above; the
    # weight case is its QSNW1 literal ported to QSNW2
    @pytest.mark.parametrize("reader,write", [
        (read_grid_file, lambda path: path.write_text("QPMAP 1\n1 1 64 32\n١\n",
                                                      encoding="utf-8")),
        (load_weights, lambda path: write_qsnw2(path, *port_qsnw1("QSNW1\nlayers ١\n"))),
    ], ids=["QPMAP", "QSNW1"])
    def test_non_ascii_byte_is_format_error(self, tmp_path, reader, write):
        path = tmp_path / "f.txt"
        write(path)
        with pytest.raises(FormatError, match="not ASCII"):
            reader(path)
