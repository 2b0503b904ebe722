import os

import pytest

from qpalloc._fileio import atomic_write_bytes, parse_ints
from qpalloc.errors import OutputIOError


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
