"""Shared file plumbing: ASCII text in, strict number tokens, atomic writes.

Every text reader gets its numbers here: read_text (or TokenReader,
which streams whitespace tokens a few lines at a time), then parse_ints
for integer fields and parse_reals for real ones. A write goes to a uniquely
named sibling temp file, is fsynced, then renamed over the target, and
the directory is fsynced so the rename survives a crash. A failed or concurrent write never leaves a partial
output at the target path; the OS-level cause is wrapped in
OutputIOError so the CLI can classify it.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError, OutputIOError

_INT_TOKEN = re.compile(r"-?[0-9]+")
_BATCH_CHARS = 1 << 16  # TokenReader reads whole lines, about 64 KB of them at a time


def read_text(path: str | os.PathLike) -> str:
    """The whole file; a byte outside ASCII is a FormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text") from exc


class TokenReader:
    """Whitespace tokens of an ASCII text file, read whole lines at a time.

    Each read takes about 64 KB of whole lines, at least one, so the
    reader holds the tokens of those lines and never the whole file
    unless the file is one long line. A byte outside ASCII is a
    FormatError naming the path once a read reaches it. Use it in a
    with block, which closes the file.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self._fh = open(path, "r", encoding="ascii")
        self._tokens: list[str] = []
        self._pos = 0

    def __enter__(self) -> "TokenReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _refill(self) -> bool:
        """Hold the next lines' tokens instead; False at the end of the file."""
        self._tokens = []  # released before the next lines are read and split
        try:
            lines = self._fh.readlines(_BATCH_CHARS)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: not ASCII text") from exc
        self._tokens, self._pos = "".join(lines).split(), 0
        return bool(lines)

    def take(self, n: int) -> list[str]:
        """The next n tokens; fewer only where the file ends."""
        out = self._tokens[self._pos:self._pos + n]
        self._pos += len(out)
        while len(out) < n and self._refill():
            more = self._tokens[:n - len(out)]
            self._pos = len(more)
            out += more  # extends in place: linear in n however short the lines
        return out

    def count_rest(self) -> int:
        """How many tokens are left; reads to the end of the file."""
        rest = len(self._tokens) - self._pos
        while self._refill():
            rest += len(self._tokens)
        return rest


def parse_ints(tokens: list[str]) -> list[int]:
    """Decimal integer tokens, ASCII ``-?[0-9]+`` only.

    Raises ValueError for anything else, including the ``+5`` and ``1_0``
    spellings that int() would accept.
    """
    for token in tokens:
        if _INT_TOKEN.fullmatch(token) is None:
            raise ValueError(f"non-numeric value (not an integer: {token!r})")
    return [int(token) for token in tokens]


def parse_reals(tokens: list[str]) -> np.ndarray:
    """Finite real tokens as float64 in one numpy pass: float()'s spellings
    minus a ``_`` separator and a ``+`` that is not an exponent sign (the
    ``1e+16`` that repr writes is fine). Anything else raises ValueError,
    and so does a nan, an inf or a value beyond float64 such as ``1e400``."""
    joined = " ".join(tokens)
    # the '+' counts run only when there is a '+' to count
    if "_" in joined or ("+" in joined and joined.count("+")
                         != joined.count("e+") + joined.count("E+")):
        raise ValueError("non-numeric value")
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("non-numeric value") from exc
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _create_sibling(target: str) -> tuple[int, str]:
    # O_EXCL on a fresh name: no writer can share it, and with mode 0o666
    # the kernel applies the umask just as open() would
    while True:
        name = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    target = os.fspath(path)
    tmp = None
    try:
        fd, tmp = _create_sibling(target)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        tmp = None
        dir_fd = os.open(os.path.dirname(target) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise OutputIOError(f"cannot write {target}: {exc}") from exc


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("ascii"))
