"""Shared file plumbing: ASCII text in, strict number tokens, atomic writes.

Every text field gets its numbers here: read_text reads a whole text
file (the QSNW2 weight loader decodes its header lines itself), then
parse_ints reads integer fields and parse_reals real ones. A write goes
to a uniquely named sibling temp file, is fsynced, then renamed over the
target, and the directory is fsynced so the rename survives a crash. A
failed or concurrent write never leaves a partial output at the target
path; the OS-level cause is wrapped in OutputIOError so the CLI can
classify it.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import FormatError, OutputIOError

_INT_TOKEN = re.compile(r"-?[0-9]+")


def read_text(path: str | os.PathLike) -> str:
    """The whole file; a byte outside ASCII is a FormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text") from exc


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
