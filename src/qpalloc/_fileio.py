"""Shared file plumbing: atomic writes and strict number tokens.

A write goes to a uniquely named sibling temp file, is fsynced, then
renamed over the target, and the directory is fsynced so the rename
survives a crash. A failed or concurrent write never leaves a partial
output at the target path; the OS-level cause is wrapped in
OutputIOError so the CLI can classify it.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import OutputIOError

_INT_TOKEN = re.compile(r"-?[0-9]+")


def parse_ints(tokens: list[str]) -> list[int]:
    """Decimal integer tokens, ASCII ``-?[0-9]+`` only.

    Raises ValueError for anything else, including the ``+5`` and ``1_0``
    spellings that int() would accept.
    """
    for token in tokens:
        if _INT_TOKEN.fullmatch(token) is None:
            raise ValueError(f"not an integer: {token!r}")
    return [int(token) for token in tokens]


def parse_reals(tokens: list[str]) -> np.ndarray:
    """Real tokens as float64 in one numpy pass. numpy calls float() on
    each str, so the accepted spellings and the ValueError are float()'s;
    callers check lax_reals and finiteness themselves."""
    return np.array(tokens, dtype=np.float64)


def lax_reals(text: str) -> bool:
    """Whether real tokens in text use a ``_`` separator or a leading ``+``,
    which float() accepts and repr never writes; ``1e+16`` is fine. Scans
    the whole text, not each token, so it also sees the integer fields:
    callers report it only once those have parsed."""
    # every '+' must be an exponent sign
    return "_" in text or ("+" in text and text.count("+")
                           != text.count("e+") + text.count("E+"))


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
