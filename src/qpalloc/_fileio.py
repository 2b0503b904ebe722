"""Shared file plumbing: ASCII text in, strict number tokens, tagged
grids, atomic writes.

Every text field gets its numbers here: read_text reads a whole text
file (the QSNW2 weight loader decodes its header lines itself), then
parse_ints reads integer fields and parse_reals real ones. read_grid and
write_grid hold the one layout that QSMAP, QPMAP, LSCALE and BITS share:

    <TAG> 1
    COLS ROWS [two more header integers]
    <ROWS rows of COLS values>

stepnet and gridfile add only their tags, extra header fields and
value checks. A write goes to a uniquely named sibling temp file, is
fsynced, then renamed over the target, and the directory is fsynced so
the rename survives a crash. A failed or concurrent write never leaves
a partial output at the target path; the OS-level cause is wrapped in
OutputIOError so the CLI can classify it.
"""

from __future__ import annotations

import os
import re
from collections.abc import Collection, Sequence

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


def read_grid(path: str | os.PathLike, tags: Collection[str], extra: int,
              int_tags: Collection[str] = ()) -> tuple[str, list[int], np.ndarray]:
    """The tag, the `extra` header integers after COLS ROWS, and the
    (ROWS, COLS) values: int64 for a tag in int_tags, else finite float64.
    A tag outside tags, a version other than 1, a dimension below 1, a
    wrong value count or a token that is not a strict number is a
    FormatError."""
    tokens = read_text(path).split()
    if len(tokens) < 4 + extra:
        raise FormatError(f"{path}: truncated grid file")
    tag, version = tokens[0], tokens[1]
    if tag not in tags:
        raise FormatError(f"{path}: expected a {' or '.join(sorted(tags))} file, "
                          f"found tag {tag!r}")
    if version != "1":
        raise FormatError(f"{path}: unsupported {tag} version {version!r}")
    try:
        cols, rows, *fields = parse_ints(tokens[2:4 + extra])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header line") from exc
    if cols < 1 or rows < 1:
        raise FormatError(f"{path}: bad dimensions {cols}x{rows}")
    body = tokens[4 + extra:]
    if len(body) != cols * rows:
        raise FormatError(f"{path}: expected {cols * rows} values, found {len(body)}")
    try:
        if tag in int_tags:
            values = np.array(parse_ints(body), dtype=np.int64)
        else:
            values = parse_reals(body)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc} in the grid") from exc
    except OverflowError as exc:
        raise FormatError(f"{path}: grid value outside the 64-bit integer range") from exc
    return tag, fields, values.reshape(rows, cols)


def write_grid(path: str | os.PathLike, tag: str, fields: Sequence[int],
               values: np.ndarray, integer: bool) -> None:
    """Write the layout canonically (single spaces, trailing newline) with
    the header integers after COLS ROWS, so a file round-trips byte for
    byte. Refuses (ValueError) what read_grid would refuse: values that
    are not 2-D and at least 1x1, and, as integers, a dtype that does not
    cast to int64 or, as reals, a value that is not finite."""
    values = np.asarray(values)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("grid values must be 2-D (rows, cols), at least 1x1")
    if integer and not np.can_cast(values.dtype, np.int64):
        raise ValueError(f"{tag} values must be integers, got {values.dtype}")
    if not integer and not np.all(np.isfinite(values)):
        raise ValueError(f"{tag} values must be finite")
    # str of a Python int or float is its repr: 1 (never True), 1e+16, 5e-324
    rows = values.astype(np.int64 if integer else np.float64).tolist()
    lines = [f"{tag} 1", " ".join(map(str, [values.shape[1], values.shape[0], *fields]))]
    lines += [" ".join(map(str, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


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
