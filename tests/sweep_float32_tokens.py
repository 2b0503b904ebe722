"""Sweep finite float32 bit patterns through the QSNW1 token round trip.

For every bit pattern it covers, the token that save_weights writes
(stepnet._float32_tokens) must read back through the loader's parse
(_fileio.parse_reals, then float32) to the same bits. It prints how many
values took the repr fallback, the few whose shortest float32 decimal
rounds twice on the way through float64. A numpy release that changes
either the formatter or the parser shows up here first.

    PYTHONPATH=src python tests/sweep_float32_tokens.py --stride 64 --part 1/4

The finite patterns of each sign are 510 chunks of 2^22; --stride keeps
the multiples of STRIDE in each sign half, --part i/N runs chunks i-1,
i-1+N, ... of the 1020. The full sweep (--stride 1, all parts) checks
4,278,190,080 values; one chunk at stride 1 took 8 s and peaked at
850 MB of memory on a 2-vCPU x86 host, so a quarter takes about 35 min.
The file name keeps pytest from collecting it; test_stepnet.py runs a
strided pass through sweep().
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from qpalloc._fileio import parse_reals
from qpalloc.stepnet import _float32_tokens

CHUNK = 1 << 22
FINITE = 0x7F800000  # the non-negative finite patterns are [0, FINITE)
SIGN = 0x80000000
CHUNKS = 2 * FINITE // CHUNK


def chunk_bits(index: int, stride: int) -> np.ndarray:
    """The multiples of stride in chunk index, with the sign bit set in
    the second half of the chunks."""
    negative, lo = divmod(index * CHUNK, FINITE)
    bits = np.arange(-(-lo // stride) * stride, lo + CHUNK, stride, dtype=np.uint32)
    return bits | np.uint32(SIGN) if negative else bits


def check(bits: np.ndarray) -> int:
    """Assert that every value's token reads back to its bits; return the
    number of tokens that are not the shortest float32 decimal."""
    values = bits.view(np.float32)
    tokens = _float32_tokens(values)
    parsed = parse_reals(tokens)
    wrong = np.flatnonzero(parsed.astype(np.float32).view(np.uint32) != bits)
    assert wrong.size == 0, (f"{wrong.size} tokens misread, first bit pattern "
                             f"{int(bits[wrong[0]])} as {tokens[wrong[0]]!r}")
    # A repr token reads back as the float64 widening itself. Few shortest
    # tokens do, so only those values are formatted again to tell them apart.
    exact = np.flatnonzero(parsed == values)
    with np.printoptions(legacy=False):
        shortest = values[exact].astype(str).tolist()
    return sum(tokens[i] != short for i, short in zip(exact, shortest))


def sweep(stride: int = 1, part: int = 1, parts: int = 1) -> tuple[int, int]:
    """(values checked, repr fallbacks) over this part's chunks."""
    checked = fallbacks = 0
    for index in range(part - 1, CHUNKS, parts):
        bits = chunk_bits(index, stride)
        fallbacks += check(bits)
        checked += bits.size
    return checked, fallbacks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stride", type=int, default=1,
                        help="check every STRIDE-th bit pattern (default 1: all)")
    parser.add_argument("--part", default="1/1", metavar="i/N",
                        help="run the i-th of N interleaved shards (default 1/1)")
    args = parser.parse_args(argv)
    part, parts = (int(v) for v in args.part.split("/"))
    if args.stride < 1 or not 1 <= part <= parts:
        parser.error("need --stride >= 1 and --part i/N with 1 <= i <= N")
    start = time.perf_counter()
    checked, fallbacks = sweep(args.stride, part, parts)
    print(f"part {part}/{parts}, stride {args.stride}: {checked} values round-trip, "
          f"{fallbacks} took the repr fallback ({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
