"""Check that the T3 writer formats every float64 exactly as Python's ``%.17e``.

    python tools/t3_exactness.py N

Draws N random 64-bit patterns from a fixed seed and drops the non-finite
ones.  Only a few percent of raw patterns fall in the range of the writer's
integer kernel (about 1e-10 <= |x| < 2**49), so each pattern is also used a
second time with its binary exponent folded into 2**-37 .. 2**50, which
covers the kernel and both of its edges.  Each batch of values is written by
``dynsamp.dumps_t3`` and by ``%.17e`` one entry at a time; the first value
whose line differs is printed and the script exits with status 1.  Exits 0
after printing the number of values compared.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynsamp import Tensor3, dumps_t3  # noqa: E402

SEED = 20251019
BATCH = 1 << 18
_EXPONENT = np.uint64(0x7FF) << np.uint64(52)


def folded(bits: np.ndarray) -> np.ndarray:
    """``bits`` with the binary exponent mapped into 2**-37 .. 2**50."""
    exponent = (bits >> np.uint64(52)) % np.uint64(88) + np.uint64(1023 - 37)
    return (bits & ~_EXPONENT) | (exponent << np.uint64(52))


def first_difference(values: np.ndarray) -> str | None:
    """The first line where ``dumps_t3`` and ``%.17e`` differ, or None."""
    got = dumps_t3(Tensor3(values.reshape(-1, 1, 1))).splitlines()[1:]
    for value, line in zip(values.tolist(), got):
        want = "%.17e" % value
        if line != want:
            return f"{value!r}: dumps_t3 wrote {line!r}, %.17e gives {want!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: python tools/t3_exactness.py N")
    total = int(argv[0])
    rng = np.random.default_rng(SEED)
    compared = 0
    for start in range(0, total, BATCH):
        bits = rng.integers(0, 1 << 64, min(BATCH, total - start), dtype=np.uint64)
        for pattern in (bits, folded(bits)):
            values = pattern.view(np.float64)
            values = values[np.isfinite(values)]
            if values.size == 0:
                continue
            diff = first_difference(values)
            if diff is not None:
                print(f"mismatch after {compared} values: {diff}")
                return 1
            compared += values.size
    print(f"{compared} values identical to %.17e")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
