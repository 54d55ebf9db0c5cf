"""T3 v1 text format for dense third-order tensors.

Layout::

    T3 1 <m> <p> <n> real
    <value lines, one entry per line>

Value lines appear in lexicographic (k, j, i) order -- the depth index k
varies slowest, the row index i fastest: Fortran order of the (m, p, n)
array.  A value line is one string that Python's ``float`` accepts, and
every value must be finite.  Entries are written with ``%.17e`` so float64
values round-trip exactly.  The data is real, as in ``Tensor3``: any other
kind in the header, ``complex`` included, is a line-1 error.

The writer's text is byte-identical to Python's ``%.17e`` of every entry.
It computes the 18 significant digits with exact integer arithmetic in
numpy, in chunks of at most ``_CHUNK`` entries; entries outside the
kernel's range (``|x| < 1e-10`` or ``|x| >= 2**49``), non-finite values and
the rare entry whose decade ``log10`` misses are formatted with ``%``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .tensor3 import Tensor3

_MAGIC = "T3"
_VERSION = "1"


class T3FormatError(ValueError):
    """Malformed T3 file or non-ASCII dataset file; message carries the line number."""

    def __init__(self, path, line_no: int, problem: str):
        super().__init__(f"{path}: line {line_no}: {problem}")
        self.path = str(path)
        self.line_no = line_no


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-file-then-rename so readers never see partials."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON, keys sorted, two-space indent, final newline, atomically."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_ascii(path) -> str:
    """File text; a non-ASCII byte is a ``T3FormatError`` naming file and line."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        bad = f"non-ASCII byte 0x{err.object[err.start]:02x}"
        raise T3FormatError(path, line, bad) from None


def read_json_object(path) -> dict:
    """Parse a JSON object file; a non-ASCII byte, invalid JSON or a non-object
    is a one-line ``ValueError`` naming the file."""
    try:
        value = json.loads(_read_ascii(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return value


# -- writer: an exact ``%.17e`` in numpy ------------------------------------------
#
# A finite nonzero |x| is f * 2**(e - 53) with f a 53-bit integer (np.frexp).
# With E = floor(log10 |x|), k = 17 - E and s = 53 - e - k, its 18 significant
# digits are D = round-half-even(f * 5**k / 2**s), an integer in
# [10**17, 10**18).  f * 5**k is formed exactly in two 64-bit words from
# 32-bit halves, which holds k <= 27 (5**27 < 2**64) and s >= 1: that is
# 1e-10 <= |x| < 2**49, where the exponent has two digits.  Every other
# entry is formatted by ``%``, and so is any entry whose decade log10 missed
# (D outside the range above), which happens only within an ulp or two of a
# power of ten.  Explicit unsigned dtypes keep the arithmetic the same under
# numpy 1.x and NEP 50 promotion.

_CHUNK = 8192  # entries per kernel call: bounds the writer's working memory
_KERNEL_MIN, _KERNEL_MAX = 1e-10, 2.0**49
_U64, _U32, _U8 = np.uint64, np.uint32, np.uint8
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_LOW32 = _U64(0xFFFFFFFF)
_E17, _E18, _E9 = _U64(10**17), _U64(10**18), _U64(10**9)
# Each value line is one row of _WIDTH bytes, whose NUL bytes are dropped.
# A kernel line holds its sign (NUL if positive) in column 0, its leading
# digit in 1, its other 17 digits in 3-19 and its exponent's sign and two
# digits in 21-23.  The widest ``%`` line, -1.79769313486231571e+308 and its
# newline, fills the row.
_WIDTH = 26
_DIGIT_COLS = [1, *range(3, 20)]
_TEMPLATE = np.zeros(_WIDTH, dtype=np.uint8)
_TEMPLATE[[2, 20, 24]] = np.frombuffer(b".e\n", dtype=np.uint8)


def _kernel_digits(a: np.ndarray):
    """``(D, E, exact)`` of ``a`` in [_KERNEL_MIN, _KERNEL_MAX): 18 significant
    digits and the decimal exponent, and whether E is the true decade."""
    mant, e = np.frexp(a)
    f = np.ldexp(mant, 53).astype(np.uint64)
    E = np.clip(np.floor(np.log10(a)), -10, 14).astype(np.int64)
    k = 17 - E
    s = (53 - e - k).astype(np.uint64)  # 1 <= s <= 59 on the kernel's range
    p = _POW5[k]
    f_lo, f_hi = f & _LOW32, f >> _U64(32)
    p_lo, p_hi = p & _LOW32, p >> _U64(32)
    ll, lh, hl = f_lo * p_lo, f_lo * p_hi, f_hi * p_lo
    mid = (ll >> _U64(32)) + (lh & _LOW32) + (hl & _LOW32)
    lo = (ll & _LOW32) | (mid << _U64(32))
    hi = f_hi * p_hi + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    q = (hi << (_U64(64) - s)) | (lo >> s)
    rest = lo & ((_U64(1) << s) - _U64(1))
    half = _U64(1) << (s - _U64(1))
    d = q + ((rest > half) | ((rest == half) & ((q & _U64(1)) == _U64(1))))
    return d, E, (q >= _E17) & (d < _E18)


def _format_values(x: np.ndarray) -> str:
    """``"".join("%.17e\\n" % v for v in x)`` for a 1-D float64 array."""
    a = np.abs(x)
    # Only entries in the kernel's range enter it (NaN is in neither bound),
    # which lets _kernel_digits clip the decade to that range.
    held = np.flatnonzero((a >= _KERNEL_MIN) & (a < _KERNEL_MAX))
    d = np.zeros(x.size, dtype=np.uint64)  # zeros write 0.00000000000000000e+00
    E = np.zeros(x.size, dtype=np.int64)
    d[held], E[held], ok = _kernel_digits(a[held])
    exact = a == 0
    exact[held[ok]] = True

    grid = np.empty((x.size, _WIDTH), dtype=np.uint8)
    grid[:] = _TEMPLATE
    grid[:, 0] = np.signbit(x) * _U8(ord("-"))
    top = d // _E9
    halves = np.empty((2, x.size), dtype=np.uint32)
    halves[0], halves[1] = top, d - top * _E9
    for i in range(8, -1, -1):
        tens = halves // _U32(10)
        digit = (halves - tens * _U32(10)).astype(np.uint8) + _U8(ord("0"))
        grid[:, _DIGIT_COLS[i]] = digit[0]
        grid[:, _DIGIT_COLS[9 + i]] = digit[1]
        halves = tens
    grid[:, 21] = np.where(E < 0, _U8(ord("-")), _U8(ord("+")))
    exp = np.abs(E).astype(np.uint8)
    grid[:, 22] = exp // _U8(10) + _U8(ord("0"))
    grid[:, 23] = exp % _U8(10) + _U8(ord("0"))
    slow = np.flatnonzero(~exact)
    if slow.size:
        lines = [b"%.17e\n" % v for v in x[slow].tolist()]
        grid[slow] = np.array(lines, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return str(grid[grid != 0].data, "ascii")


def dumps_t3(t: Tensor3) -> str:
    """Serialize a tensor to T3 v1 text, each entry as Python's ``%.17e``."""
    m, p, n = t.dims
    flat = t.data.ravel(order="F")
    chunks = (
        _format_values(flat[start : start + _CHUNK]) for start in range(0, flat.size, _CHUNK)
    )
    return "".join([f"{_MAGIC} {_VERSION} {m} {p} {n} real\n", *chunks])


def write_t3(path, t: Tensor3) -> None:
    """Write a tensor to ``path`` atomically."""
    atomic_write_text(path, dumps_t3(t))


def loads_t3(text: str, path="<string>") -> Tensor3:
    """Parse T3 v1 text; malformed or non-finite input gets a line-numbered error.

    All value lines are converted by one numpy call; only when that fails
    is the text scanned again, to name the first bad line.
    """
    lines = text.splitlines()
    if not lines:
        raise T3FormatError(path, 1, "empty file, expected T3 header")
    header = lines[0].split()
    if len(header) != 6:
        raise T3FormatError(
            path, 1, f"header needs 6 fields 'T3 1 m p n real', got {lines[0]!r}"
        )
    if header[0] != _MAGIC or header[1] != _VERSION:
        raise T3FormatError(path, 1, f"unsupported magic/version {header[0]} {header[1]}")
    try:
        m, p, n = (int(x) for x in header[2:5])
    except ValueError:
        raise T3FormatError(path, 1, f"non-integer dims in header {lines[0]!r}") from None
    if m < 1 or p < 1 or n < 1:
        raise T3FormatError(path, 1, f"dims must be positive, got {m} {p} {n}")
    if header[5] != "real":
        raise T3FormatError(path, 1, f"kind must be 'real', got {header[5]!r}")

    want = m * p * n
    body = lines[1 : 1 + want]
    if len(body) == want and not any(line.strip() for line in lines[1 + want :]):
        try:  # raises on a line that does not convert
            values = np.array(body, dtype=np.float64)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return Tensor3(values.reshape((m, p, n), order="F"))
    raise _first_bad_line(lines, want, path)


def _first_bad_line(lines: list[str], want: int, path) -> T3FormatError:
    """The error naming the first value line that breaks the format.

    Called only once the whole-file conversion has failed; it counts the
    entries and never keeps them, so a huge header allocates nothing.
    """
    count = 0
    for line_no, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "" and count == want:
            continue  # trailing blank line
        parts = raw.split()
        if len(parts) != 1:
            return T3FormatError(path, line_no, f"expected 1 value per line, got {len(parts)}")
        if count == want:
            return T3FormatError(path, line_no, f"more than {want} entries")
        try:
            value = float(raw)
        except ValueError:
            return T3FormatError(path, line_no, f"unparseable number in {raw!r}")
        if not math.isfinite(value):
            return T3FormatError(path, line_no, f"non-finite value in {raw!r}")
        count += 1
    return T3FormatError(path, len(lines) + 1, f"expected {want} entries, got {count}")


def read_t3(path) -> Tensor3:
    """Read a T3 v1 tensor file."""
    return loads_t3(_read_ascii(path), Path(path))
