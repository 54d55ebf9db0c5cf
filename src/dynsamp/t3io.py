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


def dumps_t3(t: Tensor3) -> str:
    """Serialize a tensor to T3 v1 text, one ``%.17e`` format call per file."""
    m, p, n = t.dims
    header = f"{_MAGIC} {_VERSION} {m} {p} {n} real\n"
    return header + ("%.17e\n" * t.data.size) % tuple(t.data.ravel(order="F").tolist())


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
                return Tensor3(values.reshape((m, p, n), order="F"), copy=False)
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
