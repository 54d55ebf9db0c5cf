"""T3 v1 text format for dense third-order tensors.

Layout::

    T3 1 <m> <p> <n> <real|complex>
    <value lines, one entry per line>

Value lines appear in lexicographic (k, j, i) order -- the depth index k
varies slowest, the row index i fastest.  A ``real`` file carries one
scientific-notation number per line, a ``complex`` file carries two
(real part, imaginary part).  Entries are written with 17 fractional
digits so float64 values round-trip exactly.
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
    """Malformed T3 file; message carries the offending line number."""

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


def read_json_object(path) -> dict:
    """Parse a JSON object file; invalid JSON or a non-object is a
    one-line ``ValueError`` naming the file."""
    try:
        value = json.loads(Path(path).read_text(encoding="ascii"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return value


def dumps_t3(t: Tensor3) -> str:
    """Serialize a tensor to T3 v1 text."""
    m, p, n = t.dims
    kind = "real" if t.is_real else "complex"
    lines = [f"{_MAGIC} {_VERSION} {m} {p} {n} {kind}"]
    for k in range(n):
        for j in range(p):
            for i in range(m):
                v = t.data[i, j, k]
                if kind == "real":
                    lines.append(f"{v:.17e}")
                else:
                    lines.append(f"{v.real:.17e} {v.imag:.17e}")
    return "\n".join(lines) + "\n"


def write_t3(path, t: Tensor3) -> None:
    """Write a tensor to ``path`` atomically."""
    atomic_write_text(path, dumps_t3(t))


def loads_t3(text: str, path="<string>") -> Tensor3:
    """Parse T3 v1 text; malformed or non-finite input gets a line-numbered error."""
    lines = text.splitlines()
    if not lines:
        raise T3FormatError(path, 1, "empty file, expected T3 header")
    header = lines[0].split()
    if len(header) != 6:
        raise T3FormatError(
            path, 1, f"header needs 6 fields 'T3 1 m p n real|complex', got {lines[0]!r}"
        )
    if header[0] != _MAGIC or header[1] != _VERSION:
        raise T3FormatError(path, 1, f"unsupported magic/version {header[0]} {header[1]}")
    try:
        m, p, n = (int(x) for x in header[2:5])
    except ValueError:
        raise T3FormatError(path, 1, f"non-integer dims in header {lines[0]!r}") from None
    if m < 1 or p < 1 or n < 1:
        raise T3FormatError(path, 1, f"dims must be positive, got {m} {p} {n}")
    kind = header[5]
    if kind not in ("real", "complex"):
        raise T3FormatError(path, 1, f"kind must be 'real' or 'complex', got {kind!r}")

    want = m * p * n
    ncols = 1 if kind == "real" else 2
    data = np.zeros((m, p, n), dtype=np.complex128)
    pos = 0
    for offset, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "" and pos == want:
            continue  # trailing blank line
        parts = raw.split()
        if len(parts) != ncols:
            raise T3FormatError(
                path, offset, f"expected {ncols} value(s) per line, got {len(parts)}"
            )
        if pos >= want:
            raise T3FormatError(path, offset, f"more than {want} entries")
        try:
            re = float(parts[0])
            im = float(parts[1]) if ncols == 2 else 0.0
        except ValueError:
            raise T3FormatError(path, offset, f"unparseable number in {raw!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise T3FormatError(path, offset, f"non-finite value in {raw!r}")
        k, rem = divmod(pos, p * m)
        j, i = divmod(rem, m)
        data[i, j, k] = complex(re, im)
        pos += 1
    if pos != want:
        raise T3FormatError(path, len(lines) + 1, f"expected {want} entries, got {pos}")
    return Tensor3(data, copy=False)


def read_t3(path) -> Tensor3:
    """Read a T3 v1 tensor file."""
    path = Path(path)
    return loads_t3(path.read_text(encoding="ascii"), path)
