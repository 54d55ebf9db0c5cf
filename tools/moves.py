"""Print how far the numbers moved in the files that differ between two output trees.

    python tools/moves.py OLD NEW

OLD and NEW are OUT_DIR trees written by ``tools/digests.py`` (for example at
two commits).  For each CSV, ``report.json`` or ``.t3`` file whose bytes
differ, one line gives its path, the largest relative move |new - old| /
|old| over its numbers, and the value that moved that far:

    path  move  from OLD_VALUE to NEW_VALUE

A move from zero is inf.  A file whose words other than numbers differ, or
whose word count differs, reads ``layout differs``; any other file that
differs (an SVG), ``differs``; a file in one tree only, ``only in OLD`` or
``only in NEW``.  Byte-identical files print nothing.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

# JSON, CSV and T3 text all split into words at these characters
SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')


def _words(text: str) -> list:
    out = []
    for word in SEPARATORS.split(text):
        try:
            out.append(float(word))
        except ValueError:
            out.append(word)
    return out


def largest_move(old: str, new: str):
    """``(move, old_value, new_value)`` of the number that moved most, in
    relative terms, or None where the texts differ in more than numbers."""
    a, b = _words(old), _words(new)
    if len(a) != len(b):
        return None
    best = (0.0, 0.0, 0.0)
    for x, y in zip(a, b):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return None
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            move = abs(y - x) / abs(x) if x else math.inf
            # a nan move (from inf) counts as largest, and stays so
            if not (move <= best[0] or math.isnan(best[0])):
                best = (move, x, y)
    return best


def describe(old: Path, new: Path) -> str:
    if not new.exists():
        return "only in OLD"
    if not old.exists():
        return "only in NEW"
    if new.suffix not in (".csv", ".t3") and new.name != "report.json":
        return "differs"
    found = largest_move(old.read_text(), new.read_text())
    if found is None:
        return "layout differs"
    move, x, y = found
    return f"{move:.3g}  from {x!r} to {y!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python tools/moves.py OLD NEW")
    old, new = (Path(a) for a in argv)
    paths = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    for rel in paths:
        a, b = old / rel, new / rel
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            print(f"{rel.as_posix()}  {describe(a, b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
