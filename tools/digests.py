"""Print the SHA-256 of every file a fixed set of dynsamp commands writes.

    python tools/digests.py OUT_DIR > digests.txt

Runs, in process through ``dynsamp.cli.main`` and with the ``src`` tree next
to this script:

- ``dynsamp experiment`` on the default grid of each of the six kinds;
- ``dynsamp simulate`` and then ``dynsamp reconstruct`` at the benchmark's
  dataset shapes (20x15x5 at alpha 0.5 and 0.3, 32x16x6 at alpha 0.3 with
  sigma 1e-3), at 8x3x5 (T=5, and T=20, whose observations grow to about
  1e16 and so are written by the T3 writer's ``%`` path) and at 40x30x10
  (T=3: 12,000 entries, enough that OpenBLAS threads the dot product of the
  relative error's norm), with seeds 1 and 2.

OUT_DIR must not exist.  Each output file gives one ``sha256  path`` line,
path relative to OUT_DIR, in sorted order, so two commits or two values of
``DYNSAMP_THREADS`` compare with one ``diff`` of their outputs.  A command
that exits nonzero stops the script with exit status 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynsamp.cli import main  # noqa: E402
from dynsamp.experiments import EXPERIMENT_KINDS  # noqa: E402

# (m, p, n, T, alpha, sigma) of each simulated dataset
DATASETS = (
    (20, 15, 5, 5, 0.5, 0.0),
    (20, 15, 5, 5, 0.3, 0.0),
    (32, 16, 6, 5, 0.3, 1e-3),
    (8, 3, 5, 5, 0.5, 1e-3),
    (8, 3, 5, 20, 0.5, 1e-3),
    (40, 30, 10, 3, 0.6, 1e-3),
)
SEEDS = (1, 2)


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"dynsamp {' '.join(argv)} exited {code}")


def write_outputs(out: Path) -> None:
    for kind in EXPERIMENT_KINDS:
        run(["experiment", "--kind", kind, "--out", str(out / kind)])
    for m, p, n, T, alpha, sigma in DATASETS:
        for seed in SEEDS:
            ds = out / f"{m}x{p}x{n}-T{T}-a{alpha}-s{sigma}-seed{seed}"
            run(["simulate", "--out", str(ds), f"--m={m}", f"--p={p}", f"--n={n}",
                 f"--T={T}", f"--alpha={alpha}", f"--sigma={sigma}", f"--seed={seed}"])
            run(["reconstruct", str(ds)])


def main_digests(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python tools/digests.py OUT_DIR")
    out = Path(argv[0])
    out.mkdir(parents=True)
    write_outputs(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests(sys.argv[1:]))
