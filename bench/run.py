"""dynsamp benchmark: one closed-loop workload per run, one JSON result line.

    python3 bench/run.py --workload recover|sweep|dataset --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` times whole cycles of ops until their summed latency reaches
``--seconds`` and reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs a fixed number of cycles per workload, alternating
untraced and traced cycles, then solves a sample of problems column by
column, and reports the per-layer metrics; a fixed op count makes the
counters repeat exactly.  Spans go to ``.bench_out/`` in the checkout.

Every op's outputs are checked; a failed check, an exception or an
undocumented exit code counts the op as failed.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit, the tail percentile used, ``fail_frac`` and the
environment fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
THREAD_VARS = ("DYNSAMP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("recover", "sweep", "dataset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment fingerprint -------------------------------------------------------


def openblas_threads():
    """OpenBLAS's live thread count, read from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return int(getter())
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": commit(),
        "src_sha256": source_digest(),
    }


# -- measurement ---------------------------------------------------------------------


class Loop:
    """Issues ops one after another and keeps their latencies and checks."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.next_op = 0
        self.latencies: list[float] = []
        self.errors: list[float] = []
        self.failed = 0

    def cycle(self, traced: bool = False) -> float:
        """Run one cycle of ops; returns its summed latency in seconds."""
        total = 0.0
        for _ in range(self.wl.cycle):
            i = self.next_op
            self.next_op += 1
            self.wl.prepare(i)
            result, exc = None, None
            if traced:
                self.tracer.op = i
            start = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span("bench.op"):
                        result = self.wl.op(i)
                else:
                    result = self.wl.op(i)
            except Exception as err:  # the check decides whether it was expected
                exc = err
            elapsed = time.perf_counter() - start
            outcome = self.wl.check(i, result, exc)
            self.latencies.append(elapsed)
            total += elapsed
            self.failed += not outcome.ok
            if outcome.error is not None:
                self.errors.append(outcome.error)
        return total

    def room_for_cycle(self) -> bool:
        pool = self.wl.pool
        return pool is None or self.next_op + self.wl.cycle <= pool


def tail(latencies_ms: list[float]):
    """Highest whole percentile with at least ten ops beyond it (nearest
    rank), floored at the median; returns (percentile, value, ops beyond)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    q = max(50, math.floor(100 * (n - 10) / n))
    rank = math.ceil(q * n / 100)
    return q, ordered[rank - 1], n - rank


def end_to_end(wl, seed: int, seconds: float, import_s: float):
    setups, caught = [], True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        caught = wl.setup(seed) and caught
        setups.append(time.perf_counter() - start)
    loop = Loop(wl)
    cycles: list[float] = []
    while sum(cycles) < seconds and loop.room_for_cycle():
        cycles.append(loop.cycle())
    lat_ms = [x * 1e3 for x in loop.latencies]
    q, tail_ms, beyond = tail(lat_ms)
    # Op i has shape class i % cycle.  ops_per_s prices a cycle at each
    # class's median latency, so a stretch of ops slowed by the host moves
    # it no more than it moves latency_ms_p50.
    class_ms = [statistics.median(lat_ms[c :: wl.cycle]) for c in range(wl.cycle)]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": wl.cycle / (sum(class_ms) / 1e3),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "recovery_err_p50": statistics.median(loop.errors) if loop.errors else 0.0,
    }
    notes = [
        f"latency_ms_tail is p{q}: {beyond} of {len(lat_ms)} ops beyond it",
        f"ops_per_s is {wl.cycle} ops over the summed median latency of each "
        f"op class {[round(c, 1) for c in class_ms]} ms, from {len(cycles)} cycles "
        f"(cycle seconds {[round(c, 3) for c in cycles]}); "
        f"all ops: {len(lat_ms) / sum(cycles):.6g} op/s",
        f"fail_frac: {loop.failed / len(lat_ms):.6g} ratio "
        f"({loop.failed} of {len(lat_ms)} ops)",
        f"setup_s: dynsamp import {import_s:.4f} s + median of "
        f"{SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}",
        f"self-check caught corrupted outputs: {caught}",
    ]
    ok = caught and bool(loop.errors)
    return metrics, len(lat_ms), loop.failed, ok, notes


def column_sample(wl, tracer) -> None:
    """Solve sample problems column by column through the public
    ``assemble_column_system`` and ``solve_column``."""
    from dynsamp.reconstruct import (
        UnrecoverableColumnError, assemble_column_system, solve_column,
    )

    tracer.op = "sample"
    for a, mask, samples in wl.sample_problems():
        for j in range(mask.dims[1]):
            with tracer.span("reconstruct.assemble"):
                system = assemble_column_system(a, mask, samples, j)
            try:
                with tracer.span("reconstruct.solve"):
                    solve_column(system)
            except UnrecoverableColumnError:
                pass


def per_layer(wl, seed: int, header: dict):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        caught = wl.setup(seed)
    finally:
        tracer.uninstall()
    loop = Loop(wl, tracer)
    plain, traced = [0, 0.0], [0, 0.0]
    for c in range(2 * wl.trace_cycles):
        on = c % 2 == 1
        if on:
            tracer.install()
        try:
            before = len(loop.latencies)
            busy = loop.cycle(traced=on)
        finally:
            tracer.uninstall()
        side = traced if on else plain
        side[0] += len(loop.latencies) - before
        side[1] += busy
    column_sample(wl, tracer)
    metrics = layer_metrics(tracer)
    metrics["trace.ops"] = traced[0]
    metrics["trace.ops_per_s"] = traced[0] / traced[1]
    metrics["trace.untraced_ops_per_s"] = plain[0] / plain[1]
    metrics["trace.overhead"] = metrics["trace.untraced_ops_per_s"] / metrics["trace.ops_per_s"] - 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-{seed}.jsonl"
    tracer.write(path, dict(header, metrics=metrics))
    notes = [f"spans written to {path.relative_to(ROOT)}",
             f"self-check caught corrupted outputs: {caught}"]
    return metrics, len(loop.latencies), loop.failed, caught, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dynsamp" / "__init__.py").is_file():
        print(f"error: no dynsamp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dynsamp

    import_s = time.perf_counter() - start
    if Path(dynsamp.__file__).resolve().parent != SRC / "dynsamp":
        print(f"error: imported dynsamp from {dynsamp.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": fingerprint()}
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if args.trace:
                metrics, attempted, failed, ok, notes = per_layer(wl, args.seed, header)
            else:
                metrics, attempted, failed, ok, notes = end_to_end(
                    wl, args.seed, args.seconds, import_s
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    result = {}
    for spec_metric in wanted:
        name, unit = spec_metric["name"], spec_metric["unit"]
        value = metrics[name]
        result[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({"env": header["env"]}, sort_keys=True))
    correct = ok and failed == 0 and all(math.isfinite(m["value"]) for m in result.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
